// Deterministic discrete-event scheduler. All network elements (links,
// switches, controllers, hosts, the injector) schedule callbacks on a single
// Scheduler instance; virtual time advances only through run()/run_until().
//
// The queue is a 4-ary min-heap of 32-byte records ordered by one 128-bit
// key, (when << 64) | seq, so a comparison is a single unsigned compare.
// Each record names a slot that owns the event's sim::Task. Slots live in
// fixed 256-slot chunks carved from the thread's slab pool: a slot never
// moves, so dispatch() invokes the callable where it lies and recycles the
// slot once it returns, and scheduling allocates nothing in steady state.
//
// Cancelled events do not linger until their deadline: once at least 64
// records are cancelled and they make up more than half the queue, one
// linear pass drops them and re-heapifies (amortized O(1) per cancel). A
// timer that is cancelled and re-armed on every ACK thus keeps the queue
// as deep as its live events.
#pragma once

#include <cstdint>

#include "common/arena.hpp"
#include "common/types.hpp"
#include "sim/task.hpp"

namespace attain::sim {

class Scheduler;

/// Handle for a scheduled event; lets the owner cancel it. Copyable; all
/// copies refer to the same pending event. A handle is a (slot, generation)
/// tag into the scheduler's slots and must not outlive the Scheduler that
/// issued it.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not yet fired. Safe to call repeatedly, on
  /// a default-constructed handle, or from inside the event's own callback
  /// (where it is a no-op).
  void cancel();

  bool pending() const;

 private:
  friend class Scheduler;
  EventHandle(Scheduler* sched, std::uint32_t slot, std::uint32_t gen)
      : sched_(sched), slot_(slot), gen_(gen) {}

  Scheduler* sched_{nullptr};
  std::uint32_t slot_{0};
  std::uint32_t gen_{0};
};

/// Min-heap event loop keyed by (time, sequence). Ties break in insertion
/// order, which makes runs bit-for-bit reproducible.
class Scheduler {
 public:
  Scheduler();
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute virtual time `when`. A `when` in the
  /// past is clamped to now(): stale timers fire immediately instead of
  /// running time backwards (or blowing up mid-simulation).
  EventHandle at(SimTime when, Task fn);

  /// Schedules `fn` to run `delay` microseconds from now.
  EventHandle after(SimTime delay, Task fn);

  /// Runs events until the queue drains. Cancelled events still advance
  /// the clock: run() ends at the latest time of any event it consumed,
  /// cancelled or not.
  void run();

  /// Runs events with time <= `deadline`, then sets now() to `deadline`
  /// (even if the queue drained earlier).
  void run_until(SimTime deadline);

  /// Number of events executed since construction.
  std::uint64_t events_executed() const { return executed_; }

  /// Monotone count of at()/after() calls issued so far. The pipe batcher
  /// compares snapshots of this counter to prove that no event was scheduled
  /// anywhere in the process between two sends — the order-isomorphism guard
  /// that makes coalescing same-instant deliveries safe.
  std::uint64_t issue_seq() const { return seq_; }

  /// Credits `n` extra logical events against events_executed(). A batch
  /// event that delivers k coalesced payloads reports k-1 extras so the
  /// executed count matches one event per payload exactly.
  void count_extra_events(std::uint64_t n) { executed_ += n; }

  /// Records in the queue: live events plus cancelled ones not yet purged.
  std::size_t pending_events() const { return heap_.size(); }

 private:
  friend class EventHandle;

  using Key = unsigned __int128;

  /// Event state; the heap refers to it by slot index. A free slot links
  /// to the next free one through `next_free`. The flags lead so that they
  /// share a cache line with the Task's vtable and a small callable.
  struct Slot {
    std::uint32_t gen{0};
    std::uint32_t next_free{0};
    bool cancelled{false};  // cancelled while still queued
    bool pending{false};    // queued and not yet started
    Task fn;
  };
  /// What the heap orders: plain values, no ownership.
  struct Entry {
    Key key;
    std::uint32_t slot;
  };

  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;
  static constexpr std::uint32_t kNoSlot = ~0u;
  static constexpr std::size_t kPurgeMin = 64;

  static Key make_key(SimTime when, std::uint64_t seq) {
    return (static_cast<Key>(static_cast<std::uint64_t>(when)) << 64) | seq;
  }
  static SimTime when_of(Key key) { return static_cast<SimTime>(key >> 64); }

  Slot& slot_at(std::uint32_t index) {
    return chunks_[index >> kChunkShift][index & (kChunkSlots - 1)];
  }

  /// at() and after() in one place: moves `fn` into a slot, its only move.
  EventHandle schedule(SimTime when, Task& fn);
  std::uint32_t acquire_slot();
  /// Recycles a slot: destroys its callable, bumps the generation
  /// (invalidating handles) and pushes it on the free list.
  void release_slot(std::uint32_t index);
  void dispatch(const Entry& ev);
  /// Called on every cancel of a queued event; purges when the dead
  /// records pass the threshold.
  void note_cancelled();
  void purge_cancelled();

  void push(const Entry& e);
  Entry pop();
  /// Places `e` in the hole at `start`, restoring heap order below it.
  void sift_down(std::size_t start, Entry e);

  SimTime now_{0};
  /// Latest time of any cancelled record dropped by a purge: run() would
  /// have advanced the clock to it.
  SimTime purged_until_{0};
  std::uint64_t seq_{0};
  std::uint64_t executed_{0};
  std::size_t cancelled_queued_{0};
  mem::vector<Entry> heap_;
  mem::vector<Slot*> chunks_;
  std::uint32_t free_head_{kNoSlot};
  std::uint32_t fresh_{0};  // slots handed out at least once
};

}  // namespace attain::sim
