// Deterministic discrete-event scheduler. All network elements (links,
// switches, controllers, hosts, the injector) schedule callbacks on a single
// Scheduler instance; virtual time advances only through run()/run_until().
//
// Events live in a slab-recycled pool: the priority queue holds plain
// 24-byte records and cancellation uses (slot, generation) tags, so
// scheduling an event performs no allocation at all in steady state. The
// callback is a sim::Task whose inline buffer is sized for the fattest
// hot-path lambda (a pipe delivery carrying a chan::Envelope); oversized
// callables recycle through the thread's slab pool, and the pool/queue
// vectors themselves are slab-backed, so once the pool reaches its
// high-water mark the event loop never touches the general heap.
#pragma once

#include <cstdint>
#include <queue>

#include "common/arena.hpp"
#include "common/types.hpp"
#include "sim/task.hpp"

namespace attain::sim {

class Scheduler;

/// Handle for a scheduled event; lets the owner cancel it. Copyable; all
/// copies refer to the same pending event. A handle is a (slot, generation)
/// tag into the scheduler's event pool and must not outlive the Scheduler
/// that issued it.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not yet fired. Safe to call repeatedly or
  /// on a default-constructed handle.
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

  /// Runs events until the queue drains.
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

  std::size_t pending_events() const { return queue_.size(); }

 private:
  friend class EventHandle;

  /// Pooled event state; the heap refers to it by slot index + generation.
  struct Slot {
    Task fn;
    std::uint32_t gen{0};
    bool cancelled{false};
    bool pending{false};
  };
  /// What the priority queue actually orders: plain values, no ownership.
  struct QueuedEvent {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const QueuedEvent& a, const QueuedEvent& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  std::uint32_t acquire_slot(Task fn);
  /// Recycles a slot: bumps the generation (invalidating handles) and
  /// returns the std::function state to the pool for reuse.
  void release_slot(std::uint32_t slot);
  void dispatch(const QueuedEvent& ev);

  SimTime now_{0};
  std::uint64_t seq_{0};
  std::uint64_t executed_{0};
  std::priority_queue<QueuedEvent, mem::vector<QueuedEvent>, Later> queue_;
  mem::vector<Slot> pool_;
  mem::vector<std::uint32_t> free_slots_;
};

}  // namespace attain::sim
