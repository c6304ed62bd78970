#include "sim/scheduler.hpp"

#include <new>
#include <utility>

#include "common/log.hpp"

namespace attain::sim {

void EventHandle::cancel() {
  if (sched_ == nullptr) return;
  Scheduler::Slot& slot = sched_->slot_at(slot_);
  if (slot.gen == gen_ && slot.pending && !slot.cancelled) {
    slot.cancelled = true;
    sched_->note_cancelled();
  }
}

bool EventHandle::pending() const {
  if (sched_ == nullptr) return false;
  const Scheduler::Slot& slot = sched_->slot_at(slot_);
  return slot.gen == gen_ && slot.pending && !slot.cancelled;
}

Scheduler::Scheduler() {
  Logger::instance().set_clock([this] { return now_; });
}

Scheduler::~Scheduler() {
  Logger::instance().set_clock({});
  for (Slot* chunk : chunks_) {
    for (std::uint32_t i = 0; i < kChunkSlots; ++i) chunk[i].~Slot();
    mem::thread_slab().deallocate(chunk, kChunkSlots * sizeof(Slot));
  }
}

// The per-event helpers are marked inline: without the hint GCC keeps them
// out of line in schedule() and dispatch(), which costs a few ns per event.
inline std::uint32_t Scheduler::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slot_at(index).next_free;
    return index;
  }
  if (fresh_ == chunks_.size() * kChunkSlots) {
    auto* chunk = static_cast<Slot*>(mem::thread_slab().allocate(kChunkSlots * sizeof(Slot)));
    for (std::uint32_t i = 0; i < kChunkSlots; ++i) ::new (static_cast<void*>(chunk + i)) Slot{};
    chunks_.push_back(chunk);
  }
  return fresh_++;
}

inline void Scheduler::release_slot(std::uint32_t index) {
  Slot& slot = slot_at(index);
  slot.fn = nullptr;
  slot.pending = false;
  slot.cancelled = false;
  ++slot.gen;  // invalidates outstanding handles
  slot.next_free = free_head_;
  free_head_ = index;
}

inline void Scheduler::push(const Entry& e) {
  std::size_t hole = heap_.size();
  heap_.emplace_back();
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    if (!(e.key < heap_[parent].key)) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = e;
}

inline EventHandle Scheduler::schedule(SimTime when, Task& fn) {
  // Clamp instead of throwing: a stale timer (e.g. one computed from a
  // deadline that already elapsed) fires immediately rather than running
  // virtual time backwards through the event loop.
  if (when < now_) when = now_;
  const std::uint32_t index = acquire_slot();
  Slot& slot = slot_at(index);
  slot.fn = std::move(fn);
  slot.pending = true;
  push(Entry{make_key(when, seq_++), index});
  return EventHandle{this, index, slot.gen};
}

EventHandle Scheduler::at(SimTime when, Task fn) { return schedule(when, fn); }

EventHandle Scheduler::after(SimTime delay, Task fn) { return schedule(now_ + delay, fn); }

void Scheduler::note_cancelled() {
  ++cancelled_queued_;
  if (cancelled_queued_ >= kPurgeMin && 2 * cancelled_queued_ > heap_.size()) purge_cancelled();
}

void Scheduler::purge_cancelled() {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const Entry e = heap_[i];
    if (slot_at(e.slot).cancelled) {
      const SimTime when = when_of(e.key);
      if (when > purged_until_) purged_until_ = when;
      release_slot(e.slot);
    } else {
      heap_[kept++] = e;
    }
  }
  heap_.resize(kept);
  cancelled_queued_ = 0;
  if (kept > 1) {
    for (std::size_t i = (kept - 2) / 4 + 1; i-- > 0;) sift_down(i, heap_[i]);
  }
}

void Scheduler::sift_down(std::size_t start, Entry e) {
  // Bottom-up: walk the hole down the path of least children to a leaf
  // without comparing against `e`, then sift `e` back up. The element
  // being placed usually belongs near the bottom, so this saves a compare
  // per level, and the descent ends on the heap size alone.
  const std::size_t n = heap_.size();
  std::size_t hole = start;
  for (;;) {
    const std::size_t first = 4 * hole + 1;
    std::size_t best;
    if (first + 3 < n) {
      // All four children exist: a tournament of three compares.
      const std::size_t lo = heap_[first + 1].key < heap_[first].key ? first + 1 : first;
      const std::size_t hi = heap_[first + 3].key < heap_[first + 2].key ? first + 3 : first + 2;
      best = heap_[hi].key < heap_[lo].key ? hi : lo;
    } else if (first < n) {
      best = first;
      for (std::size_t c = first + 1; c < n; ++c) {
        if (heap_[c].key < heap_[best].key) best = c;
      }
    } else {
      break;
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  while (hole > start) {
    const std::size_t parent = (hole - 1) / 4;
    if (!(e.key < heap_[parent].key)) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = e;
}

Scheduler::Entry Scheduler::pop() {
  const Entry top = heap_[0];
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
  return top;
}

void Scheduler::dispatch(const Entry& ev) {
  now_ = when_of(ev.key);  // cancelled events still advance the clock
  Slot& slot = slot_at(ev.slot);
  if (slot.cancelled) {
    --cancelled_queued_;
    release_slot(ev.slot);
    return;
  }
  // Invoke in place: slots never move, so the callback may schedule (and
  // grow the chunk table) freely. The slot stays taken until it returns —
  // or throws — and its handle reads not-pending throughout.
  slot.pending = false;
  ++executed_;
  struct Recycle {
    Scheduler* sched;
    std::uint32_t index;
    ~Recycle() { sched->release_slot(index); }
  } recycle{this, ev.slot};
  slot.fn();
}

void Scheduler::run() {
  while (!heap_.empty()) dispatch(pop());
  if (now_ < purged_until_) now_ = purged_until_;
}

void Scheduler::run_until(SimTime deadline) {
  // The top is re-read every iteration: a callback may cancel events and
  // trigger a purge that rebuilds the heap.
  while (!heap_.empty() && when_of(heap_[0].key) <= deadline) dispatch(pop());
  if (now_ < deadline) now_ = deadline;
}

}  // namespace attain::sim
