// Reference discrete-event scheduler: a sorted vector of (when, seq)
// records with no pooling, no purging and no heap — the differential
// oracle for sim::Scheduler (test_scheduler_differential.cpp replays the
// same random programs against both).
//
// Semantics contract shared with sim::Scheduler:
//   * events fire in (when, seq) order; seq is the issue order of at()/
//     after(), so equal times fire in insertion order;
//   * at() with a time in the past clamps to now();
//   * a cancelled event never fires and is not counted by
//     events_executed(), but when run() reaches it, it still advances the
//     clock to its time; run_until() always ends at its deadline;
//   * a handle reads pending() == false once its event was cancelled or
//     has started firing — including from inside its own callback, where
//     cancelling it is a no-op;
//   * an exception thrown by a callback propagates out of run()/
//     run_until() after the event was consumed; the scheduler stays usable.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"

namespace attain::sim {

class NaiveScheduler {
 public:
  class Handle {
   public:
    Handle() = default;

    void cancel() {
      if (sched_ == nullptr) return;
      State& s = sched_->states_[id_];
      if (s.queued) s.cancelled = true;
    }

    bool pending() const {
      if (sched_ == nullptr) return false;
      const State& s = sched_->states_[id_];
      return s.queued && !s.cancelled;
    }

   private:
    friend class NaiveScheduler;
    Handle(NaiveScheduler* sched, std::size_t id) : sched_(sched), id_(id) {}

    NaiveScheduler* sched_{nullptr};
    std::size_t id_{0};
  };

  SimTime now() const { return now_; }
  std::uint64_t events_executed() const { return executed_; }

  Handle at(SimTime when, std::function<void()> fn) {
    if (when < now_) when = now_;
    const std::size_t id = states_.size();
    states_.push_back(State{true, false});
    Record rec{when, seq_++, id, std::move(fn)};
    // Descending order, so the next event to fire sits at the back.
    const auto pos = std::upper_bound(
        queue_.begin(), queue_.end(), rec, [](const Record& a, const Record& b) {
          return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        });
    queue_.insert(pos, std::move(rec));
    return Handle{this, id};
  }

  Handle after(SimTime delay, std::function<void()> fn) { return at(now_ + delay, std::move(fn)); }

  void run() {
    while (!queue_.empty()) dispatch_back();
  }

  void run_until(SimTime deadline) {
    while (!queue_.empty() && queue_.back().when <= deadline) dispatch_back();
    if (now_ < deadline) now_ = deadline;
  }

 private:
  struct State {
    bool queued;
    bool cancelled;
  };
  struct Record {
    SimTime when;
    std::uint64_t seq;
    std::size_t id;
    std::function<void()> fn;
  };

  void dispatch_back() {
    Record rec = std::move(queue_.back());
    queue_.pop_back();
    now_ = rec.when;
    State& s = states_[rec.id];
    s.queued = false;
    if (s.cancelled) return;
    ++executed_;
    rec.fn();
  }

  SimTime now_{0};
  std::uint64_t seq_{0};
  std::uint64_t executed_{0};
  std::vector<Record> queue_;
  std::vector<State> states_;
};

}  // namespace attain::sim
