#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/arena.hpp"

namespace attain::sim {
namespace {

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.at(30, [&] { order.push_back(3); });
  sched.at(10, [&] { order.push_back(1); });
  sched.at(20, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 30);
}

TEST(Scheduler, TiesBreakInInsertionOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.at(100, [&order, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, AfterSchedulesRelativeToNow) {
  Scheduler sched;
  SimTime fired_at = -1;
  sched.at(50, [&] {
    sched.after(25, [&] { fired_at = sched.now(); });
  });
  sched.run();
  EXPECT_EQ(fired_at, 75);
}

TEST(Scheduler, PastTimeClampsToNow) {
  // Regression: at(when < now()) used to throw, which made callers that
  // compute deadlines from stale timestamps brittle. It now clamps to
  // now(), firing the event immediately — and time never moves backwards.
  Scheduler sched;
  std::vector<SimTime> fired;
  sched.at(10, [&] {
    sched.at(5, [&] { fired.push_back(sched.now()); });
    sched.at(20, [&] { fired.push_back(sched.now()); });
  });
  sched.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(sched.now(), 20);
}

TEST(Scheduler, ClampedEventsFireAfterAlreadyQueuedEventsAtNow) {
  // A clamped event lands at now() *behind* events already queued for that
  // instant: insertion order among equal timestamps is preserved.
  Scheduler sched;
  std::vector<int> order;
  sched.at(10, [&] {
    sched.at(10, [&] { order.push_back(1); });  // same-time, queued first
    sched.at(3, [&] { order.push_back(2); });   // clamped to 10, queued second
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  EventHandle handle = sched.at(10, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, HandleNotPendingAfterFire) {
  Scheduler sched;
  EventHandle handle = sched.at(10, [] {});
  sched.run();
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // safe no-op
}

TEST(Scheduler, StaleHandleCannotCancelRecycledSlot) {
  // The event pool recycles slots; a handle from a fired event must not
  // cancel a later event that happens to reuse the same slot (generation
  // tags disambiguate).
  Scheduler sched;
  EventHandle first = sched.at(10, [] {});
  sched.run_until(10);
  EXPECT_FALSE(first.pending());

  bool fired = false;
  EventHandle second = sched.at(20, [&] { fired = true; });
  first.cancel();  // stale generation: must be a no-op
  EXPECT_TRUE(second.pending());
  sched.run();
  EXPECT_TRUE(fired);
}

TEST(Scheduler, CancelledEventsStillAdvanceTimeButDoNotCount) {
  Scheduler sched;
  EventHandle handle = sched.at(10, [] {});
  sched.at(20, [] {});
  handle.cancel();
  sched.run();
  EXPECT_EQ(sched.now(), 20);
  EXPECT_EQ(sched.events_executed(), 1u);  // the cancelled one is not counted
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler sched;
  std::vector<SimTime> fired;
  sched.at(10, [&] { fired.push_back(10); });
  sched.at(20, [&] { fired.push_back(20); });
  sched.at(30, [&] { fired.push_back(30); });
  sched.run_until(20);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(sched.now(), 20);
  sched.run_until(100);
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_EQ(sched.now(), 100);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler sched;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10) sched.after(1, chain);
  };
  sched.after(1, chain);
  sched.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sched.now(), 10);
  EXPECT_EQ(sched.events_executed(), 10u);
}

TEST(Scheduler, ThrowingCallbackLeavesSchedulerUsable) {
  Scheduler sched;
  std::vector<int> order;
  EventHandle thrower = sched.at(10, [] { throw std::runtime_error("boom"); });
  sched.at(20, [&] { order.push_back(2); });
  EXPECT_THROW(sched.run(), std::runtime_error);
  EXPECT_EQ(sched.now(), 10);
  EXPECT_EQ(sched.events_executed(), 1u);  // it fired, then threw
  EXPECT_FALSE(thrower.pending());
  thrower.cancel();  // stale: must not touch whatever reuses the slot
  sched.at(15, [&] { order.push_back(1); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sched.now(), 20);
}

TEST(Scheduler, ThrowingCallbackRecyclesItsSlot) {
  // A throwing event must give its slot back: many throws with one event
  // in flight at a time must not grow the scheduler's storage.
  Scheduler sched;
  auto throw_many = [&] {
    for (int i = 0; i < 5000; ++i) {
      sched.after(1, [] { throw std::runtime_error("boom"); });
      EXPECT_THROW(sched.run(), std::runtime_error);
    }
  };
  throw_many();
  const std::size_t live = mem::thread_slab().stats().bytes_live;
  throw_many();
  EXPECT_EQ(mem::thread_slab().stats().bytes_live, live);
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(Scheduler, RearmedTimerKeepsQueueAsDeepAsLiveEvents) {
  // The iperf RTO pattern: every ACK cancels the retransmission timer and
  // arms a fresh one. Cancelled records must not pile up until their
  // deadlines; the purge keeps the queue within 2 x live + 64.
  Scheduler sched;
  std::vector<EventHandle> background;
  for (int i = 0; i < 10; ++i) background.push_back(sched.at(1'000'000'000 + i, [] {}));
  const std::size_t live = background.size() + 1;
  EventHandle rto = sched.after(500 * kMillisecond, [] {});
  std::size_t deepest = 0;
  for (int ack = 0; ack < 100'000; ++ack) {
    rto.cancel();
    rto = sched.after(500 * kMillisecond, [] {});
    deepest = std::max(deepest, sched.pending_events());
  }
  EXPECT_LE(deepest, 2 * live + 64);
  EXPECT_TRUE(rto.pending());
  sched.run();
  EXPECT_EQ(sched.events_executed(), live);
}

TEST(Scheduler, RunEndsAtPurgedTrailingCancelledEvent) {
  // run() ends at the time of the last event it consumed, cancelled or
  // not. A purge drops cancelled records early; the clock must still land
  // where consuming them would have put it.
  Scheduler sched;
  sched.at(5, [] {});
  std::vector<EventHandle> dead;
  for (int i = 0; i < 64; ++i) dead.push_back(sched.at(1000 + i, [] {}));
  for (EventHandle& h : dead) h.cancel();
  EXPECT_EQ(sched.pending_events(), 1u) << "64 cancelled of 65 queued: purged";
  sched.run();
  EXPECT_EQ(sched.now(), 1063);
  EXPECT_EQ(sched.events_executed(), 1u);
}

TEST(Scheduler, OwnHandleIsNotPendingInsideItsCallback) {
  Scheduler sched;
  EventHandle self;
  bool pending_inside = true;
  int fired = 0;
  self = sched.at(10, [&] {
    ++fired;
    pending_inside = self.pending();
    self.cancel();  // must be a no-op
    sched.at(20, [&] { ++fired; });
  });
  sched.run();
  EXPECT_FALSE(pending_inside);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sched.events_executed(), 2u);
}

TEST(Scheduler, SecondsHelperConverts) {
  EXPECT_EQ(seconds(1.0), kSecond);
  EXPECT_EQ(seconds(0.001), kMillisecond);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond * 3), 3.0);
}

}  // namespace
}  // namespace attain::sim
