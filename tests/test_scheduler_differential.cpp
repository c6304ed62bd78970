// Differential fuzz: sim::Scheduler against the sorted-vector reference
// model in naive_scheduler.hpp. Each random program is replayed on both;
// the two observation logs must be identical. A log records:
//
//   * every fired event (its logical id, now(), and its own handle's
//     pending(), which must read false inside the callback);
//   * after every top-level step: now(), events_executed(), whether the
//     step threw, and pending() of every handle issued so far.
//
// Programs mix at()/after() (including times in the past), cancel()
// (valid, stale, repeated, of default handles, from inside callbacks, of
// the running event itself, and of whole runs of handles at once, which
// triggers the scheduler's purge), callbacks that throw, callbacks that issue
// bursts of several hundred events (so the slot storage grows while a
// callback is running from it), run_until() and run(). Event times are
// coarse so that equal-time ties, and hence the insertion-order tiebreak,
// are common.
//
// ATTAIN_DIFF_FUZZ_ITERS rescales the number of programs the way it
// rescales the stamp fuzz: the variable names a total budget against the
// default of 10000 (CI's sanitizer job sets 30000), and this suite keeps its
// share of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "naive_scheduler.hpp"
#include "sim/scheduler.hpp"

namespace attain::sim {
namespace {

std::size_t fuzz_iterations() {
  constexpr std::size_t kBase = 300;
  if (const char* env = std::getenv("ATTAIN_DIFF_FUZZ_ITERS")) {
    const long total = std::atol(env);
    if (total > 0) return std::max<std::size_t>(1, kBase * static_cast<std::size_t>(total) / 10000);
  }
  return kBase;
}

constexpr std::size_t kSteps = 60;
constexpr std::size_t kEventBudget = 1500;
constexpr std::size_t kBurst = 300;

enum Tag : std::int64_t { kFire = -1, kStep = -2 };

struct CallbackError : std::runtime_error {
  CallbackError() : std::runtime_error("callback threw") {}
};

/// Replays one random program on a scheduler of type S and returns its
/// observation log. Every random choice comes from the top-level stream or
/// from a stream keyed by the event's logical id, so two schedulers that
/// agree up to some point make the same choices from there on.
template <typename S>
class Replay {
 public:
  using Handle = decltype(std::declval<S&>().at(0, [] {}));

  explicit Replay(std::uint64_t seed) : seed_(seed) {}

  std::vector<std::int64_t> run() {
    Rng rng(seed_);
    for (std::size_t step = 0; step < kSteps; ++step) {
      const std::uint64_t k = rng.next_below(100);
      bool threw = false;
      if (k < 30) {
        issue(rng, /*relative=*/false);
      } else if (k < 45) {
        issue(rng, /*relative=*/true);
      } else if (k < 60) {
        cancel_random(rng);
      } else if (k < 68) {
        cancel_tail(rng);
      } else if (k < 92) {
        const SimTime deadline = sched_.now() + static_cast<SimTime>(rng.next_below(16)) * 5;
        threw = guarded([&] { sched_.run_until(deadline); });
      } else {
        threw = guarded([&] { sched_.run(); });
      }
      observe(threw);
    }
    // Drain: keep calling run() until no callback throws.
    for (;;) {
      const bool threw = guarded([&] { sched_.run(); });
      observe(threw);
      if (!threw) break;
    }
    return std::move(log_);
  }

 private:
  template <typename F>
  static bool guarded(F&& f) {
    try {
      f();
    } catch (const CallbackError&) {
      return true;
    }
    return false;
  }

  /// Issues one event at a coarse time around now(): absolute times may lie
  /// in the past (the scheduler clamps them), relative delays may be zero.
  void issue(Rng& rng, bool relative) {
    if (issued_ >= kEventBudget) return;
    const std::size_t id = handles_.size();
    const SimTime offset = static_cast<SimTime>(rng.next_below(24)) * 5;
    Handle h = relative ? sched_.after(offset, [this, id] { fire(id); })
                        : sched_.at(sched_.now() + offset - 30, [this, id] { fire(id); });
    handles_.push_back(h);
    ++issued_;
  }

  /// Cancels a random handle: any issued so far (live, fired, already
  /// cancelled) or a default-constructed one.
  void cancel_random(Rng& rng) {
    const std::uint64_t pick = rng.next_below(handles_.size() + 1);
    if (pick == handles_.size()) {
      Handle{}.cancel();
    } else {
      handles_[pick].cancel();
    }
  }

  /// Cancels every handle from a random index on: enough dead records at
  /// once to trigger the scheduler's purge, often including the latest.
  void cancel_tail(Rng& rng) {
    for (std::size_t i = rng.next_below(handles_.size() + 1); i < handles_.size(); ++i) {
      handles_[i].cancel();
    }
  }

  void fire(std::size_t id) {
    log_.push_back(kFire);
    log_.push_back(static_cast<std::int64_t>(id));
    log_.push_back(sched_.now());
    log_.push_back(handles_[id].pending() ? 1 : 0);
    Rng rng(seed_ * 0x9e3779b97f4a7c15ULL + id + 1);
    const std::uint64_t actions = rng.next_below(4);
    for (std::uint64_t a = 0; a < actions; ++a) {
      const std::uint64_t k = rng.next_below(100);
      if (k < 30) {
        issue(rng, /*relative=*/rng.chance(0.5));
      } else if (k < 55) {
        cancel_random(rng);
      } else if (k < 62) {
        handles_[id].cancel();  // the running event: a no-op
      } else if (k < 65) {
        for (std::size_t i = 0; i < kBurst; ++i) issue(rng, /*relative=*/true);
      } else if (k < 68) {
        throw CallbackError{};
      } else if (k < 71) {
        cancel_tail(rng);
      }
    }
  }

  void observe(bool threw) {
    log_.push_back(kStep);
    log_.push_back(sched_.now());
    log_.push_back(static_cast<std::int64_t>(sched_.events_executed()));
    log_.push_back(threw ? 1 : 0);
    std::int64_t word = 0;
    for (std::size_t i = 0; i < handles_.size(); ++i) {
      if (handles_[i].pending()) word |= std::int64_t{1} << (i % 63);
      if (i % 63 == 62 || i + 1 == handles_.size()) {
        log_.push_back(word);
        word = 0;
      }
    }
  }

  std::uint64_t seed_;
  S sched_;
  std::vector<Handle> handles_;
  std::size_t issued_{0};
  std::vector<std::int64_t> log_;
};

TEST(SchedulerDifferential, RandomProgramsMatchNaiveModel) {
  const std::size_t iterations = fuzz_iterations();
  std::size_t fired = 0;
  for (std::size_t i = 0; i < iterations; ++i) {
    const std::uint64_t seed = 0x5eedULL + i;
    const std::vector<std::int64_t> expected = Replay<NaiveScheduler>(seed).run();
    const std::vector<std::int64_t> actual = Replay<Scheduler>(seed).run();
    if (actual != expected) {
      std::size_t at = 0;
      while (at < actual.size() && at < expected.size() && actual[at] == expected[at]) ++at;
      FAIL() << "program seed " << seed << " diverges at log entry " << at << " of "
             << expected.size() << " (model) / " << actual.size() << " (scheduler)";
    }
    fired += static_cast<std::size_t>(std::count(expected.begin(), expected.end(), kFire));
  }
  // The programs must actually exercise the loop, not just issue and cancel.
  EXPECT_GT(fired, iterations * 20);
}

}  // namespace
}  // namespace attain::sim
