// The attack executor of Algorithm 1 (§VI-B2): keeps the attack's current
// state σ_current, evaluates the saved state's rules against each incoming
// message, actuates actions through the message modifier, and returns the
// outgoing message list plus any executor-level effects (sleep, syscmds).
//
// Hot-path layout: each state's rules are pre-bucketed by connection (no
// linear connection scan), each rule's guard prefilter is tested with one
// bitmask before anything else runs, and conditionals execute as compiled
// lang::Programs on a reusable evaluator — no allocation, no exceptions on
// the non-matching path. set_use_compiled(false) switches back to the
// tree-walk oracle (tests and benches compare both).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "attain/dsl/compiler.hpp"
#include "common/arena.hpp"
#include "attain/inject/modifier.hpp"

namespace attain::inject {

struct SysCmdCall {
  std::string host;
  std::string command;
};

/// Everything one message's processing produced.
struct ExecutionResult {
  OutMessageList outgoing;
  /// Accumulated SLEEP() time: the injector pauses processing this long.
  SimTime sleep{0};
  mem::vector<SysCmdCall> syscmds;
};

struct ExecutorStats {
  std::uint64_t messages_processed{0};
  /// Conditionals actually evaluated (guard-skipped rules don't count; the
  /// connection bucketing means rules on other connections never did).
  std::uint64_t rules_evaluated{0};
  std::uint64_t rules_matched{0};
  std::uint64_t actions_executed{0};
  std::uint64_t state_transitions{0};
  std::uint64_t capability_violations{0};  // runtime defence-in-depth hits
  std::uint64_t eval_errors{0};
  /// Rules dismissed by their guard prefilter (message type/direction/
  /// decodability can't possibly satisfy the conditional). In the seed
  /// implementation these either evaluated to false or raised an EvalError.
  std::uint64_t rules_skipped_by_guard{0};
  /// Conditionals evaluated via the compiled path (vs the tree oracle).
  std::uint64_t programs_executed{0};
};

class AttackExecutor {
 public:
  /// The executor holds references to the compiled attack and capability
  /// map; both must outlive it.
  AttackExecutor(const dsl::CompiledAttack& attack, const model::CapabilityMap& capabilities,
                 monitor::Monitor& monitor, Rng& rng);

  /// Resets to σ_start and re-initializes storage Δ (Algorithm 1 line 2).
  void reset();

  /// Processes one incoming message (Algorithm 1 lines 4–21, minus the
  /// actual sends, which the proxy performs with the returned list). Takes
  /// ownership: unless an action mutates the frame, msg_in's envelope moves
  /// into msg_out[0] instead of being copied. Passing a copy gives the same
  /// result.
  ExecutionResult process(lang::InFlightMessage msg);

  /// Guard shortcut: when process() for any message of this shape on
  /// `conn` is guaranteed to run zero rules — every rule in the current
  /// state's bucket carries a compiled program whose guard rejects the
  /// (direction, type, decodability) shape, so outgoing == [msg], no state
  /// or storage change, no monitor events — counts the message exactly as
  /// process() would (one processed, every bucket rule skipped by its
  /// guard) and returns true. Otherwise returns false and changes nothing.
  /// An empty bucket qualifies trivially. `type` is absent for
  /// sealed/undecodable frames, mirroring InFlightMessage::payload() ==
  /// nullptr in Guard::admits().
  bool skip_by_guards(ConnectionId conn, lang::Direction direction,
                      std::optional<ofp::MsgType> type);

  /// Oracle mode: evaluate conditionals with the tree-walk instead of the
  /// compiled programs (also disables the guard prefilter, restoring the
  /// seed's evaluate-and-catch semantics). On by default.
  void set_use_compiled(bool use_compiled) { use_compiled_ = use_compiled; }
  bool use_compiled() const { return use_compiled_; }

  const std::string& current_state_name() const;
  std::size_t current_state_index() const { return current_; }
  const lang::DequeStore& storage() const { return storage_; }
  lang::DequeStore& storage() { return storage_; }
  const ExecutorStats& stats() const { return stats_; }

 private:
  std::uint64_t next_id() { return ++id_counter_; }
  /// Lines 6–20 for one message: evaluates the arrival state's rules
  /// against `msg` and applies their actions to result.outgoing.
  void run_rules(const lang::InFlightMessage& msg, ExecutionResult& result);

  const dsl::CompiledAttack& attack_;
  const model::CapabilityMap& capabilities_;
  monitor::Monitor& monitor_;
  Rng& rng_;
  lang::DequeStore storage_;
  std::size_t current_{0};
  std::uint64_t id_counter_{1'000'000'000ULL};  // injected-message id space
  std::uint32_t xid_counter_{0x7a000000};
  ExecutorStats stats_;
  bool use_compiled_{true};
  lang::ProgramEvaluator evaluator_;
  /// Per-state rule indices bucketed by connection, built once at
  /// construction (rule order within a bucket preserved).
  std::vector<mem::map<ConnectionId, mem::vector<std::uint32_t>>> rule_buckets_;
  /// Hoisted modifier context: the std::function id/xid allocators are
  /// built once here instead of twice per matched rule.
  ModifierContext mod_ctx_;
};

}  // namespace attain::inject
