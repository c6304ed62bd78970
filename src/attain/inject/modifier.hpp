// The MESSAGEMODIFIER of Algorithm 1: applies one attack action to the
// outgoing message list. Dropping clears the list, duplicating appends a
// copy, modifying rewrites payload fields and re-encodes the wire bytes,
// and so on. GoToState / Sleep / SysCmd are *not* handled here — the
// attack executor owns those (they affect executor state, not messages).
#pragma once

#include <functional>
#include <vector>

#include "attain/lang/actions.hpp"
#include "attain/lang/deque_store.hpp"
#include "attain/lang/program.hpp"
#include "attain/monitor/monitor.hpp"
#include "common/rng.hpp"

namespace attain::inject {

/// One entry of msg_out: a message awaiting delivery plus its accumulated
/// transmission delay.
struct OutMessage {
  lang::InFlightMessage message;
  SimTime delay{0};
  /// True while this entry's frame is still msg_in's: `message.envelope`
  /// is empty, the attack executor moves msg_in's envelope in once the
  /// rules have run, and an action that mutates the frame copies it from
  /// ModifierContext::original first. Only the executor's msg_out[0] starts
  /// out pending.
  bool frame_pending{false};
};

/// Slab-backed (common/arena.hpp): one list per executor invocation on the
/// per-message hot path, so its storage recycles across frames.
using OutMessageList = std::vector<OutMessage, mem::SlabAllocator<OutMessage>>;

struct ModifierContext {
  /// The message that triggered the rule (msg_in of Algorithm 1). Its frame
  /// is never mutated: conditionals, append, prepend and duplicate read it
  /// as it arrived.
  const lang::InFlightMessage* original{nullptr};
  lang::DequeStore* storage{nullptr};
  Rng* rng{nullptr};
  monitor::Monitor* monitor{nullptr};
  /// Allocates message ids for injected/duplicated messages.
  std::function<std::uint64_t()> next_id;
  /// Allocates OpenFlow xids for injected messages.
  std::function<std::uint32_t()> next_xid;
  const char* state_name{""};
  const char* rule_name{""};
  /// Compiled fast path for the current action's expression operand (e.g.
  /// modify(msg, field, <expr>)). When both are set, apply_action evaluates
  /// the program instead of tree-walking the ExprPtr; failures surface as
  /// the same EvalError the tree would have thrown. The executor re-points
  /// value_program before each action.
  lang::ProgramEvaluator* evaluator{nullptr};
  const lang::Program* value_program{nullptr};
};

/// Applies a message-level action to `out`. Returns false (with an
/// EvalError monitor event) when the action could not be applied — e.g.
/// modifying an unreadable payload or replaying from an empty deque.
bool apply_action(const lang::ActionSpec& action, OutMessageList& out,
                  ModifierContext& ctx);

}  // namespace attain::inject
