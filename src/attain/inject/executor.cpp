#include "attain/inject/executor.hpp"

namespace attain::inject {

AttackExecutor::AttackExecutor(const dsl::CompiledAttack& attack,
                               const model::CapabilityMap& capabilities,
                               monitor::Monitor& monitor, Rng& rng)
    : attack_(attack), capabilities_(capabilities), monitor_(monitor), rng_(rng) {
  for (const auto& [name, initial] : attack_.deques) {
    storage_.declare(name, initial);
  }
  rule_buckets_.resize(attack_.states.size());
  for (std::size_t s = 0; s < attack_.states.size(); ++s) {
    const auto& rules = attack_.states[s].rules;
    for (std::size_t r = 0; r < rules.size(); ++r) {
      rule_buckets_[s][rules[r].rule.connection].push_back(static_cast<std::uint32_t>(r));
    }
  }
  mod_ctx_.storage = &storage_;
  mod_ctx_.rng = &rng_;
  mod_ctx_.monitor = &monitor_;
  mod_ctx_.next_id = [this] { return next_id(); };
  mod_ctx_.next_xid = [this] { return ++xid_counter_; };
  mod_ctx_.evaluator = &evaluator_;
  reset();
}

void AttackExecutor::reset() {
  current_ = attack_.start_index;  // σ_current ← σ_start
  storage_.reset();
}

const std::string& AttackExecutor::current_state_name() const {
  return attack_.states[current_].name;
}

bool AttackExecutor::skip_by_guards(ConnectionId conn, lang::Direction direction,
                                    std::optional<ofp::MsgType> type) {
  if (!use_compiled_) return false;  // oracle mode evaluates every rule
  const auto bucket = rule_buckets_[current_].find(conn);
  if (bucket != rule_buckets_[current_].end()) {
    const dsl::CompiledState& state = attack_.states[current_];
    for (const std::uint32_t rule_index : bucket->second) {
      const dsl::CompiledRule& compiled = state.rules[rule_index];
      if (!compiled.has_programs) return false;  // would tree-walk: not skippable
      const lang::Guard& guard = compiled.program.guard();
      // Shape-level Guard::admits(): direction bit, then undecodable_ok for
      // payload-less frames, then the type bit. Any admitted rule would run.
      if ((guard.direction_mask & (1u << static_cast<unsigned>(direction))) == 0) continue;
      if (!type.has_value()) {
        if (guard.undecodable_ok) return false;
        continue;
      }
      if ((guard.type_mask >> static_cast<unsigned>(*type)) & 1u) return false;
    }
    stats_.rules_skipped_by_guard += bucket->second.size();
  }
  ++stats_.messages_processed;
  return true;
}

ExecutionResult AttackExecutor::process(lang::InFlightMessage msg) {
  ++stats_.messages_processed;
  ExecutionResult result;
  // line 5: msg_out ← [msg_in]. The entry carries msg_in's metadata; the
  // frame stays in `msg`, which the rules read unmodified, and moves over
  // once they are done unless an action copied it to mutate it.
  result.outgoing.push_back(OutMessage{msg.without_frame(), 0, /*frame_pending=*/true});
  run_rules(msg, result);
  if (!result.outgoing.empty() && result.outgoing.front().frame_pending) {
    result.outgoing.front().message.envelope = std::move(msg.envelope);
    result.outgoing.front().frame_pending = false;
  }
  return result;
}

void AttackExecutor::run_rules(const lang::InFlightMessage& msg, ExecutionResult& result) {
  // line 6: σ_previous ← σ_current (rules of the state at arrival apply,
  // even if an earlier rule in the same state transitions away).
  const std::size_t previous = current_;
  const dsl::CompiledState& state = attack_.states[previous];

  const auto bucket = rule_buckets_[previous].find(msg.connection);
  if (bucket == rule_buckets_[previous].end()) return;  // no rule bound to n

  for (const std::uint32_t rule_index : bucket->second) {
    const dsl::CompiledRule& compiled = state.rules[rule_index];
    const lang::Rule& rule = compiled.rule;
    const bool run_program = use_compiled_ && compiled.has_programs;

    // One bitmask test dismisses the whole rule when the message's shape
    // (type x direction x decodability) can't satisfy the conditional — in
    // particular the seed's throw-per-absent-field steady state.
    if (run_program && !compiled.program.guard().admits(msg)) {
      ++stats_.rules_skipped_by_guard;
      continue;
    }
    ++stats_.rules_evaluated;

    // Defence in depth: the compiler already proved required ⊆ granted,
    // but a hand-built CompiledAttack could bypass it.
    if (!capabilities_.allows(rule.connection, compiled.required)) {
      ++stats_.capability_violations;
      if (monitor_.enabled(monitor::EventKind::EvalError)) {
        monitor::Event event;
        event.kind = monitor::EventKind::EvalError;
        event.time = msg.timestamp;
        event.connection = msg.connection;
        event.rule = rule.name;
        event.state = state.name;
        event.detail = "runtime capability violation";
        monitor_.record(std::move(event));
      } else {
        monitor_.tally(monitor::EventKind::EvalError);
      }
      continue;
    }

    lang::EvalContext ectx;
    ectx.message = &msg;
    ectx.storage = &storage_;
    ectx.rng = &rng_;

    bool matched = false;
    if (run_program) {
      ++stats_.programs_executed;
      const lang::ExecStatus status = evaluator_.run_bool(compiled.program, ectx, matched);
      if (status != lang::ExecStatus::Ok) {
        matched = false;
        ++stats_.eval_errors;
        if (monitor_.enabled(monitor::EventKind::EvalError)) {
          monitor::Event event;
          event.kind = monitor::EventKind::EvalError;
          event.time = msg.timestamp;
          event.connection = msg.connection;
          event.message_id = msg.id;
          event.rule = rule.name;
          event.state = state.name;
          event.detail = evaluator_.error_detail(compiled.program, ectx);
          monitor_.record(std::move(event));
        } else {
          monitor_.tally(monitor::EventKind::EvalError);
        }
      }
    } else {
      try {
        matched = lang::evaluate_bool(*rule.conditional, ectx);
      } catch (const std::exception& err) {
        ++stats_.eval_errors;
        if (monitor_.enabled(monitor::EventKind::EvalError)) {
          monitor::Event event;
          event.kind = monitor::EventKind::EvalError;
          event.time = msg.timestamp;
          event.connection = msg.connection;
          event.message_id = msg.id;
          event.rule = rule.name;
          event.state = state.name;
          event.detail = err.what();
          monitor_.record(std::move(event));
        } else {
          monitor_.tally(monitor::EventKind::EvalError);
        }
      }
    }
    if (!matched) continue;

    ++stats_.rules_matched;
    if (monitor_.enabled(monitor::EventKind::RuleMatched)) {
      monitor::Event event;
      event.kind = monitor::EventKind::RuleMatched;
      event.time = msg.timestamp;
      event.connection = msg.connection;
      event.message_id = msg.id;
      if (const ofp::Message* payload = msg.payload()) event.message_type = payload->type();
      event.rule = rule.name;
      event.state = state.name;
      monitor_.record(std::move(event));
    } else {
      monitor_.tally(monitor::EventKind::RuleMatched);
    }

    mod_ctx_.original = &msg;
    mod_ctx_.state_name = state.name.c_str();
    mod_ctx_.rule_name = rule.name.c_str();

    for (std::size_t action_index = 0; action_index < rule.actions.size(); ++action_index) {
      const lang::ActionSpec& action = rule.actions[action_index];
      ++stats_.actions_executed;
      if (const auto* go = std::get_if<lang::ActGoTo>(&action)) {
        const std::size_t target = attack_.state_index(go->state);
        if (target != current_) {
          current_ = target;  // lines 11–12
          ++stats_.state_transitions;
          if (monitor_.enabled(monitor::EventKind::StateTransition)) {
            monitor::Event event;
            event.kind = monitor::EventKind::StateTransition;
            event.time = msg.timestamp;
            event.connection = msg.connection;
            event.rule = rule.name;
            event.state = state.name;
            event.detail = "-> " + go->state;
            monitor_.record(std::move(event));
          } else {
            monitor_.tally(monitor::EventKind::StateTransition);
          }
        }
        continue;
      }
      if (const auto* sleep = std::get_if<lang::ActSleep>(&action)) {
        result.sleep += sleep->duration;
        continue;
      }
      if (const auto* syscmd = std::get_if<lang::ActSysCmd>(&action)) {
        result.syscmds.push_back(SysCmdCall{syscmd->host, syscmd->command});
        if (monitor_.enabled(monitor::EventKind::SysCmd)) {
          monitor::Event event;
          event.kind = monitor::EventKind::SysCmd;
          event.time = msg.timestamp;
          event.rule = rule.name;
          event.state = state.name;
          event.detail = syscmd->host + ": " + syscmd->command;
          monitor_.record(std::move(event));
        } else {
          monitor_.tally(monitor::EventKind::SysCmd);
        }
        continue;
      }
      mod_ctx_.value_program =
          run_program && action_index < compiled.action_programs.size() &&
                  !compiled.action_programs[action_index].empty()
              ? &compiled.action_programs[action_index]
              : nullptr;
      apply_action(action, result.outgoing, mod_ctx_);  // line 14
    }
  }
}

}  // namespace attain::inject
