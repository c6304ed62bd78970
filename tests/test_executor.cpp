#include "attain/inject/executor.hpp"

#include <sstream>

#include <gtest/gtest.h>

#include "attain/dsl/parser.hpp"
#include "ofp/codec.hpp"
#include "scenario/enterprise.hpp"

namespace attain::inject {
namespace {

/// Builds executors from DSL snippets against the enterprise model.
struct Fixture {
  topo::SystemModel model = scenario::make_enterprise_model();
  monitor::Monitor monitor;
  Rng rng{1};
  model::CapabilityMap capabilities;
  std::optional<dsl::CompiledAttack> attack;

  AttackExecutor make(const std::string& source) {
    const dsl::Document doc = dsl::parse_document(source, model);
    capabilities = doc.capabilities;
    attack = dsl::compile(doc.attacks.at(0), model, capabilities);
    return AttackExecutor(*attack, capabilities, monitor, rng);
  }

  lang::InFlightMessage message(const char* sw_name, lang::Direction direction,
                                const ofp::Message& payload) {
    lang::InFlightMessage msg;
    msg.connection = ConnectionId{model.require("c1"), model.require(sw_name)};
    msg.direction = direction;
    if (direction == lang::Direction::ControllerToSwitch) {
      msg.source = msg.connection.controller;
      msg.destination = msg.connection.sw;
    } else {
      msg.source = msg.connection.sw;
      msg.destination = msg.connection.controller;
    }
    msg.id = ++next_id;
    msg.envelope = chan::Envelope(payload);
    return msg;
  }

  ofp::Message flow_mod(std::uint32_t xid = 5) {
    ofp::FlowMod mod;
    mod.match = ofp::Match::wildcard_all();
    mod.idle_timeout = 10;
    mod.actions = ofp::output_to(std::uint16_t{2});
    return ofp::make_message(xid, std::move(mod));
  }

  std::uint64_t next_id{0};
};

TEST(Executor, StartsAtStartState) {
  Fixture fx;
  AttackExecutor exec = fx.make(scenario::connection_interruption_dsl());
  EXPECT_EQ(exec.current_state_name(), "sigma1");
}

TEST(Executor, PassesUnmatchedMessages) {
  Fixture fx;
  AttackExecutor exec = fx.make(scenario::flow_mod_suppression_dsl());
  const auto msg = fx.message("s1", lang::Direction::SwitchToController,
                              ofp::make_message(1, ofp::EchoRequest{}));
  const ExecutionResult result = exec.process(msg);
  ASSERT_EQ(result.outgoing.size(), 1u);
  EXPECT_EQ(result.outgoing[0].message.id, msg.id);
  EXPECT_EQ(exec.stats().rules_matched, 0u);
}

TEST(Executor, DropsMatchedFlowMods) {
  Fixture fx;
  AttackExecutor exec = fx.make(scenario::flow_mod_suppression_dsl());
  const auto msg = fx.message("s2", lang::Direction::ControllerToSwitch, fx.flow_mod());
  const ExecutionResult result = exec.process(msg);
  EXPECT_TRUE(result.outgoing.empty());
  EXPECT_EQ(exec.stats().rules_matched, 1u);
  EXPECT_EQ(fx.monitor.count(monitor::EventKind::MessageDropped), 1u);
}

TEST(Executor, RulesBindToTheirConnection) {
  // The suppression attack has one rule per connection; a FLOW_MOD on
  // (c1, s3) must be caught by φ3 only — and a rule for (c1, s1) must not
  // evaluate against it.
  Fixture fx;
  const std::string source = R"(
attacker { on (c1, s1) grant no_tls; }
attack demo {
  start state s {
    rule phi on (c1, s1) { when msg.type == FLOW_MOD; do { drop(msg); } }
  }
}
)";
  AttackExecutor exec = fx.make(source);
  const auto on_s3 = fx.message("s3", lang::Direction::ControllerToSwitch, fx.flow_mod());
  const ExecutionResult result = exec.process(on_s3);
  EXPECT_EQ(result.outgoing.size(), 1u);  // untouched: rule is for (c1, s1)
  EXPECT_EQ(exec.stats().rules_evaluated, 0u);
}

TEST(Executor, GoToTransitionsState) {
  Fixture fx;
  AttackExecutor exec = fx.make(scenario::connection_interruption_dsl());
  // Connection setup on (c1, s2): FEATURES_REPLY.
  const auto setup = fx.message("s2", lang::Direction::SwitchToController,
                                ofp::make_message(2, ofp::FeaturesReply{}));
  const ExecutionResult r1 = exec.process(setup);
  EXPECT_EQ(r1.outgoing.size(), 1u);  // pass(msg)
  EXPECT_EQ(exec.current_state_name(), "sigma2");
  EXPECT_EQ(exec.stats().state_transitions, 1u);
  EXPECT_EQ(fx.monitor.count(monitor::EventKind::StateTransition), 1u);
}

TEST(Executor, RulesOfArrivalStateApplyEvenAfterTransition) {
  // Algorithm 1 line 6: σ_previous is saved before processing; the
  // message is evaluated against the state it arrived in.
  Fixture fx;
  const std::string source = R"(
attacker { on (c1, s1) grant no_tls; }
attack demo {
  start state a {
    rule go on (c1, s1) { when msg.type == ECHO_REQUEST; do { goto(b); pass(msg); } }
  }
  state b {
    rule dropper on (c1, s1) { when 1; do { drop(msg); } }
  }
}
)";
  AttackExecutor exec = fx.make(source);
  const auto echo = fx.message("s1", lang::Direction::SwitchToController,
                               ofp::make_message(3, ofp::EchoRequest{}));
  const ExecutionResult r = exec.process(echo);
  // The triggering echo is passed (state b's dropper does NOT apply to it).
  EXPECT_EQ(r.outgoing.size(), 1u);
  EXPECT_EQ(exec.current_state_name(), "b");
  // The next message is dropped by state b.
  const ExecutionResult r2 = exec.process(echo);
  EXPECT_TRUE(r2.outgoing.empty());
}

TEST(Executor, InterruptionAttackFullSequence) {
  Fixture fx;
  AttackExecutor exec = fx.make(scenario::connection_interruption_dsl());
  // 1. Setup message moves σ1 → σ2.
  exec.process(fx.message("s2", lang::Direction::SwitchToController,
                          ofp::make_message(2, ofp::FeaturesReply{})));
  ASSERT_EQ(exec.current_state_name(), "sigma2");

  // 2. An unrelated FLOW_MOD (h6-sourced match) passes and stays in σ2.
  ofp::FlowMod unrelated;
  unrelated.match = ofp::Match::wildcard_all();
  unrelated.match.nw_src = pkt::Ipv4Address::parse("10.0.0.6");
  unrelated.match.set_nw_src_wild_bits(0);
  unrelated.match.nw_dst = pkt::Ipv4Address::parse("10.0.0.1");
  unrelated.match.set_nw_dst_wild_bits(0);
  const auto r2 = exec.process(fx.message("s2", lang::Direction::ControllerToSwitch,
                                          ofp::make_message(4, unrelated)));
  EXPECT_EQ(r2.outgoing.size(), 1u);
  EXPECT_EQ(exec.current_state_name(), "sigma2");

  // 3. The φ2 trigger: FLOW_MOD whose match is h2 → internal host.
  ofp::FlowMod trigger;
  trigger.match = ofp::Match::wildcard_all();
  trigger.match.nw_src = pkt::Ipv4Address::parse("10.0.0.2");
  trigger.match.set_nw_src_wild_bits(0);
  trigger.match.nw_dst = pkt::Ipv4Address::parse("10.0.0.3");
  trigger.match.set_nw_dst_wild_bits(0);
  const auto r3 = exec.process(fx.message("s2", lang::Direction::ControllerToSwitch,
                                          ofp::make_message(5, trigger)));
  EXPECT_TRUE(r3.outgoing.empty());  // dropped
  EXPECT_EQ(exec.current_state_name(), "sigma3");

  // 4. σ3 black-holes everything on (c1, s2)...
  const auto r4 = exec.process(fx.message("s2", lang::Direction::SwitchToController,
                                          ofp::make_message(6, ofp::EchoRequest{})));
  EXPECT_TRUE(r4.outgoing.empty());
  // ...but other connections still pass.
  const auto r5 = exec.process(fx.message("s1", lang::Direction::SwitchToController,
                                          ofp::make_message(7, ofp::EchoRequest{})));
  EXPECT_EQ(r5.outgoing.size(), 1u);
}

TEST(Executor, RyuStyleFlowModDoesNotTriggerPhi2) {
  // The Table II explanation: Ryu's match wildcards nw_src/nw_dst, so φ2's
  // conditional never sees h2's address.
  Fixture fx;
  AttackExecutor exec = fx.make(scenario::connection_interruption_dsl());
  exec.process(fx.message("s2", lang::Direction::SwitchToController,
                          ofp::make_message(2, ofp::FeaturesReply{})));
  ASSERT_EQ(exec.current_state_name(), "sigma2");

  ofp::FlowMod ryu_mod;
  ryu_mod.match = ofp::Match::l2_only(1, pkt::MacAddress::from_u64(2),
                                      pkt::MacAddress::from_u64(3));
  const auto r = exec.process(fx.message("s2", lang::Direction::ControllerToSwitch,
                                         ofp::make_message(5, ryu_mod)));
  EXPECT_EQ(r.outgoing.size(), 1u);              // passed through
  EXPECT_EQ(exec.current_state_name(), "sigma2");  // attack stuck in σ2 forever
}

TEST(Executor, CounterIdiomAcrossMessages) {
  // Drop every message after the third (deque-counter threshold, §VIII-B).
  Fixture fx;
  const std::string source = R"(
attacker { on (c1, s1) grant no_tls; }
attack count_then_drop {
  deque counter = [0];
  start state s {
    rule tally on (c1, s1) {
      when examine_front(counter) < 3;
      do { prepend(counter, examine_front(counter) + 1); pass(msg); }
    }
    rule dropper on (c1, s1) {
      when examine_front(counter) >= 3;
      do { drop(msg); }
    }
  }
}
)";
  AttackExecutor exec = fx.make(source);
  // Rules within a state share storage and evaluate in definition order:
  // the message that advances the counter to 3 is immediately caught by
  // `dropper` in the same pass, so exactly two messages survive.
  int passed = 0;
  for (int i = 0; i < 6; ++i) {
    const auto msg = fx.message("s1", lang::Direction::SwitchToController,
                                ofp::make_message(1, ofp::EchoRequest{}));
    const ExecutionResult r = exec.process(msg);
    if (!r.outgoing.empty()) ++passed;
  }
  EXPECT_EQ(passed, 2);
  EXPECT_EQ(std::get<std::int64_t>(exec.storage().examine_front("counter")), 3);
}

TEST(Executor, SleepAndSysCmdSurfaceInResult) {
  Fixture fx;
  const std::string source = R"(
attacker { on (c1, s1) grant no_tls; }
attack demo {
  start state s {
    rule phi on (c1, s1) {
      when 1;
      do { sleep(2 s); syscmd(h6, "iperf -s"); pass(msg); }
    }
  }
}
)";
  AttackExecutor exec = fx.make(source);
  const auto msg = fx.message("s1", lang::Direction::SwitchToController,
                              ofp::make_message(1, ofp::EchoRequest{}));
  const ExecutionResult r = exec.process(msg);
  EXPECT_EQ(r.sleep, 2 * kSecond);
  ASSERT_EQ(r.syscmds.size(), 1u);
  EXPECT_EQ(r.syscmds[0].host, "h6");
  EXPECT_EQ(r.syscmds[0].command, "iperf -s");
  EXPECT_EQ(r.outgoing.size(), 1u);
}

TEST(Executor, GuardSkipsRuleWhoseFieldCannotExist) {
  Fixture fx;
  const std::string source = R"(
attacker { on (c1, s1) grant no_tls; }
attack demo {
  start state s {
    rule phi on (c1, s1) { when msg.field("buffer_id") == 1; do { drop(msg); } }
  }
}
)";
  AttackExecutor exec = fx.make(source);
  // ECHO_REQUEST has no buffer_id: the compiled guard proves the conditional
  // can only raise, so the rule is dismissed without evaluating — no
  // EvalError event, no exception, message passes untouched.
  const auto msg = fx.message("s1", lang::Direction::SwitchToController,
                              ofp::make_message(1, ofp::EchoRequest{}));
  const ExecutionResult r = exec.process(msg);
  EXPECT_EQ(r.outgoing.size(), 1u);
  EXPECT_EQ(exec.stats().rules_skipped_by_guard, 1u);
  EXPECT_EQ(exec.stats().rules_evaluated, 0u);
  EXPECT_EQ(exec.stats().eval_errors, 0u);
  EXPECT_EQ(fx.monitor.count(monitor::EventKind::EvalError), 0u);
}

TEST(Executor, EvalErrorTreatedAsNoMatchInOracleMode) {
  Fixture fx;
  const std::string source = R"(
attacker { on (c1, s1) grant no_tls; }
attack demo {
  start state s {
    rule phi on (c1, s1) { when msg.field("buffer_id") == 1; do { drop(msg); } }
  }
}
)";
  AttackExecutor exec = fx.make(source);
  exec.set_use_compiled(false);  // tree-walk oracle: no guard, throws + catches
  // ECHO_REQUEST has no buffer_id: conditional raises, message passes.
  const auto msg = fx.message("s1", lang::Direction::SwitchToController,
                              ofp::make_message(1, ofp::EchoRequest{}));
  const ExecutionResult r = exec.process(msg);
  EXPECT_EQ(r.outgoing.size(), 1u);
  EXPECT_EQ(exec.stats().rules_skipped_by_guard, 0u);
  EXPECT_EQ(exec.stats().eval_errors, 1u);
  EXPECT_EQ(fx.monitor.count(monitor::EventKind::EvalError), 1u);
}

TEST(Executor, CompiledAndOracleAgreeOnSuppressionAttack) {
  // Same message sequence through a compiled-path executor and an oracle
  // executor: identical outgoing counts, match counts, and state.
  const std::string source = scenario::flow_mod_suppression_dsl();
  Fixture fx_prog;
  Fixture fx_tree;
  AttackExecutor prog = fx_prog.make(source);
  AttackExecutor tree = fx_tree.make(source);
  tree.set_use_compiled(false);
  for (int i = 0; i < 50; ++i) {
    const auto msg_p = fx_prog.message("s1", lang::Direction::ControllerToSwitch,
                                       i % 3 == 0 ? fx_prog.flow_mod()
                                                  : ofp::make_message(i, ofp::EchoRequest{}));
    const auto msg_t = fx_tree.message("s1", lang::Direction::ControllerToSwitch,
                                       i % 3 == 0 ? fx_tree.flow_mod()
                                                  : ofp::make_message(i, ofp::EchoRequest{}));
    const ExecutionResult rp = prog.process(msg_p);
    const ExecutionResult rt = tree.process(msg_t);
    EXPECT_EQ(rp.outgoing.size(), rt.outgoing.size()) << "message " << i;
  }
  EXPECT_EQ(prog.stats().rules_matched, tree.stats().rules_matched);
  EXPECT_EQ(prog.stats().state_transitions, tree.stats().state_transitions);
  EXPECT_EQ(prog.current_state_name(), tree.current_state_name());
  EXPECT_GT(prog.stats().programs_executed, 0u);
  EXPECT_EQ(tree.stats().programs_executed, 0u);
}

TEST(Executor, RulesOnOtherConnectionsNeverEvaluated) {
  Fixture fx;
  const std::string source = R"(
attacker { on (c1, s1) grant no_tls; on (c1, s2) grant no_tls; }
attack demo {
  start state s {
    rule phi1 on (c1, s1) { when 1; do { drop(msg); } }
    rule phi2 on (c1, s2) { when 1; do { drop(msg); } }
  }
}
)";
  AttackExecutor exec = fx.make(source);
  // A message on (c1, s1) must only ever see phi1: the per-connection rule
  // bucket dismisses phi2 without counting it as evaluated or skipped.
  const auto msg = fx.message("s1", lang::Direction::SwitchToController,
                              ofp::make_message(1, ofp::EchoRequest{}));
  exec.process(msg);
  EXPECT_EQ(exec.stats().rules_evaluated, 1u);
  EXPECT_EQ(exec.stats().rules_skipped_by_guard, 0u);
  EXPECT_EQ(exec.stats().rules_matched, 1u);
}

TEST(Executor, RuntimeCapabilityDefenceInDepth) {
  Fixture fx;
  AttackExecutor exec = fx.make(scenario::flow_mod_suppression_dsl());
  // Sabotage the capability map after compilation: runtime check refuses.
  fx.capabilities = model::CapabilityMap{};  // all grants revoked
  const auto msg = fx.message("s1", lang::Direction::ControllerToSwitch, fx.flow_mod());
  const ExecutionResult r = exec.process(msg);
  EXPECT_EQ(r.outgoing.size(), 1u);  // not dropped: rule refused
  EXPECT_EQ(exec.stats().capability_violations, 1u);
}

TEST(Executor, ResetRestoresStartStateAndStorage) {
  Fixture fx;
  AttackExecutor exec = fx.make(scenario::connection_interruption_dsl());
  exec.process(fx.message("s2", lang::Direction::SwitchToController,
                          ofp::make_message(2, ofp::FeaturesReply{})));
  EXPECT_EQ(exec.current_state_name(), "sigma2");
  exec.reset();
  EXPECT_EQ(exec.current_state_name(), "sigma1");
}

TEST(Executor, DuplicateAppendsCopy) {
  Fixture fx;
  const std::string source = R"(
attacker { on (c1, s1) grant no_tls; }
attack demo {
  start state s {
    rule phi on (c1, s1) { when msg.type == ECHO_REQUEST; do { duplicate(msg); } }
  }
}
)";
  AttackExecutor exec = fx.make(source);
  const auto msg = fx.message("s1", lang::Direction::SwitchToController,
                              ofp::make_message(1, ofp::EchoRequest{}));
  const ExecutionResult r = exec.process(msg);
  ASSERT_EQ(r.outgoing.size(), 2u);
  EXPECT_EQ(r.outgoing[0].message.wire(), r.outgoing[1].message.wire());
  EXPECT_NE(r.outgoing[0].message.id, r.outgoing[1].message.id);
}

// ---------------------------------------------------------------------------
// Ownership: process() takes msg_in by value. Handing over the message must
// give exactly what handing over a copy gives, and no action may reach the
// caller's copy of msg_in.
// ---------------------------------------------------------------------------

std::string render_message(const lang::InFlightMessage& m) {
  std::ostringstream out;
  out << "id=" << m.id << " conn=" << m.connection.sw.index
      << " dir=" << static_cast<int>(m.direction) << " src=" << m.source.index
      << " dst=" << m.destination.index << " t=" << m.timestamp << " tls=" << m.tls
      << " len=" << m.length() << " wire=" << to_hex(m.wire());
  return out.str();
}

std::vector<std::string> render_outgoing(const ExecutionResult& result) {
  std::vector<std::string> lines;
  for (const OutMessage& out : result.outgoing) {
    EXPECT_FALSE(out.frame_pending);  // process() settles every entry
    lines.push_back(render_message(out.message) + " delay=" + std::to_string(out.delay));
  }
  return lines;
}

/// Every deque's contents, front to back (a copy of the store is drained).
std::vector<std::string> render_deques(const lang::DequeStore& storage) {
  lang::DequeStore drained = storage;
  std::vector<std::string> lines;
  for (const std::string& name : drained.names()) {
    while (!drained.empty(name)) {
      const lang::Value value = drained.shift(name);
      if (const auto* stored = std::get_if<lang::StoredMessage>(&value)) {
        lines.push_back(name + ": " + render_message(**stored));
      } else if (const auto* number = std::get_if<std::int64_t>(&value)) {
        lines.push_back(name + ": " + std::to_string(*number));
      } else {
        lines.push_back(name + ": " + std::get<std::string>(value));
      }
    }
  }
  return lines;
}

std::string one_rule_attack(const std::string& actions) {
  return R"(
attacker { on (c1, s1) grant no_tls; on (c1, s3) grant no_tls; }
attack demo {
  deque q;
  start state s {
    rule phi on (c1, s1) { when msg.type == FLOW_MOD; do { )" +
         actions + R"( } }
  }
}
)";
}

TEST(ExecutorOwnership, HandingOverEqualsHandingOverACopyForEveryTableIAction) {
  const std::vector<std::string> action_lists = {
      "drop(msg);",
      "pass(msg);",
      "delay(msg, 2 ms);",
      "duplicate(msg);",
      "modify(msg, \"idle_timeout\", 77);",
      "redirect(msg, s3);",
      "fuzz(msg, 16);",
      "inject(hello, to_switch);",
      "append(q, msg); peek_send_front(q);",
      "append(q, msg); send_end(q);",
      "append(q, msg);",
      "prepend(q, msg);",
      "delay(msg, 1 ms); duplicate(msg); modify(msg, \"priority\", 9); fuzz(msg, 4);",
      "drop(msg); duplicate(msg); append(q, msg); peek_send_front(q);",
  };
  for (const std::string& actions : action_lists) {
    for (const bool wire_origin : {false, true}) {
      SCOPED_TRACE(actions + (wire_origin ? " (wire origin)" : " (typed origin)"));
      Fixture by_copy;
      Fixture by_move;
      AttackExecutor copy_exec = by_copy.make(one_rule_attack(actions));
      AttackExecutor move_exec = by_move.make(one_rule_attack(actions));
      for (const std::uint32_t xid : {5u, 6u}) {
        lang::InFlightMessage kept = by_copy.message(
            "s1", lang::Direction::ControllerToSwitch, by_copy.flow_mod(xid));
        lang::InFlightMessage handed = by_move.message(
            "s1", lang::Direction::ControllerToSwitch, by_move.flow_mod(xid));
        if (wire_origin) {
          kept.envelope = chan::Envelope(ofp::encode(by_copy.flow_mod(xid)));
          handed.envelope = chan::Envelope(ofp::encode(by_move.flow_mod(xid)));
        }
        const std::string kept_before = render_message(kept);

        const ExecutionResult from_copy = copy_exec.process(kept);
        const ExecutionResult from_move = move_exec.process(std::move(handed));
        EXPECT_EQ(render_outgoing(from_copy), render_outgoing(from_move));
        EXPECT_EQ(render_message(kept), kept_before);  // the caller's msg_in is untouched
      }
      EXPECT_EQ(render_deques(copy_exec.storage()), render_deques(move_exec.storage()));
      EXPECT_EQ(by_copy.monitor.to_csv(), by_move.monitor.to_csv());
      EXPECT_GT(by_copy.monitor.count(monitor::EventKind::RuleMatched), 0u);
    }
  }
}

std::uint16_t idle_timeout_of(const lang::InFlightMessage& m) {
  return ofp::decode(m.wire()).as<ofp::FlowMod>().idle_timeout;
}

TEST(ExecutorOwnership, StoredSnapshotNeverSeesALaterOrEarlierModify) {
  // append/prepend store a snapshot of msg_in (Algorithm 1), which no
  // action mutates: the modify reaches msg_out only, in either order.
  for (const std::string actions :
       {"append(q, msg); modify(msg, \"idle_timeout\", 77);",
        "modify(msg, \"idle_timeout\", 77); append(q, msg);"}) {
    SCOPED_TRACE(actions);
    Fixture fx;
    AttackExecutor exec = fx.make(one_rule_attack(actions));
    const ExecutionResult result = exec.process(
        fx.message("s1", lang::Direction::ControllerToSwitch, fx.flow_mod()));
    ASSERT_EQ(result.outgoing.size(), 1u);
    EXPECT_EQ(idle_timeout_of(result.outgoing[0].message), 77);
    const lang::Value stored = exec.storage().examine_front("q");
    EXPECT_EQ(idle_timeout_of(*std::get<lang::StoredMessage>(stored)), 10);
  }
}

TEST(ExecutorOwnership, DuplicateCopiesMsgInNotTheModifiedOutgoingFrame) {
  Fixture fx;
  AttackExecutor exec = fx.make(
      one_rule_attack("modify(msg, \"idle_timeout\", 77); duplicate(msg);"));
  const ExecutionResult result =
      exec.process(fx.message("s1", lang::Direction::ControllerToSwitch, fx.flow_mod()));
  ASSERT_EQ(result.outgoing.size(), 2u);
  EXPECT_EQ(idle_timeout_of(result.outgoing[0].message), 77);
  EXPECT_EQ(idle_timeout_of(result.outgoing[1].message), 10);  // the duplicate is msg_in's
}

TEST(ExecutorOwnership, ModifyAfterDuplicateRewritesEveryOutgoingEntry) {
  // modify applies to every msg_out entry, so a duplicate made before it is
  // rewritten too; its frame is its own copy, not msg_in's.
  Fixture fx;
  AttackExecutor exec = fx.make(
      one_rule_attack("duplicate(msg); modify(msg, \"idle_timeout\", 77); append(q, msg);"));
  const ExecutionResult result =
      exec.process(fx.message("s1", lang::Direction::ControllerToSwitch, fx.flow_mod()));
  ASSERT_EQ(result.outgoing.size(), 2u);
  EXPECT_EQ(idle_timeout_of(result.outgoing[0].message), 77);
  EXPECT_EQ(idle_timeout_of(result.outgoing[1].message), 77);
  const lang::Value stored = exec.storage().examine_front("q");
  EXPECT_EQ(idle_timeout_of(*std::get<lang::StoredMessage>(stored)), 10);
}

}  // namespace
}  // namespace attain::inject
