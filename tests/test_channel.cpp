// chan:: pipeline tests: envelope cache coherence (decode-once, lazy
// re-encode, seal/unseal), the fuzzed-corpus round-trip property, exact
// wire sizes without encoding, the
// shared ingress helper, stage composition, and the codec-op savings the
// decode-once path buys on the paper's Table II scenario.
#include "chan/channel.hpp"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "ofp/fuzz.hpp"
#include "scenario/run.hpp"
#include "swsim/switch.hpp"

namespace attain::chan {
namespace {

ofp::Message sample_flow_mod(std::uint32_t xid = 9) {
  ofp::FlowMod mod;
  mod.match = ofp::Match::wildcard_all();
  mod.idle_timeout = 10;
  mod.actions = ofp::output_to(std::uint16_t{2});
  return ofp::make_message(xid, std::move(mod));
}

/// Codec invocations since `before`.
std::uint64_t ops_since(const ofp::CodecOpCounters& before) {
  return ofp::codec_ops().total() - before.total();
}

// ---------------------------------------------------------------------------
// Envelope cache coherence.
// ---------------------------------------------------------------------------

TEST(Envelope, TypedOriginPaysOneEncodeLazily) {
  Envelope env(sample_flow_mod());
  EXPECT_TRUE(env.has_message());
  EXPECT_FALSE(env.has_wire());

  const auto before = ofp::codec_ops();
  const Bytes& wire = env.wire();
  EXPECT_FALSE(wire.empty());
  EXPECT_EQ(ops_since(before), 1u);  // the encode
  env.wire();
  env.message();
  EXPECT_EQ(ops_since(before), 1u);  // both views now cached
}

TEST(Envelope, WireOriginDecodesExactlyOnce) {
  const Bytes frame = ofp::encode(sample_flow_mod());
  Envelope env(frame);
  EXPECT_TRUE(env.has_wire());
  EXPECT_FALSE(env.has_message());

  const auto before = ofp::codec_ops();
  ASSERT_NE(env.message(), nullptr);
  EXPECT_EQ(env.message()->xid, 9u);
  env.message();
  EXPECT_EQ(ops_since(before), 1u);  // the decode, cached afterwards
  EXPECT_EQ(env.wire(), frame);      // original bytes, no re-encode
  EXPECT_EQ(ops_since(before), 1u);
}

TEST(Envelope, EmptyEnvelopeIsInert) {
  Envelope env;
  EXPECT_EQ(env.message(), nullptr);
  EXPECT_TRUE(env.wire().empty());
  EXPECT_FALSE(env.decode_failed());
}

TEST(Envelope, MutatingMessageInvalidatesWire) {
  Envelope env(Bytes(ofp::encode(sample_flow_mod(1))));
  ASSERT_NE(env.message(), nullptr);
  const Bytes before = env.wire();

  env.mutable_message()->xid = 77;
  const Bytes& after = env.wire();
  EXPECT_NE(after, before);
  EXPECT_EQ(ofp::decode(after).xid, 77u);
}

TEST(Envelope, MutatingWireInvalidatesMessage) {
  Envelope env(sample_flow_mod(5));
  ASSERT_NE(env.message(), nullptr);
  env.wire();  // materialize

  // ofp_header xid lives at bytes [4,8).
  env.mutable_wire()[7] = 42;
  ASSERT_NE(env.message(), nullptr);
  EXPECT_EQ(env.message()->xid, 42u);
}

TEST(Envelope, DecodeFailureIsStickyPerWireGeneration) {
  Bytes garbage = ofp::encode(sample_flow_mod());
  garbage[0] = 0x09;  // wrong version
  Envelope env(garbage);

  const auto before = ofp::codec_ops();
  EXPECT_EQ(env.message(), nullptr);
  EXPECT_EQ(env.message(), nullptr);
  EXPECT_EQ(ops_since(before), 1u);  // one failed attempt, then cached
  EXPECT_TRUE(env.decode_failed());
  EXPECT_FALSE(env.decode_error().empty());
  EXPECT_EQ(env.wire(), garbage);  // undecodable bytes pass through intact

  // A new wire generation retries the decode.
  env.mutable_wire()[0] = 0x01;
  EXPECT_NE(env.message(), nullptr);
  EXPECT_FALSE(env.decode_failed());
}

TEST(Envelope, SealHidesMessageWithoutDiscardingCache) {
  Envelope env(sample_flow_mod());
  ASSERT_NE(env.message(), nullptr);
  env.wire();  // both views cached

  env.seal();
  EXPECT_EQ(env.message(), nullptr);
  EXPECT_EQ(env.mutable_message(), nullptr);
  EXPECT_FALSE(env.wire().empty());  // ciphertext-sized frame stays visible

  const auto before = ofp::codec_ops();
  env.unseal();
  ASSERT_NE(env.message(), nullptr);
  EXPECT_EQ(ops_since(before), 0u);  // cache survived the seal
}

// ---------------------------------------------------------------------------
// Fuzzed-corpus round-trip property: decode -> mutate -> lazy re-encode
// matches a direct ofp::encode of the mutated message, and an unmutated
// envelope always returns its original bytes.
// ---------------------------------------------------------------------------

/// Pristine frames of a few types plus bit-flipped variants, some of which
/// still decode.
std::vector<Bytes> fuzzed_corpus(std::size_t& pristine_count) {
  Rng rng(0xc0ffee);
  std::vector<Bytes> corpus;
  corpus.push_back(ofp::encode(ofp::make_message(1, ofp::Hello{})));
  corpus.push_back(ofp::encode(ofp::make_message(2, ofp::EchoRequest{{1, 2, 3}})));
  corpus.push_back(ofp::encode(ofp::make_message(3, ofp::BarrierRequest{})));
  corpus.push_back(ofp::encode(sample_flow_mod(4)));
  ofp::PacketOut out;
  out.in_port = 1;
  out.actions = ofp::output_to(std::uint16_t{3});
  corpus.push_back(ofp::encode(ofp::make_message(5, std::move(out))));
  // Fuzzed variants: some decode, some do not — both paths must hold.
  const std::size_t pristine = corpus.size();
  for (std::size_t i = 0; i < pristine; ++i) {
    for (int round = 0; round < 8; ++round) {
      Bytes mutated = corpus[i];
      ofp::FuzzOptions options;
      options.bit_flips = 1 + static_cast<unsigned>(round);
      options.preserve_header = (round % 2) == 0;
      ofp::fuzz_frame(mutated, rng, options);
      corpus.push_back(std::move(mutated));
    }
  }
  pristine_count = pristine;
  return corpus;
}

TEST(Envelope, FuzzedCorpusRoundTripProperty) {
  std::size_t pristine = 0;
  const std::vector<Bytes> corpus = fuzzed_corpus(pristine);

  std::size_t decodable = 0;
  for (const Bytes& frame : corpus) {
    // Unmutated envelope: wire() must return the original bytes whether or
    // not the frame decodes.
    Envelope untouched(frame);
    untouched.message();
    EXPECT_EQ(untouched.wire(), frame);

    Envelope env(frame);
    if (env.message() == nullptr) {
      EXPECT_TRUE(env.decode_failed());
      continue;
    }
    ++decodable;
    env.mutable_message()->xid += 1000;
    EXPECT_EQ(env.wire(), ofp::encode(*env.message()));
  }
  EXPECT_GE(decodable, pristine);  // at least every pristine frame decodes
}

// ---------------------------------------------------------------------------
// Exact size without encoding: ofp::wire_size(m) == ofp::encode(m).size() for
// every message type, and a typed envelope answers wire_size() with no codec
// call.
// ---------------------------------------------------------------------------

/// One action of every OF1.0 type (8- and 16-byte encodings).
ofp::ActionList every_action() {
  ofp::ActionList actions;
  actions.push_back(ofp::ActionOutput{3, 0xffff});
  actions.push_back(ofp::ActionSetVlanVid{7});
  actions.push_back(ofp::ActionSetVlanPcp{2});
  actions.push_back(ofp::ActionStripVlan{});
  actions.push_back(ofp::ActionSetDlSrc{pkt::MacAddress::from_u64(0x11)});
  actions.push_back(ofp::ActionSetDlDst{pkt::MacAddress::from_u64(0x22)});
  actions.push_back(ofp::ActionSetNwSrc{pkt::Ipv4Address{0x0a000001}});
  actions.push_back(ofp::ActionSetNwDst{pkt::Ipv4Address{0x0a000002}});
  actions.push_back(ofp::ActionSetNwTos{0x10});
  actions.push_back(ofp::ActionSetTpSrc{80});
  actions.push_back(ofp::ActionSetTpDst{443});
  actions.push_back(ofp::ActionEnqueue{1, 9});
  return actions;
}

/// Every message type, every StatsRequest/StatsReply body, and the empty
/// and the largest (exactly 64 KiB - 1 on the wire) payload of each
/// variable-length type.
std::vector<ofp::Message> every_message_shape() {
  using namespace ofp;
  constexpr std::size_t kMaxWire = 0xffff;
  std::vector<Message> msgs;
  std::uint32_t xid = 1;
  auto add = [&](Body body) { msgs.push_back(Message{xid++, std::move(body)}); };

  add(Hello{});
  add(Error{ErrorType::BadRequest, 1, {}});
  add(Error{ErrorType::FlowModFailed, 3, Bytes(kMaxWire - 12, 0xee)});
  add(EchoRequest{{}});
  add(EchoRequest{Bytes(kMaxWire - 8, 1)});
  add(EchoReply{{}});
  add(EchoReply{Bytes(kMaxWire - 8, 2)});
  add(Vendor{0x2320, {}});
  add(Vendor{0x2320, Bytes(kMaxWire - 12, 3)});
  add(FeaturesRequest{});
  for (const std::size_t ports : {std::size_t{0}, std::size_t{4}, (kMaxWire - 32) / 48}) {
    FeaturesReply reply;
    reply.datapath_id = 0xabc;
    for (std::size_t i = 0; i < ports; ++i) {
      PhyPort port;
      port.port_no = static_cast<std::uint16_t>(i + 1);
      port.name = i % 2 == 0 ? "eth" + std::to_string(i) : std::string(40, 'x');  // truncated
      reply.ports.push_back(port);
    }
    add(std::move(reply));
  }
  add(GetConfigRequest{});
  add(GetConfigReply{0, 128});
  add(SetConfig{0, 128});
  for (const std::size_t data : {std::size_t{0}, std::size_t{60}, kMaxWire - 18}) {
    PacketIn pin;
    pin.data = Bytes(data, 4);
    pin.total_len = static_cast<std::uint16_t>(data);
    add(std::move(pin));
  }
  add(FlowRemoved{});
  {
    PortStatus status;
    status.desc.name = "s1-eth1";
    add(std::move(status));
  }
  {
    PacketOut out;
    add(out);
    out.actions = every_action();
    add(out);
    out.data = Bytes(kMaxWire - 16 - actions_wire_size(out.actions), 5);
    add(std::move(out));
  }
  {
    FlowMod mod;
    add(mod);
    mod.actions = every_action();
    add(std::move(mod));
  }
  add(PortMod{});
  add(StatsRequest{0, DescStatsRequest{}});
  add(StatsRequest{0, FlowStatsRequest{}});
  add(StatsRequest{0, AggregateStatsRequest{}});
  add(StatsRequest{0, PortStatsRequest{1}});
  {
    DescStats desc;
    desc.mfr_desc = "ATTAIN";
    desc.serial_num = std::string(64, 's');  // longer than its 32-byte field
    add(StatsReply{0, desc});
  }
  add(StatsReply{0, std::vector<FlowStatsEntry>{}});
  {
    std::vector<FlowStatsEntry> entries(3);
    entries[1].actions = every_action();
    entries[2].actions = ofp::output_to(std::uint16_t{2});
    add(StatsReply{0, std::move(entries)});
  }
  add(StatsReply{0, AggregateStats{100, 15000, 3}});
  add(StatsReply{0, std::vector<PortStatsEntry>{}});
  add(StatsReply{0, std::vector<PortStatsEntry>((kMaxWire - 12) / 56)});
  add(BarrierRequest{});
  add(BarrierReply{});
  return msgs;
}

TEST(WireSize, MatchesEncodeForEveryMessageShape) {
  std::set<ofp::MsgType> types;
  std::size_t largest = 0;
  for (const ofp::Message& message : every_message_shape()) {
    types.insert(message.type());
    const std::size_t size = ofp::wire_size(message);
    EXPECT_EQ(size, ofp::encode(message).size()) << message.summary();
    largest = std::max(largest, size);
  }
  EXPECT_EQ(types.size(), static_cast<std::size_t>(ofp::MsgType::BarrierReply) + 1);
  EXPECT_EQ(largest, 0xffffu);  // the maximal payloads sit exactly at the limit
}

TEST(WireSize, ThrowsWhereEncodeThrows) {
  using namespace ofp;
  std::vector<Message> oversize;
  oversize.push_back(make_message(1, EchoRequest{Bytes(0xffff - 7, 1)}));  // one byte over
  oversize.push_back(make_message(2, Error{ErrorType::BadRequest, 0, Bytes(0xffff - 11, 0)}));
  oversize.push_back(make_message(3, Vendor{1, Bytes(0x10000, 0)}));
  PacketIn pin;
  pin.data = Bytes(0xffff - 17, 0);
  oversize.push_back(make_message(4, std::move(pin)));
  FeaturesReply features;
  features.ports.resize((0xffff - 32) / 48 + 1);
  oversize.push_back(make_message(5, std::move(features)));
  oversize.push_back(
      make_message(6, StatsReply{0, std::vector<PortStatsEntry>((0xffff - 12) / 56 + 1)}));
  std::vector<FlowStatsEntry> flows((0xffff - 12) / 88 + 1);
  oversize.push_back(make_message(7, StatsReply{0, std::move(flows)}));
  for (const Message& message : oversize) {
    EXPECT_THROW(wire_size(message), std::length_error) << message.summary();
    EXPECT_THROW(encode(message), std::length_error) << message.summary();
    EXPECT_THROW(chan::Envelope(message).wire_size(), std::length_error) << message.summary();
  }
}

TEST(WireSize, MatchesEncodeOverTheFuzzedCorpus) {
  std::size_t pristine = 0;
  std::size_t decodable = 0;
  for (const Bytes& frame : fuzzed_corpus(pristine)) {
    Envelope raw(frame);
    EXPECT_EQ(raw.wire_size(), frame.size());  // raw origin: the bytes' own size
    const ofp::Message* message = raw.message();
    if (message == nullptr) continue;
    ++decodable;
    EXPECT_EQ(ofp::wire_size(*message), ofp::encode(*message).size());
    EXPECT_EQ(Envelope(*message).wire_size(), ofp::encode(*message).size());
  }
  EXPECT_GE(decodable, pristine);
}

TEST(WireSize, TypedEnvelopeAnswersWithoutCodecOps) {
  for (const ofp::Message& message : every_message_shape()) {
    Envelope env(message);
    const auto before = ofp::codec_ops();
    const std::size_t size = env.wire_size();
    EXPECT_EQ(ops_since(before), 0u) << message.summary();
    EXPECT_FALSE(env.has_wire());  // still no bytes
    EXPECT_EQ(size, env.wire().size());
  }
  // A mutated typed view is sized from the edit, a mutated wire from the
  // bytes.
  Envelope edited(sample_flow_mod());
  edited.wire();
  std::get<ofp::FlowMod>(edited.mutable_message()->body).actions = every_action();
  const auto before = ofp::codec_ops();
  EXPECT_EQ(edited.wire_size(), 72u + ofp::actions_wire_size(every_action()));
  EXPECT_EQ(ops_since(before), 0u);
  Envelope fuzzed(sample_flow_mod());
  fuzzed.mutable_wire().push_back(0);
  EXPECT_EQ(fuzzed.wire_size(), ofp::encode(sample_flow_mod()).size() + 1);
  EXPECT_EQ(Envelope().wire_size(), 0u);
}

// ---------------------------------------------------------------------------
// Shared endpoint-ingress helper.
// ---------------------------------------------------------------------------

TEST(IngressDecode, ReturnsMessageAndLeavesCounterAlone) {
  Envelope env(sample_flow_mod());
  std::uint64_t errors = 0;
  const ofp::Message* msg = ingress_decode(env, "test", errors);
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->type(), ofp::MsgType::FlowMod);
  EXPECT_EQ(errors, 0u);
}

TEST(IngressDecode, CountsAndReportsUndecodableFrames) {
  Bytes garbage = ofp::encode(sample_flow_mod());
  garbage[0] = 0x09;
  Envelope env(std::move(garbage));
  std::uint64_t errors = 0;
  EXPECT_EQ(ingress_decode(env, "test", errors, "conn 3"), nullptr);
  EXPECT_EQ(errors, 1u);
}

TEST(IngressDecode, UnsealsBeforeDecoding) {
  Envelope env(sample_flow_mod());
  env.wire();
  env.seal();
  std::uint64_t errors = 0;
  EXPECT_NE(ingress_decode(env, "test", errors), nullptr);
  EXPECT_EQ(errors, 0u);
}

TEST(IngressDecode, SwitchStillAnswersGarbageWithBadRequest) {
  // The deduped helper must preserve the switch's error-reply behavior.
  sim::Scheduler sched;
  swsim::SwitchConfig config;
  config.name = "s1";
  swsim::OpenFlowSwitch sw(sched, config);
  std::vector<ofp::Message> replies;
  sw.set_control_sender([&](Envelope e) {
    ASSERT_NE(e.message(), nullptr);
    replies.push_back(*e.message());
  });

  Bytes garbage = ofp::encode(ofp::make_message(1, ofp::BarrierRequest{}));
  garbage[0] = 0x09;
  sw.on_control_envelope(Envelope(std::move(garbage)));
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_EQ(replies[0].type(), ofp::MsgType::Error);
  EXPECT_EQ(replies[0].as<ofp::Error>().type, ofp::ErrorType::BadRequest);
  EXPECT_EQ(sw.counters().decode_errors, 1u);
}

// ---------------------------------------------------------------------------
// Channel: transparency, stage composition, counters, trace.
// ---------------------------------------------------------------------------

/// Records every frame it sees, then passes it on.
class RecordingStage : public Stage {
 public:
  RecordingStage(std::vector<std::string>& order, std::string tag)
      : order_(order), tag_(std::move(tag)) {}
  const char* name() const override { return tag_.c_str(); }
  bool on_envelope(Channel&, Direction, Envelope&) override {
    order_.push_back(tag_);
    return true;
  }

 private:
  std::vector<std::string>& order_;
  std::string tag_;
};

/// Consumes every frame (moves it out and drops it).
class BlackHoleStage : public Stage {
 public:
  const char* name() const override { return "black-hole"; }
  bool on_envelope(Channel& channel, Direction direction, Envelope& envelope) override {
    Envelope swallowed = std::move(envelope);
    channel.note_suppressed(direction);
    return false;
  }
};

TEST(Channel, StagelessChannelIsTransparentBothWays) {
  sim::Scheduler sched;
  Channel channel(sched, {});
  std::vector<std::uint32_t> at_controller;
  std::vector<std::uint32_t> at_switch;
  channel.set_controller_sink([&](Envelope e) { at_controller.push_back(e.message()->xid); });
  channel.set_switch_sink([&](Envelope e) { at_switch.push_back(e.message()->xid); });

  channel.switch_sender()(Envelope(ofp::make_message(1, ofp::Hello{})));
  channel.controller_sender()(Envelope(ofp::make_message(2, ofp::Hello{})));
  sched.run_until(kSecond);

  EXPECT_EQ(at_controller, std::vector<std::uint32_t>{1});
  EXPECT_EQ(at_switch, std::vector<std::uint32_t>{2});
  EXPECT_EQ(channel.counters(Direction::SwitchToController).frames, 1u);
  EXPECT_EQ(channel.counters(Direction::SwitchToController).forwarded, 1u);
  EXPECT_EQ(channel.counters(Direction::ControllerToSwitch).frames, 1u);
  EXPECT_EQ(channel.totals().frames, 2u);
  EXPECT_EQ(channel.totals().decode_errors, 0u);
}

TEST(Channel, FrameArrivalIsDelayedByBothPipeHops) {
  sim::Scheduler sched;
  ChannelConfig config;
  config.segment = sim::PipeConfig{1'000'000'000, 150 * kMicrosecond, 0};
  Channel channel(sched, config);
  SimTime delivered_at = -1;
  channel.set_controller_sink([&](Envelope) { delivered_at = sched.now(); });

  channel.send_from_switch(Envelope(ofp::make_message(1, ofp::Hello{})));
  sched.run_until(kSecond);
  // Two hops, each 150 us propagation plus serialization.
  EXPECT_GE(delivered_at, 300 * kMicrosecond);
  EXPECT_LT(delivered_at, 310 * kMicrosecond);
}

TEST(Channel, StagesRunInInsertionOrderPerFrame) {
  sim::Scheduler sched;
  Channel channel(sched, {});
  std::vector<std::string> order;
  channel.add_stage(std::make_unique<RecordingStage>(order, "first"));
  channel.add_stage(std::make_unique<RecordingStage>(order, "second"));
  std::size_t delivered = 0;
  channel.set_controller_sink([&](Envelope) { ++delivered; });

  channel.send_from_switch(Envelope(ofp::make_message(1, ofp::Hello{})));
  sched.run_until(kSecond);
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second"}));
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(channel.stage_count(), 2u);
}

TEST(Channel, ConsumingStageSuppressesDelivery) {
  sim::Scheduler sched;
  Channel channel(sched, {});
  channel.add_stage(std::make_unique<BlackHoleStage>());
  std::size_t delivered = 0;
  channel.set_controller_sink([&](Envelope) { ++delivered; });

  channel.send_from_switch(Envelope(ofp::make_message(1, ofp::Hello{})));
  sched.run_until(kSecond);
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(channel.counters(Direction::SwitchToController).suppressed, 1u);
  EXPECT_EQ(channel.counters(Direction::SwitchToController).forwarded, 0u);
}

TEST(Channel, TlsSealsAtProxyAndUnsealsAtDelivery) {
  sim::Scheduler sched;
  ChannelConfig config;
  config.tls = true;
  Channel channel(sched, config);
  bool stage_saw_plaintext = true;
  class Probe : public Stage {
   public:
    explicit Probe(bool& saw) : saw_(saw) {}
    const char* name() const override { return "probe"; }
    bool on_envelope(Channel&, Direction, Envelope& envelope) override {
      saw_ = envelope.message() != nullptr;
      return true;
    }

   private:
    bool& saw_;
  };
  channel.add_stage(std::make_unique<Probe>(stage_saw_plaintext));
  std::size_t readable_deliveries = 0;
  channel.set_controller_sink([&](Envelope e) {
    if (e.message() != nullptr && !e.sealed()) ++readable_deliveries;
  });

  channel.send_from_switch(Envelope(ofp::make_message(1, ofp::Hello{})));
  sched.run_until(kSecond);
  EXPECT_FALSE(stage_saw_plaintext);  // ciphertext at the proxy point
  EXPECT_EQ(readable_deliveries, 1u);  // plaintext at the endpoint
}

TEST(Channel, UndecodableFrameCountsAndPassesThrough) {
  sim::Scheduler sched;
  Channel channel(sched, {});
  Bytes garbage = ofp::encode(ofp::make_message(1, ofp::Hello{}));
  garbage[0] = 0x09;
  std::size_t delivered = 0;
  Bytes delivered_wire;
  channel.set_controller_sink([&](Envelope e) {
    ++delivered;
    delivered_wire = e.wire();
  });

  channel.send_from_switch(Envelope(garbage));
  sched.run_until(kSecond);
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(delivered_wire, garbage);
  EXPECT_EQ(channel.counters(Direction::SwitchToController).decode_errors, 1u);
}

TEST(TraceRing, WrapsAndReportsDropped) {
  TraceRing ring(2);
  for (std::uint32_t i = 1; i <= 3; ++i) {
    TraceEntry entry;
    entry.xid = i;
    ring.push(entry);
  }
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.dropped(), 1u);
  const auto entries = ring.snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].xid, 2u);  // oldest retained first
  EXPECT_EQ(entries[1].xid, 3u);
}

TEST(Channel, JsonSerializesCountersAndTrace) {
  sim::Scheduler sched;
  ChannelConfig config;
  config.name = "s1<->c1";
  Channel channel(sched, config);
  channel.add_stage(std::make_unique<TraceStage>());
  channel.set_controller_sink([](Envelope) {});
  channel.send_from_switch(Envelope(ofp::make_message(7, ofp::Hello{})));
  sched.run_until(kSecond);

  const std::string json = channel.to_json();
  EXPECT_NE(json.find("\"name\":\"s1<->c1\""), std::string::npos);
  EXPECT_NE(json.find("\"switch_to_controller\""), std::string::npos);
  EXPECT_NE(json.find("\"codec_ops_saved\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"HELLO\""), std::string::npos);
  EXPECT_EQ(json, channel.to_json());  // deterministic bytes
}

// ---------------------------------------------------------------------------
// End-to-end codec savings on the Table II enterprise scenario: the
// decode-once path must cut encode+decode invocations by >= 40% relative to
// the byte pipeline's per-frame encode + proxy decode + endpoint decode.
// ---------------------------------------------------------------------------

TEST(Channel, DecodeOnceSavesAtLeast40PercentOnTable2Cell) {
  scenario::RunSpec spec;
  spec.experiment = scenario::ExperimentKind::ConnectionInterruption;
  spec.controller = ctl::ControllerKind::Pox;
  spec.attack_enabled = true;

  ofp::reset_codec_ops();
  const scenario::RunResultPtr result = scenario::run(spec);
  const std::uint64_t actual = ofp::codec_ops().total();

  ASSERT_GT(result->messages_interposed, 0u);
  EXPECT_GT(result->codec_ops_saved, 0u);
  // The byte pipeline's cost on the same run is the ops we paid plus the
  // ops the envelope cache skipped.
  const std::uint64_t baseline = actual + result->codec_ops_saved;
  EXPECT_GE(static_cast<double>(result->codec_ops_saved),
            0.4 * static_cast<double>(baseline))
      << "actual=" << actual << " saved=" << result->codec_ops_saved;

  // New result fields serialize deterministically.
  const std::string json = result->to_json();
  EXPECT_NE(json.find("\"control_channel\":{\"messages_interposed\":"), std::string::npos);
  EXPECT_EQ(json, scenario::run(spec)->to_json());
}

}  // namespace
}  // namespace attain::chan
