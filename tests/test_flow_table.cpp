// Flow-table semantics, run identically against the two-tier classifier
// (FlowTable) and the seed's linear-scan reference (NaiveFlowTable) via a
// typed suite: every OF1.0 behaviour here is part of the shared contract
// the differential fuzz test (test_flow_table_differential.cpp) also
// enforces at scale.
#include "swsim/flow_table.hpp"

#include <gtest/gtest.h>

#include "naive_flow_table.hpp"

namespace attain::swsim {
namespace {

pkt::Packet sample_packet() {
  pkt::TcpHeader tcp;
  tcp.src_port = 1000;
  tcp.dst_port = 80;
  return pkt::make_tcp(pkt::MacAddress::from_u64(1), pkt::MacAddress::from_u64(2),
                       pkt::Ipv4Address::parse("10.0.0.1"), pkt::Ipv4Address::parse("10.0.0.2"),
                       tcp, 100, 0);
}

ofp::FlowMod add_mod(ofp::Match match, std::uint16_t priority, std::uint16_t out_port) {
  ofp::FlowMod mod;
  mod.match = std::move(match);
  mod.command = ofp::FlowModCommand::Add;
  mod.priority = priority;
  mod.actions = ofp::output_to(out_port);
  return mod;
}

std::uint16_t output_port(const FlowEntry& entry) {
  return std::get<ofp::ActionOutput>(entry.actions.at(0)).port;
}

template <typename Table>
class FlowTableContract : public ::testing::Test {
 protected:
  Table table_;
};

using TableImpls = ::testing::Types<FlowTable, NaiveFlowTable>;
TYPED_TEST_SUITE(FlowTableContract, TableImpls);

TYPED_TEST(FlowTableContract, AddAndMatch) {
  auto& table = this->table_;
  const pkt::Packet p = sample_packet();
  table.apply(add_mod(ofp::Match::from_packet(p, 1), 100, 2), 0);
  const FlowEntry* hit = table.match_packet(p, 1, 10, p.wire_size());
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(output_port(*hit), 2);
  EXPECT_EQ(hit->packet_count, 1u);
  EXPECT_EQ(hit->byte_count, p.wire_size());
  EXPECT_EQ(hit->last_used, 10);
  EXPECT_EQ(table.match_packet(p, 3, 10, p.wire_size()), nullptr);  // wrong in_port
}

TYPED_TEST(FlowTableContract, HigherPriorityWinsAmongWildcards) {
  auto& table = this->table_;
  const pkt::Packet p = sample_packet();
  table.apply(add_mod(ofp::Match::wildcard_all(), 10, 7), 0);
  ofp::Match l2 = ofp::Match::l2_only(1, p.eth.src, p.eth.dst);
  table.apply(add_mod(l2, 20, 8), 0);
  const FlowEntry* hit = table.match_packet(p, 1, 0, 100);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(output_port(*hit), 8);
}

TYPED_TEST(FlowTableContract, ExactMatchOutranksHigherPriorityWildcard) {
  // OF1.0 §3.4: exact entries have precedence over wildcard entries.
  auto& table = this->table_;
  const pkt::Packet p = sample_packet();
  table.apply(add_mod(ofp::Match::wildcard_all(), 0xffff, 7), 0);
  table.apply(add_mod(ofp::Match::from_packet(p, 1), 1, 9), 0);
  const FlowEntry* hit = table.match_packet(p, 1, 0, 100);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(output_port(*hit), 9);
}

TYPED_TEST(FlowTableContract, EqualPriorityOverlapResolvesInInsertionOrder) {
  // OF1.0 leaves the equal-priority overlapping-wildcard case undefined;
  // our determinism guarantee pins it to insertion order (earliest
  // installed wins), and both implementations must agree.
  auto& table = this->table_;
  const pkt::Packet p = sample_packet();
  // Two distinct wildcard matches, same priority, both covering p.
  ofp::Match l2 = ofp::Match::l2_only(1, p.eth.src, p.eth.dst);
  ofp::Match port_only;
  port_only.wildcards = ofp::wc::kAll & ~ofp::wc::kInPort;
  port_only.in_port = 1;
  table.apply(add_mod(l2, 42, 5), 0);
  table.apply(add_mod(port_only, 42, 6), 0);
  const FlowEntry* hit = table.match_packet(p, 1, 0, 100);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(output_port(*hit), 5);  // first-installed entry wins the tie

  // Same two entries, opposite install order, in a fresh table.
  TypeParam reversed;
  reversed.apply(add_mod(port_only, 42, 6), 0);
  reversed.apply(add_mod(l2, 42, 5), 0);
  const FlowEntry* hit2 = reversed.match_packet(p, 1, 0, 100);
  ASSERT_NE(hit2, nullptr);
  EXPECT_EQ(output_port(*hit2), 6);
}

TYPED_TEST(FlowTableContract, ReplacedEntryKeepsItsInsertionRank) {
  // ADD onto an identical (match, priority) replaces in place: the entry
  // keeps its original position in the tie-break order.
  auto& table = this->table_;
  const pkt::Packet p = sample_packet();
  ofp::Match l2 = ofp::Match::l2_only(1, p.eth.src, p.eth.dst);
  ofp::Match port_only;
  port_only.wildcards = ofp::wc::kAll & ~ofp::wc::kInPort;
  port_only.in_port = 1;
  table.apply(add_mod(l2, 42, 5), 0);
  table.apply(add_mod(port_only, 42, 6), 0);
  table.apply(add_mod(l2, 42, 7), 10);  // replace the first entry
  EXPECT_EQ(table.size(), 2u);
  const FlowEntry* hit = table.match_packet(p, 1, 20, 100);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(output_port(*hit), 7);  // still first in insertion order
}

TYPED_TEST(FlowTableContract, AddReplacesIdenticalMatchAndResetsCounters) {
  auto& table = this->table_;
  const pkt::Packet p = sample_packet();
  table.apply(add_mod(ofp::Match::from_packet(p, 1), 100, 2), 0);
  table.match_packet(p, 1, 5, 100);
  table.apply(add_mod(ofp::Match::from_packet(p, 1), 100, 3), 10);
  EXPECT_EQ(table.size(), 1u);
  const FlowEntry* hit = table.match_packet(p, 1, 20, 100);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(output_port(*hit), 3);
  EXPECT_EQ(hit->packet_count, 1u);  // counters reset by replacement
}

TYPED_TEST(FlowTableContract, ModifyPreservesCounters) {
  auto& table = this->table_;
  const pkt::Packet p = sample_packet();
  table.apply(add_mod(ofp::Match::from_packet(p, 1), 100, 2), 0);
  table.match_packet(p, 1, 5, 100);

  ofp::FlowMod modify = add_mod(ofp::Match::wildcard_all(), 100, 4);
  modify.command = ofp::FlowModCommand::Modify;  // non-strict: subsumes all
  table.apply(modify, 10);
  const FlowEntry* hit = table.match_packet(p, 1, 20, 100);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(output_port(*hit), 4);
  EXPECT_EQ(hit->packet_count, 2u);  // counter preserved across modify
}

TYPED_TEST(FlowTableContract, ModifyWithNoMatchBehavesLikeAdd) {
  auto& table = this->table_;
  ofp::FlowMod modify = add_mod(ofp::Match::wildcard_all(), 100, 4);
  modify.command = ofp::FlowModCommand::Modify;
  table.apply(modify, 0);
  EXPECT_EQ(table.size(), 1u);
}

TYPED_TEST(FlowTableContract, ModifyStrictWithNoMatchBehavesLikeAdd) {
  auto& table = this->table_;
  const pkt::Packet p = sample_packet();
  table.apply(add_mod(ofp::Match::from_packet(p, 1), 100, 2), 0);

  // Same match, different priority: strict modify misses, falls back to ADD.
  ofp::FlowMod modify = add_mod(ofp::Match::from_packet(p, 1), 99, 4);
  modify.command = ofp::FlowModCommand::ModifyStrict;
  table.apply(modify, 5);
  EXPECT_EQ(table.size(), 2u);

  // Exact (match, priority) hit: actions swap, no new entry, counters kept.
  table.match_packet(p, 1, 6, 100);
  ofp::FlowMod strict_hit = add_mod(ofp::Match::from_packet(p, 1), 100, 8);
  strict_hit.command = ofp::FlowModCommand::ModifyStrict;
  table.apply(strict_hit, 7);
  EXPECT_EQ(table.size(), 2u);
  const FlowEntry* hit = table.match_packet(p, 1, 8, 100);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(output_port(*hit), 8);
}

TYPED_TEST(FlowTableContract, DeleteNonStrictSubsumes) {
  auto& table = this->table_;
  const pkt::Packet p = sample_packet();
  table.apply(add_mod(ofp::Match::from_packet(p, 1), 100, 2), 0);
  table.apply(add_mod(ofp::Match::l2_only(1, p.eth.src, p.eth.dst), 50, 3), 0);
  ofp::FlowMod del;
  del.command = ofp::FlowModCommand::Delete;
  del.match = ofp::Match::wildcard_all();
  const auto removed = table.apply(del, 1);
  EXPECT_EQ(removed.size(), 2u);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(removed[0].reason, ofp::FlowRemovedReason::Delete);
}

TYPED_TEST(FlowTableContract, DeleteStrictRequiresExactMatchAndPriority) {
  auto& table = this->table_;
  const pkt::Packet p = sample_packet();
  table.apply(add_mod(ofp::Match::from_packet(p, 1), 100, 2), 0);

  ofp::FlowMod del;
  del.command = ofp::FlowModCommand::DeleteStrict;
  del.match = ofp::Match::from_packet(p, 1);
  del.priority = 99;  // wrong priority
  table.apply(del, 1);
  EXPECT_EQ(table.size(), 1u);
  del.priority = 100;
  table.apply(del, 1);
  EXPECT_EQ(table.size(), 0u);
}

TYPED_TEST(FlowTableContract, DeleteWithOutPortFilter) {
  auto& table = this->table_;
  const pkt::Packet p = sample_packet();
  table.apply(add_mod(ofp::Match::from_packet(p, 1), 100, 2), 0);
  table.apply(add_mod(ofp::Match::l2_only(1, p.eth.src, p.eth.dst), 50, 3), 0);

  ofp::FlowMod del;
  del.command = ofp::FlowModCommand::Delete;
  del.match = ofp::Match::wildcard_all();
  del.out_port = 3;
  table.apply(del, 1);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(output_port(*table.entries()[0]), 2);
}

TYPED_TEST(FlowTableContract, DeleteStrictHonoursOutPortFilter) {
  auto& table = this->table_;
  const pkt::Packet p = sample_packet();
  table.apply(add_mod(ofp::Match::from_packet(p, 1), 100, 2), 0);

  ofp::FlowMod del;
  del.command = ofp::FlowModCommand::DeleteStrict;
  del.match = ofp::Match::from_packet(p, 1);
  del.priority = 100;
  del.out_port = 9;  // entry outputs to 2, so the filter blocks the delete
  table.apply(del, 1);
  EXPECT_EQ(table.size(), 1u);
  del.out_port = 2;
  table.apply(del, 1);
  EXPECT_EQ(table.size(), 0u);
}

TYPED_TEST(FlowTableContract, IdleTimeoutExpiresUnusedEntries) {
  auto& table = this->table_;
  const pkt::Packet p = sample_packet();
  ofp::FlowMod mod = add_mod(ofp::Match::from_packet(p, 1), 100, 2);
  mod.idle_timeout = 10;
  table.apply(mod, 0);

  EXPECT_TRUE(table.expire(9 * kSecond).empty());
  table.match_packet(p, 1, 9 * kSecond, 100);  // refresh idle timer
  EXPECT_TRUE(table.expire(18 * kSecond).empty());
  const auto expired = table.expire(19 * kSecond);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].reason, ofp::FlowRemovedReason::IdleTimeout);
  EXPECT_EQ(table.size(), 0u);
}

TYPED_TEST(FlowTableContract, HardTimeoutExpiresRegardlessOfUse) {
  auto& table = this->table_;
  const pkt::Packet p = sample_packet();
  ofp::FlowMod mod = add_mod(ofp::Match::from_packet(p, 1), 100, 2);
  mod.hard_timeout = 5;
  table.apply(mod, 0);
  table.match_packet(p, 1, 4 * kSecond, 100);
  const auto expired = table.expire(5 * kSecond);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].reason, ofp::FlowRemovedReason::HardTimeout);
}

TYPED_TEST(FlowTableContract, HardTimeoutWinsWhenBothExpireInTheSameTick) {
  // Idle and hard deadlines elapse by the same expiry tick: the reason must
  // be HardTimeout (the hard check runs first), deterministically in both
  // implementations.
  auto& table = this->table_;
  const pkt::Packet p = sample_packet();
  ofp::FlowMod mod = add_mod(ofp::Match::from_packet(p, 1), 100, 2);
  mod.idle_timeout = 3;
  mod.hard_timeout = 5;
  table.apply(mod, 0);
  table.match_packet(p, 1, 2 * kSecond, 100);  // idle deadline moves to t=5s too
  const auto expired = table.expire(5 * kSecond);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].reason, ofp::FlowRemovedReason::HardTimeout);
  EXPECT_EQ(table.size(), 0u);
}

TYPED_TEST(FlowTableContract, ExpiryReportsInInsertionOrder) {
  auto& table = this->table_;
  const pkt::Packet p = sample_packet();
  // Three entries expiring in the same tick, installed in a known order.
  for (std::uint16_t i = 0; i < 3; ++i) {
    ofp::FlowMod mod = add_mod(ofp::Match::l2_only(static_cast<std::uint16_t>(i + 1),
                                                   p.eth.src, p.eth.dst),
                               100, static_cast<std::uint16_t>(10 + i));
    mod.hard_timeout = 1;
    table.apply(mod, 0);
  }
  const auto expired = table.expire(2 * kSecond);
  ASSERT_EQ(expired.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(output_port(expired[i].entry), 10 + i);
  }
}

TYPED_TEST(FlowTableContract, ZeroTimeoutsArePermanent) {
  auto& table = this->table_;
  table.apply(add_mod(ofp::Match::wildcard_all(), 1, 2), 0);
  EXPECT_TRUE(table.expire(1000 * kSecond).empty());
  EXPECT_EQ(table.size(), 1u);
}

// --- classifier-specific structure checks (not part of the shared contract)

TEST(FlowTableClassifier, BucketCountTracksDistinctMasks) {
  FlowTable table;
  const pkt::Packet p = sample_packet();
  table.apply(add_mod(ofp::Match::from_packet(p, 1), 100, 2), 0);  // exact: no bucket
  EXPECT_EQ(table.distinct_wildcard_masks(), 0u);
  table.apply(add_mod(ofp::Match::l2_only(1, p.eth.src, p.eth.dst), 50, 3), 0);
  table.apply(add_mod(ofp::Match::l2_only(2, p.eth.dst, p.eth.src), 50, 4), 0);  // same mask
  EXPECT_EQ(table.distinct_wildcard_masks(), 1u);
  table.apply(add_mod(ofp::Match::wildcard_all(), 1, 5), 0);
  EXPECT_EQ(table.distinct_wildcard_masks(), 2u);

  ofp::FlowMod del;
  del.command = ofp::FlowModCommand::Delete;
  del.match = ofp::Match::wildcard_all();
  table.apply(del, 1);
  EXPECT_EQ(table.distinct_wildcard_masks(), 0u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(FlowTableClassifier, PermanentEntriesNeverEnterTheWheel) {
  FlowTable table;
  const pkt::Packet p = sample_packet();
  table.apply(add_mod(ofp::Match::from_packet(p, 1), 100, 2), 0);
  EXPECT_EQ(table.pending_timers(), 0u);
  ofp::FlowMod timed = add_mod(ofp::Match::l2_only(1, p.eth.src, p.eth.dst), 50, 3);
  timed.idle_timeout = 5;
  table.apply(timed, 0);
  EXPECT_EQ(table.pending_timers(), 1u);
}

TEST(FlowTableClassifier, CapacityRejectsNewAddsButNotReplacements) {
  FlowTable table;
  table.set_capacity(2);
  const pkt::Packet p = sample_packet();
  table.apply(add_mod(ofp::Match::from_packet(p, 1), 100, 2), 0);
  table.apply(add_mod(ofp::Match::l2_only(1, p.eth.src, p.eth.dst), 50, 3), 0);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.adds_rejected(), 0u);

  // A third distinct flow bounces off the cap.
  table.apply(add_mod(ofp::Match::wildcard_all(), 10, 4), 0);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.adds_rejected(), 1u);

  // OF1.0 ADD-replace of a resident entry still succeeds at capacity.
  table.apply(add_mod(ofp::Match::from_packet(p, 1), 100, 9), 0);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.adds_rejected(), 1u);
  const FlowEntry* hit = table.match_packet(p, 1, 0, 100);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(output_port(*hit), 9);
}

TEST(FlowTableClassifier, FreedSlotsReopenTheCap) {
  FlowTable table;
  table.set_capacity(1);
  const pkt::Packet p = sample_packet();
  table.apply(add_mod(ofp::Match::from_packet(p, 1), 100, 2), 0);
  ofp::FlowMod del;
  del.command = ofp::FlowModCommand::Delete;
  del.match = ofp::Match::wildcard_all();
  table.apply(del, 1);
  table.apply(add_mod(ofp::Match::wildcard_all(), 10, 4), 2);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.adds_rejected(), 0u);
}

TEST(FlowTableClassifier, KeyOverloadAgreesWithPacketOverload) {
  FlowTable table;
  const pkt::Packet p = sample_packet();
  table.apply(add_mod(ofp::Match::from_packet(p, 1), 100, 2), 0);
  const pkt::FlowKey key = pkt::FlowKey::from_packet(p, 1);
  const FlowEntry* by_key = table.match_packet(key, 10, 100);
  ASSERT_NE(by_key, nullptr);
  const FlowEntry* by_packet = table.match_packet(p, 1, 11, 100);
  EXPECT_EQ(by_key, by_packet);
  EXPECT_EQ(by_packet->packet_count, 2u);
}

}  // namespace
}  // namespace attain::swsim
