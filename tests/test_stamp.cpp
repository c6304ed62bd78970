// Differential fuzz of the template-stamped encoders against the full
// codecs. The stamping contract is byte-identity: for every emitted
// instance, emit_wire() must equal the full encode of an identically-built
// message/packet — across all stampable message types, >=10k instances
// total — and stamping must never reallocate the template's wire buffer
// (encode() reserves exactly ofp::wire_size() bytes, so
// the prototype encode already owns all the bytes it will ever need).
#include "ofp/stamp.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/rng.hpp"
#include "ofp/codec.hpp"
#include "packet/codec.hpp"
#include "packet/stamp.hpp"

namespace attain {
namespace {

// The suite's loop counts sum to >=10k instances by default. Like the
// program differential fuzz, ATTAIN_DIFF_FUZZ_ITERS rescales them: the
// env var names the *total* budget (CI's sanitizer job sets 30000), and
// each loop keeps its share of it.
int fuzz_iters(int base) {
  if (const char* env = std::getenv("ATTAIN_DIFF_FUZZ_ITERS")) {
    const long total = std::atol(env);
    if (total > 0) return static_cast<int>(base * total / 10000);
  }
  return base;
}

Bytes random_bytes(Rng& rng, std::size_t size) {
  Bytes data(size);
  for (std::uint8_t& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  return data;
}

// ---------------------------------------------------------------------------
// ofp::StampedTemplate vs ofp::encode.
// ---------------------------------------------------------------------------

TEST(StampedTemplate, PacketInDifferentialFuzz) {
  Rng rng(0x5117a);
  constexpr std::size_t kData = 54;  // the volumetric flood's frame size
  ofp::PacketIn proto;
  proto.reason = ofp::PacketInReason::NoMatch;
  proto.data.assign(kData, 0);
  ofp::StampedTemplate tmpl(ofp::Message{0, std::move(proto)});
  ASSERT_TRUE(tmpl.can_stamp_xid());
  ASSERT_TRUE(tmpl.can_stamp_buffer_id());
  ASSERT_TRUE(tmpl.can_stamp_in_port());
  ASSERT_TRUE(tmpl.can_stamp_total_len());
  ASSERT_TRUE(tmpl.can_stamp_data(kData));

  for (int i = 0; i < fuzz_iters(4000); ++i) {
    const auto xid = static_cast<std::uint32_t>(rng.next_u64());
    const auto buffer_id = static_cast<std::uint32_t>(rng.next_u64());
    const auto in_port = static_cast<std::uint16_t>(rng.next_u64());
    const auto total_len = static_cast<std::uint16_t>(rng.next_u64());
    const Bytes data = random_bytes(rng, kData);
    ASSERT_TRUE(tmpl.set_xid(xid));
    ASSERT_TRUE(tmpl.set_buffer_id(buffer_id));
    ASSERT_TRUE(tmpl.set_in_port(in_port));
    ASSERT_TRUE(tmpl.set_total_len(total_len));
    ASSERT_TRUE(tmpl.set_data(data));

    ofp::PacketIn fresh;
    fresh.reason = ofp::PacketInReason::NoMatch;
    fresh.buffer_id = buffer_id;
    fresh.in_port = in_port;
    fresh.total_len = total_len;
    fresh.data = data;
    ASSERT_EQ(tmpl.wire(), ofp::encode(ofp::Message{xid, std::move(fresh)})) << "iteration " << i;
    ASSERT_EQ(tmpl.wire(), ofp::encode(tmpl.message())) << "typed view out of lockstep";
  }
}

TEST(StampedTemplate, PacketOutDifferentialFuzz) {
  Rng rng(0xbeef01);
  constexpr std::size_t kData = 60;
  ofp::PacketOut proto;
  proto.actions.push_back(ofp::ActionOutput{2, 0});
  proto.data.assign(kData, 0);
  ofp::StampedTemplate tmpl(ofp::Message{0, std::move(proto)});
  ASSERT_TRUE(tmpl.can_stamp_xid());
  ASSERT_TRUE(tmpl.can_stamp_buffer_id());
  ASSERT_TRUE(tmpl.can_stamp_in_port());
  EXPECT_FALSE(tmpl.can_stamp_total_len());  // PACKET_OUT has no total_len
  ASSERT_TRUE(tmpl.can_stamp_data(kData));

  for (int i = 0; i < fuzz_iters(2000); ++i) {
    const auto xid = static_cast<std::uint32_t>(rng.next_u64());
    const auto buffer_id = static_cast<std::uint32_t>(rng.next_u64());
    const auto in_port = static_cast<std::uint16_t>(rng.next_u64());
    const Bytes data = random_bytes(rng, kData);
    ASSERT_TRUE(tmpl.set_xid(xid));
    ASSERT_TRUE(tmpl.set_buffer_id(buffer_id));
    ASSERT_TRUE(tmpl.set_in_port(in_port));
    ASSERT_TRUE(tmpl.set_data(data));
    EXPECT_FALSE(tmpl.set_total_len(7));

    ofp::PacketOut fresh;
    fresh.actions.push_back(ofp::ActionOutput{2, 0});
    fresh.buffer_id = buffer_id;
    fresh.in_port = in_port;
    fresh.data = data;
    ASSERT_EQ(tmpl.wire(), ofp::encode(ofp::Message{xid, std::move(fresh)})) << "iteration " << i;
  }
}

TEST(StampedTemplate, FlowModDifferentialFuzz) {
  Rng rng(0xf10d);
  ofp::FlowMod proto;
  proto.command = ofp::FlowModCommand::Add;
  proto.actions.push_back(ofp::ActionOutput{1, 0});
  ofp::StampedTemplate tmpl(ofp::Message{0, std::move(proto)});
  ASSERT_TRUE(tmpl.can_stamp_xid());
  ASSERT_TRUE(tmpl.can_stamp_buffer_id());
  EXPECT_FALSE(tmpl.can_stamp_in_port());  // FLOW_MOD carries no in_port field

  for (int i = 0; i < fuzz_iters(2000); ++i) {
    const auto xid = static_cast<std::uint32_t>(rng.next_u64());
    const auto buffer_id = static_cast<std::uint32_t>(rng.next_u64());
    ASSERT_TRUE(tmpl.set_xid(xid));
    ASSERT_TRUE(tmpl.set_buffer_id(buffer_id));

    ofp::FlowMod fresh;
    fresh.command = ofp::FlowModCommand::Add;
    fresh.actions.push_back(ofp::ActionOutput{1, 0});
    fresh.buffer_id = buffer_id;
    ASSERT_EQ(tmpl.wire(), ofp::encode(ofp::Message{xid, std::move(fresh)})) << "iteration " << i;
  }
}

TEST(StampedTemplate, RawDataMessagesDifferentialFuzz) {
  Rng rng(0xda7a);
  constexpr std::size_t kData = 32;
  // Error / EchoRequest / EchoReply / Vendor all carry a trailing raw-data
  // region; each gets xid + data stamping.
  const auto check = [&rng](ofp::Message prototype, auto rebuild) {
    ofp::StampedTemplate tmpl(std::move(prototype));
    ASSERT_TRUE(tmpl.can_stamp_xid());
    ASSERT_TRUE(tmpl.can_stamp_data(kData));
    for (int i = 0; i < fuzz_iters(800); ++i) {
      const auto xid = static_cast<std::uint32_t>(rng.next_u64());
      const Bytes data = random_bytes(rng, kData);
      ASSERT_TRUE(tmpl.set_xid(xid));
      ASSERT_TRUE(tmpl.set_data(data));
      ASSERT_EQ(tmpl.wire(), ofp::encode(rebuild(xid, data))) << "iteration " << i;
    }
  };

  ofp::Error err;
  err.type = ofp::ErrorType::BadRequest;
  err.code = 1;
  err.data.assign(kData, 0);
  check(ofp::Message{0, std::move(err)}, [](std::uint32_t xid, const Bytes& data) {
    ofp::Error m;
    m.type = ofp::ErrorType::BadRequest;
    m.code = 1;
    m.data = data;
    return ofp::Message{xid, std::move(m)};
  });

  check(ofp::Message{0, ofp::EchoRequest{Bytes(kData, 0)}},
        [](std::uint32_t xid, const Bytes& data) {
          return ofp::Message{xid, ofp::EchoRequest{data}};
        });

  check(ofp::Message{0, ofp::EchoReply{Bytes(kData, 0)}},
        [](std::uint32_t xid, const Bytes& data) {
          return ofp::Message{xid, ofp::EchoReply{data}};
        });

  ofp::Vendor vendor;
  vendor.vendor = 0x2320;
  vendor.data.assign(kData, 0);
  check(ofp::Message{0, std::move(vendor)}, [](std::uint32_t xid, const Bytes& data) {
    ofp::Vendor m;
    m.vendor = 0x2320;
    m.data = data;
    return ofp::Message{xid, std::move(m)};
  });
}

TEST(StampedTemplate, BodylessMessageStampsXidOnly) {
  Rng rng(0x0b0d);
  ofp::StampedTemplate tmpl(ofp::make_message(0, ofp::Hello{}));
  ASSERT_TRUE(tmpl.can_stamp_xid());
  EXPECT_FALSE(tmpl.can_stamp_buffer_id());
  EXPECT_FALSE(tmpl.can_stamp_in_port());
  EXPECT_FALSE(tmpl.can_stamp_data(0));
  for (int i = 0; i < fuzz_iters(400); ++i) {
    const auto xid = static_cast<std::uint32_t>(rng.next_u64());
    ASSERT_TRUE(tmpl.set_xid(xid));
    ASSERT_EQ(tmpl.wire(), ofp::encode(ofp::make_message(xid, ofp::Hello{})));
  }
}

TEST(StampedTemplate, MismatchedDataLengthIsRejected) {
  ofp::PacketIn proto;
  proto.data.assign(16, 0);
  ofp::StampedTemplate tmpl(ofp::Message{1, std::move(proto)});
  ASSERT_TRUE(tmpl.can_stamp_data(16));
  EXPECT_FALSE(tmpl.can_stamp_data(17));
  const Bytes wrong(17, 0xab);
  const Bytes before = tmpl.wire();
  EXPECT_FALSE(tmpl.set_data(std::span<const std::uint8_t>(wrong.data(), wrong.size())));
  EXPECT_EQ(tmpl.wire(), before) << "rejected stamp must leave the wire untouched";
}

// encode() reserves exactly ofp::wire_size() bytes, so (a) a full encode
// never reallocates past its reserve and (b)
// the template's wire buffer never moves across any number of stamps.
TEST(StampedTemplate, ExactSizeHintMeansStampedEmitNeverReallocates) {
  ofp::PacketIn pin;
  pin.reason = ofp::PacketInReason::NoMatch;
  pin.data.assign(54, 0x11);
  const ofp::Message msg{7, std::move(pin)};
  const Bytes encoded = ofp::encode(msg);
  EXPECT_EQ(encoded.capacity(), encoded.size())
      << "wire_size() must be exact for PACKET_IN so the reserve is the allocation";

  ofp::StampedTemplate tmpl(msg);
  const std::uint8_t* const wire_storage = tmpl.wire().data();
  Rng rng(0x5eed);
  for (int i = 0; i < fuzz_iters(2000); ++i) {
    ASSERT_TRUE(tmpl.set_xid(static_cast<std::uint32_t>(rng.next_u64())));
    ASSERT_TRUE(tmpl.set_buffer_id(static_cast<std::uint32_t>(rng.next_u64())));
    ASSERT_TRUE(tmpl.set_in_port(static_cast<std::uint16_t>(rng.next_u64())));
    ASSERT_TRUE(tmpl.set_total_len(static_cast<std::uint16_t>(rng.next_u64())));
    const Bytes data = random_bytes(rng, 54);
    ASSERT_TRUE(tmpl.set_data(data));
    ASSERT_EQ(tmpl.wire().data(), wire_storage) << "stamping reallocated the wire buffer";
  }
}

// ---------------------------------------------------------------------------
// pkt::FrameStamper vs pkt::encode.
// ---------------------------------------------------------------------------

TEST(FrameStamper, TcpFloodFrameDifferentialFuzz) {
  Rng rng(0xf00d);
  const pkt::MacAddress victim_mac = pkt::MacAddress::from_u64(0x22);
  const pkt::Ipv4Address victim_ip{0x0a000202};
  pkt::TcpHeader tcp;
  tcp.src_port = 40000;
  tcp.dst_port = 80;
  tcp.flags = pkt::kTcpSyn;
  pkt::FrameStamper st(pkt::make_tcp(pkt::MacAddress::from_u64(0x11), victim_mac,
                                     pkt::Ipv4Address{0x0a000101}, victim_ip, tcp, 0, 0));
  ASSERT_TRUE(st.can_stamp_src_mac());
  ASSERT_TRUE(st.can_stamp_src_ip());
  ASSERT_TRUE(st.can_stamp_src_port());
  ASSERT_TRUE(st.can_stamp_tcp_seq());

  for (int i = 0; i < fuzz_iters(4000); ++i) {
    const auto mac = pkt::MacAddress::from_u64(rng.next_u64() & 0xffffffffffffULL);
    const pkt::Ipv4Address ip{static_cast<std::uint32_t>(rng.next_u64())};
    const auto port = static_cast<std::uint16_t>(rng.next_u64());
    const auto seq = static_cast<std::uint32_t>(rng.next_u64());
    ASSERT_TRUE(st.set_src_mac(mac));
    ASSERT_TRUE(st.set_src_ip(ip));
    ASSERT_TRUE(st.set_src_port(port));
    ASSERT_TRUE(st.set_tcp_seq(seq));

    pkt::TcpHeader fresh_tcp;
    fresh_tcp.src_port = port;
    fresh_tcp.dst_port = 80;
    fresh_tcp.flags = pkt::kTcpSyn;
    fresh_tcp.seq = seq;
    const pkt::Packet fresh = pkt::make_tcp(mac, victim_mac, ip, victim_ip, fresh_tcp, 0, 0);
    // Byte identity implies the stamped IPv4 header checksum matches the
    // codec's inet_checksum over the patched source address.
    ASSERT_EQ(st.wire(), pkt::encode(fresh)) << "iteration " << i;
    ASSERT_EQ(st.wire(), pkt::encode(st.packet())) << "typed view out of lockstep";
  }
}

TEST(FrameStamper, NonIpPrototypeDeclinesIpFields) {
  pkt::FrameStamper st(
      pkt::make_arp_request(pkt::MacAddress::from_u64(0x11), pkt::Ipv4Address{0x0a000101},
                            pkt::Ipv4Address{0x0a000102}));
  // No IPv4/TCP headers: those fields must refuse, and a refused stamp must
  // leave both views untouched. (eth.src IS stampable here — the ARP
  // sender-MAC is a separate typed field, so the Ethernet source occupies
  // exactly one wire location.)
  EXPECT_FALSE(st.can_stamp_src_ip());
  EXPECT_FALSE(st.can_stamp_src_port());
  EXPECT_FALSE(st.can_stamp_tcp_seq());
  const Bytes before = st.wire();
  EXPECT_FALSE(st.set_src_ip(pkt::Ipv4Address{1}));
  EXPECT_FALSE(st.set_src_port(99));
  EXPECT_FALSE(st.set_tcp_seq(7));
  EXPECT_EQ(st.wire(), before);

  // The Ethernet source stamp stays differential-honest on ARP frames too:
  // only the L2 header changes, in lockstep with the full codec.
  ASSERT_TRUE(st.can_stamp_src_mac());
  ASSERT_TRUE(st.set_src_mac(pkt::MacAddress::from_u64(0x33)));
  EXPECT_EQ(st.wire(), pkt::encode(st.packet()));
}

}  // namespace
}  // namespace attain
