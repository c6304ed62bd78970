#include "ofp/codec.hpp"

namespace attain::ofp {

namespace {

void encode_phy_port(ByteWriter& w, const PhyPort& port) {
  w.u16(port.port_no);
  w.raw(port.hw_addr.octets);
  w.fixed_string(port.name, 16);
  w.u32(port.config);
  w.u32(port.state);
  w.u32(port.curr);
  w.u32(port.advertised);
  w.u32(port.supported);
  w.u32(port.peer);
}

PhyPort decode_phy_port(ByteReader& r) {
  PhyPort port;
  port.port_no = r.u16();
  const auto mac = r.view(6);
  std::copy(mac.begin(), mac.end(), port.hw_addr.octets.begin());
  port.name = r.fixed_string(16);
  port.config = r.u32();
  port.state = r.u32();
  port.curr = r.u32();
  port.advertised = r.u32();
  port.supported = r.u32();
  port.peer = r.u32();
  return port;
}

struct BodyEncoder {
  ByteWriter& w;

  void operator()(const Hello&) const {}
  void operator()(const Error& m) const {
    w.u16(static_cast<std::uint16_t>(m.type));
    w.u16(m.code);
    w.raw(m.data);
  }
  void operator()(const EchoRequest& m) const { w.raw(m.data); }
  void operator()(const EchoReply& m) const { w.raw(m.data); }
  void operator()(const Vendor& m) const {
    w.u32(m.vendor);
    w.raw(m.data);
  }
  void operator()(const FeaturesRequest&) const {}
  void operator()(const FeaturesReply& m) const {
    w.u64(m.datapath_id);
    w.u32(m.n_buffers);
    w.u8(m.n_tables);
    w.pad(3);
    w.u32(m.capabilities);
    w.u32(m.actions);
    for (const PhyPort& p : m.ports) encode_phy_port(w, p);
  }
  void operator()(const GetConfigRequest&) const {}
  void operator()(const GetConfigReply& m) const {
    w.u16(m.flags);
    w.u16(m.miss_send_len);
  }
  void operator()(const SetConfig& m) const {
    w.u16(m.flags);
    w.u16(m.miss_send_len);
  }
  void operator()(const PacketIn& m) const {
    w.u32(m.buffer_id);
    w.u16(m.total_len);
    w.u16(m.in_port);
    w.u8(static_cast<std::uint8_t>(m.reason));
    w.pad(1);
    w.raw(m.data);
  }
  void operator()(const FlowRemoved& m) const {
    m.match.encode(w);
    w.u64(m.cookie);
    w.u16(m.priority);
    w.u8(static_cast<std::uint8_t>(m.reason));
    w.pad(1);
    w.u32(m.duration_sec);
    w.u32(m.duration_nsec);
    w.u16(m.idle_timeout);
    w.pad(2);
    w.u64(m.packet_count);
    w.u64(m.byte_count);
  }
  void operator()(const PortStatus& m) const {
    w.u8(static_cast<std::uint8_t>(m.reason));
    w.pad(7);
    encode_phy_port(w, m.desc);
  }
  void operator()(const PacketOut& m) const {
    w.u32(m.buffer_id);
    w.u16(m.in_port);
    w.u16(static_cast<std::uint16_t>(actions_wire_size(m.actions)));
    encode_actions(w, m.actions);
    w.raw(m.data);
  }
  void operator()(const FlowMod& m) const {
    m.match.encode(w);
    w.u64(m.cookie);
    w.u16(static_cast<std::uint16_t>(m.command));
    w.u16(m.idle_timeout);
    w.u16(m.hard_timeout);
    w.u16(m.priority);
    w.u32(m.buffer_id);
    w.u16(m.out_port);
    w.u16(m.flags);
    encode_actions(w, m.actions);
  }
  void operator()(const PortMod& m) const {
    w.u16(m.port_no);
    w.raw(m.hw_addr.octets);
    w.u32(m.config);
    w.u32(m.mask);
    w.u32(m.advertise);
    w.pad(4);
  }
  void operator()(const StatsRequest& m) const {
    w.u16(static_cast<std::uint16_t>(m.stats_type()));
    w.u16(m.flags);
    struct Sub {
      ByteWriter& w;
      void operator()(const DescStatsRequest&) const {}
      void operator()(const FlowStatsRequest& b) const {
        b.match.encode(w);
        w.u8(b.table_id);
        w.pad(1);
        w.u16(b.out_port);
      }
      void operator()(const AggregateStatsRequest& b) const {
        b.match.encode(w);
        w.u8(b.table_id);
        w.pad(1);
        w.u16(b.out_port);
      }
      void operator()(const PortStatsRequest& b) const {
        w.u16(b.port_no);
        w.pad(6);
      }
    };
    std::visit(Sub{w}, m.body);
  }
  void operator()(const StatsReply& m) const {
    w.u16(static_cast<std::uint16_t>(m.stats_type()));
    w.u16(m.flags);
    struct Sub {
      ByteWriter& w;
      void operator()(const DescStats& b) const {
        w.fixed_string(b.mfr_desc, 256);
        w.fixed_string(b.hw_desc, 256);
        w.fixed_string(b.sw_desc, 256);
        w.fixed_string(b.serial_num, 32);
        w.fixed_string(b.dp_desc, 256);
      }
      void operator()(const std::vector<FlowStatsEntry>& entries) const {
        for (const FlowStatsEntry& e : entries) {
          const std::size_t entry_len = 88 + actions_wire_size(e.actions);
          w.u16(static_cast<std::uint16_t>(entry_len));
          w.u8(e.table_id);
          w.pad(1);
          e.match.encode(w);
          w.u32(e.duration_sec);
          w.u32(e.duration_nsec);
          w.u16(e.priority);
          w.u16(e.idle_timeout);
          w.u16(e.hard_timeout);
          w.pad(6);
          w.u64(e.cookie);
          w.u64(e.packet_count);
          w.u64(e.byte_count);
          encode_actions(w, e.actions);
        }
      }
      void operator()(const AggregateStats& b) const {
        w.u64(b.packet_count);
        w.u64(b.byte_count);
        w.u32(b.flow_count);
        w.pad(4);
      }
      void operator()(const std::vector<PortStatsEntry>& entries) const {
        for (const PortStatsEntry& e : entries) {
          w.u16(e.port_no);
          w.pad(6);
          w.u64(e.rx_packets);
          w.u64(e.tx_packets);
          w.u64(e.rx_bytes);
          w.u64(e.tx_bytes);
          w.u64(e.rx_dropped);
          w.u64(e.tx_dropped);
        }
      }
    };
    std::visit(Sub{w}, m.body);
  }
  void operator()(const BarrierRequest&) const {}
  void operator()(const BarrierReply&) const {}
};

Body decode_body(MsgType type, ByteReader& r) {
  switch (type) {
    case MsgType::Hello:
      r.skip(r.remaining());  // HELLO may carry elements; ignored in 1.0
      return Hello{};
    case MsgType::Error: {
      Error m;
      m.type = static_cast<ErrorType>(r.u16());
      m.code = r.u16();
      m.data = r.raw(r.remaining());
      return m;
    }
    case MsgType::EchoRequest:
      return EchoRequest{r.raw(r.remaining())};
    case MsgType::EchoReply:
      return EchoReply{r.raw(r.remaining())};
    case MsgType::Vendor: {
      Vendor m;
      m.vendor = r.u32();
      m.data = r.raw(r.remaining());
      return m;
    }
    case MsgType::FeaturesRequest:
      return FeaturesRequest{};
    case MsgType::FeaturesReply: {
      FeaturesReply m;
      m.datapath_id = r.u64();
      m.n_buffers = r.u32();
      m.n_tables = r.u8();
      r.skip(3);
      m.capabilities = r.u32();
      m.actions = r.u32();
      while (r.remaining() >= 48) m.ports.push_back(decode_phy_port(r));
      if (r.remaining() != 0) throw DecodeError("trailing bytes in FEATURES_REPLY");
      return m;
    }
    case MsgType::GetConfigRequest:
      return GetConfigRequest{};
    case MsgType::GetConfigReply: {
      GetConfigReply m;
      m.flags = r.u16();
      m.miss_send_len = r.u16();
      return m;
    }
    case MsgType::SetConfig: {
      SetConfig m;
      m.flags = r.u16();
      m.miss_send_len = r.u16();
      return m;
    }
    case MsgType::PacketIn: {
      PacketIn m;
      m.buffer_id = r.u32();
      m.total_len = r.u16();
      m.in_port = r.u16();
      m.reason = static_cast<PacketInReason>(r.u8());
      r.skip(1);
      m.data = r.raw(r.remaining());
      return m;
    }
    case MsgType::FlowRemoved: {
      FlowRemoved m;
      m.match = Match::decode(r);
      m.cookie = r.u64();
      m.priority = r.u16();
      m.reason = static_cast<FlowRemovedReason>(r.u8());
      r.skip(1);
      m.duration_sec = r.u32();
      m.duration_nsec = r.u32();
      m.idle_timeout = r.u16();
      r.skip(2);
      m.packet_count = r.u64();
      m.byte_count = r.u64();
      return m;
    }
    case MsgType::PortStatus: {
      PortStatus m;
      m.reason = static_cast<PortReason>(r.u8());
      r.skip(7);
      m.desc = decode_phy_port(r);
      return m;
    }
    case MsgType::PacketOut: {
      PacketOut m;
      m.buffer_id = r.u32();
      m.in_port = r.u16();
      const std::uint16_t actions_len = r.u16();
      m.actions = decode_actions(r, actions_len);
      m.data = r.raw(r.remaining());
      return m;
    }
    case MsgType::FlowMod: {
      FlowMod m;
      m.match = Match::decode(r);
      m.cookie = r.u64();
      m.command = static_cast<FlowModCommand>(r.u16());
      m.idle_timeout = r.u16();
      m.hard_timeout = r.u16();
      m.priority = r.u16();
      m.buffer_id = r.u32();
      m.out_port = r.u16();
      m.flags = r.u16();
      m.actions = decode_actions(r, r.remaining());
      return m;
    }
    case MsgType::PortMod: {
      PortMod m;
      m.port_no = r.u16();
      const auto mac = r.view(6);
      std::copy(mac.begin(), mac.end(), m.hw_addr.octets.begin());
      m.config = r.u32();
      m.mask = r.u32();
      m.advertise = r.u32();
      r.skip(4);
      return m;
    }
    case MsgType::StatsRequest: {
      StatsRequest m;
      const auto stats_type = static_cast<StatsType>(r.u16());
      m.flags = r.u16();
      switch (stats_type) {
        case StatsType::Desc:
          m.body = DescStatsRequest{};
          break;
        case StatsType::Flow: {
          FlowStatsRequest b;
          b.match = Match::decode(r);
          b.table_id = r.u8();
          r.skip(1);
          b.out_port = r.u16();
          m.body = b;
          break;
        }
        case StatsType::Aggregate: {
          AggregateStatsRequest b;
          b.match = Match::decode(r);
          b.table_id = r.u8();
          r.skip(1);
          b.out_port = r.u16();
          m.body = b;
          break;
        }
        case StatsType::Port: {
          PortStatsRequest b;
          b.port_no = r.u16();
          r.skip(6);
          m.body = b;
          break;
        }
        default:
          throw DecodeError("unsupported stats request type");
      }
      return m;
    }
    case MsgType::StatsReply: {
      StatsReply m;
      const auto stats_type = static_cast<StatsType>(r.u16());
      m.flags = r.u16();
      switch (stats_type) {
        case StatsType::Desc: {
          DescStats b;
          b.mfr_desc = r.fixed_string(256);
          b.hw_desc = r.fixed_string(256);
          b.sw_desc = r.fixed_string(256);
          b.serial_num = r.fixed_string(32);
          b.dp_desc = r.fixed_string(256);
          m.body = b;
          break;
        }
        case StatsType::Flow: {
          std::vector<FlowStatsEntry> entries;
          while (r.remaining() > 0) {
            const std::size_t start = r.position();
            const std::uint16_t entry_len = r.u16();
            if (entry_len < 88) throw DecodeError("flow stats entry too short");
            FlowStatsEntry e;
            e.table_id = r.u8();
            r.skip(1);
            e.match = Match::decode(r);
            e.duration_sec = r.u32();
            e.duration_nsec = r.u32();
            e.priority = r.u16();
            e.idle_timeout = r.u16();
            e.hard_timeout = r.u16();
            r.skip(6);
            e.cookie = r.u64();
            e.packet_count = r.u64();
            e.byte_count = r.u64();
            e.actions = decode_actions(r, entry_len - (r.position() - start));
            entries.push_back(std::move(e));
          }
          m.body = std::move(entries);
          break;
        }
        case StatsType::Aggregate: {
          AggregateStats b;
          b.packet_count = r.u64();
          b.byte_count = r.u64();
          b.flow_count = r.u32();
          r.skip(4);
          m.body = b;
          break;
        }
        case StatsType::Port: {
          std::vector<PortStatsEntry> entries;
          while (r.remaining() >= 56) {
            PortStatsEntry e;
            e.port_no = r.u16();
            r.skip(6);
            e.rx_packets = r.u64();
            e.tx_packets = r.u64();
            e.rx_bytes = r.u64();
            e.tx_bytes = r.u64();
            e.rx_dropped = r.u64();
            e.tx_dropped = r.u64();
            entries.push_back(e);
          }
          if (r.remaining() != 0) throw DecodeError("trailing bytes in port stats");
          m.body = std::move(entries);
          break;
        }
        default:
          throw DecodeError("unsupported stats reply type");
      }
      return m;
    }
    case MsgType::BarrierRequest:
      return BarrierRequest{};
    case MsgType::BarrierReply:
      return BarrierReply{};
  }
  throw DecodeError("unknown message type " + std::to_string(static_cast<int>(type)));
}

/// Exact body sizes: the bytes BodyEncoder writes for each message, so
/// wire_size() answers without encoding and encode() reserves exactly once.
struct BodySize {
  std::size_t operator()(const Hello&) const { return 0; }
  std::size_t operator()(const Error& m) const { return 4 + m.data.size(); }
  std::size_t operator()(const EchoRequest& m) const { return m.data.size(); }
  std::size_t operator()(const EchoReply& m) const { return m.data.size(); }
  std::size_t operator()(const Vendor& m) const { return 4 + m.data.size(); }
  std::size_t operator()(const FeaturesRequest&) const { return 0; }
  std::size_t operator()(const FeaturesReply& m) const { return 24 + m.ports.size() * 48; }
  std::size_t operator()(const GetConfigRequest&) const { return 0; }
  std::size_t operator()(const GetConfigReply&) const { return 4; }
  std::size_t operator()(const SetConfig&) const { return 4; }
  std::size_t operator()(const PacketIn& m) const { return 10 + m.data.size(); }
  std::size_t operator()(const FlowRemoved&) const { return 80; }
  std::size_t operator()(const PortStatus&) const { return 56; }
  std::size_t operator()(const PacketOut& m) const {
    return 8 + actions_wire_size(m.actions) + m.data.size();
  }
  std::size_t operator()(const FlowMod& m) const {
    return 64 + actions_wire_size(m.actions);
  }
  std::size_t operator()(const PortMod&) const { return 24; }
  std::size_t operator()(const StatsRequest& m) const {
    struct Sub {
      std::size_t operator()(const DescStatsRequest&) const { return 0; }
      std::size_t operator()(const FlowStatsRequest&) const { return 44; }
      std::size_t operator()(const AggregateStatsRequest&) const { return 44; }
      std::size_t operator()(const PortStatsRequest&) const { return 8; }
    };
    return 4 + std::visit(Sub{}, m.body);
  }
  std::size_t operator()(const StatsReply& m) const {
    struct Sub {
      std::size_t operator()(const DescStats&) const { return 1056; }
      std::size_t operator()(const std::vector<FlowStatsEntry>& entries) const {
        std::size_t total = 0;
        for (const FlowStatsEntry& e : entries) total += 88 + actions_wire_size(e.actions);
        return total;
      }
      std::size_t operator()(const AggregateStats&) const { return 24; }
      std::size_t operator()(const std::vector<PortStatsEntry>& entries) const {
        return entries.size() * 56;
      }
    };
    return 4 + std::visit(Sub{}, m.body);
  }
  std::size_t operator()(const BarrierRequest&) const { return 0; }
  std::size_t operator()(const BarrierReply&) const { return 0; }
};

}  // namespace

CodecOpCounters& codec_ops() {
  thread_local CodecOpCounters counters;
  return counters;
}

void reset_codec_ops() { codec_ops() = CodecOpCounters{}; }

std::size_t wire_size(const Message& message) {
  const std::size_t size = kHeaderSize + std::visit(BodySize{}, message.body);
  if (size > 0xffff) throw std::length_error("OpenFlow message exceeds 64 KiB");
  return size;
}

Bytes encode(const Message& message) {
  ++codec_ops().encodes;
  const std::size_t size = wire_size(message);
  ByteWriter w;
  w.reserve(size);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(message.type()));
  w.u16(static_cast<std::uint16_t>(size));
  w.u32(message.xid);
  std::visit(BodyEncoder{w}, message.body);
  return std::move(w).take();
}

Header decode_header(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  Header h;
  h.version = r.u8();
  if (h.version != kVersion) {
    throw DecodeError("unsupported OpenFlow version " + std::to_string(h.version));
  }
  const std::uint8_t type = r.u8();
  if (type > static_cast<std::uint8_t>(MsgType::BarrierReply)) {
    throw DecodeError("unknown OpenFlow type " + std::to_string(type));
  }
  h.type = static_cast<MsgType>(type);
  h.length = r.u16();
  if (h.length < kHeaderSize) throw DecodeError("OpenFlow length shorter than header");
  h.xid = r.u32();
  return h;
}

Message decode(std::span<const std::uint8_t> data) {
  ++codec_ops().decodes;
  const Header h = decode_header(data);
  if (h.length > data.size()) throw DecodeError("truncated OpenFlow message");
  ByteReader body(data.subspan(kHeaderSize, h.length - kHeaderSize));
  Message m;
  m.xid = h.xid;
  m.body = decode_body(h.type, body);
  return m;
}

void FrameAssembler::feed(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

std::optional<Bytes> FrameAssembler::next_frame() {
  if (buf_.size() < kHeaderSize) return std::nullopt;
  const Header h = decode_header(buf_);
  if (buf_.size() < h.length) return std::nullopt;
  Bytes frame(buf_.begin(), buf_.begin() + h.length);
  buf_.erase(buf_.begin(), buf_.begin() + h.length);
  return frame;
}

}  // namespace attain::ofp
