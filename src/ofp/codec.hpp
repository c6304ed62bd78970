// OpenFlow 1.0 wire codec: header framing plus per-message body
// encode/decode. The runtime injector interposes on these wire bytes, so
// everything the switches and controllers exchange round-trips through this
// codec (like the paper's use of Loxi).
#pragma once

#include <span>

#include "common/bytes.hpp"
#include "ofp/messages.hpp"

namespace attain::ofp {

/// Decoded struct ofp_header.
struct Header {
  std::uint8_t version{kVersion};
  MsgType type{MsgType::Hello};
  std::uint16_t length{kHeaderSize};
  std::uint32_t xid{0};
};

/// Per-thread codec invocation counters. encode()/decode() bump these; the
/// channel-pipeline bench (bench_channel_codec) measures the decode-once
/// envelope path against the encode/decode/decode byte pipeline with them.
/// Thread-local so parallel sweep workers never race — each cell reads its
/// own thread's tally.
struct CodecOpCounters {
  std::uint64_t encodes{0};
  std::uint64_t decodes{0};
  std::uint64_t total() const { return encodes + decodes; }
};

CodecOpCounters& codec_ops();
void reset_codec_ops();

/// The exact length of encode(message), computed without encoding. Throws
/// std::length_error where encode() does: a message over 64 KiB.
std::size_t wire_size(const Message& message);

/// Serializes a message (header + body) to wire bytes.
Bytes encode(const Message& message);

/// Peeks at the 8-byte header without touching the body. Throws DecodeError
/// if fewer than 8 bytes are available or the version is not 0x01.
Header decode_header(std::span<const std::uint8_t> data);

/// Decodes one complete message. Throws DecodeError on truncation, version
/// mismatch, or malformed bodies.
Message decode(std::span<const std::uint8_t> data);

/// Stream reassembler: feed TCP-segment-like byte chunks, pop complete
/// OpenFlow frames (length taken from each header). Used by the proxy to be
/// robust to arbitrary chunking.
class FrameAssembler {
 public:
  void feed(std::span<const std::uint8_t> data);

  /// Extracts the next complete frame's raw bytes, or std::nullopt if more
  /// input is needed. Throws DecodeError on an unparseable header.
  std::optional<Bytes> next_frame();

  std::size_t buffered() const { return buf_.size(); }

 private:
  Bytes buf_;
};

}  // namespace attain::ofp
