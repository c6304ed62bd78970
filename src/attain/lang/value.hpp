// Runtime values of the attack language: the message-in-flight record the
// injector evaluates rules against (§V-A message properties), and the Value
// variant stored in deques and produced by expressions.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>

#include "chan/envelope.hpp"
#include "common/bytes.hpp"
#include "common/types.hpp"
#include "ofp/messages.hpp"

namespace attain::lang {

/// Which way a control-plane message is travelling on its connection.
/// (Canonically defined by the channel layer; aliased here for the
/// language's message-property vocabulary.)
using Direction = chan::Direction;
using chan::to_string;

/// A control message as seen by the runtime injector's proxy, carrying the
/// paper's message properties. Metadata (source, destination, timestamp,
/// length, id) is always populated; the payload view (via the envelope's
/// decode-once cache) is readable only for non-TLS connections — a sealed
/// envelope answers payload() with nullptr, since the injector cannot
/// parse ciphertext.
struct InFlightMessage {
  ConnectionId connection;
  Direction direction{Direction::SwitchToController};
  EntityId source;        // MESSAGESOURCE (∈ C ∪ S)
  EntityId destination;   // MESSAGEDESTINATION (∈ C ∪ S)
  SimTime timestamp{0};   // MESSAGETIMESTAMP (arrival time)
  std::uint64_t id{0};    // MESSAGEID (unique, injector-assigned)
  /// The frame itself: wire bytes + decoded view, lazily cross-derived.
  chan::Envelope envelope;
  bool tls{false};

  /// MESSAGELENGTH — the frame's wire size.
  std::size_t length() const { return envelope.wire_size(); }
  /// Decoded payload (MESSAGETYPE + MESSAGETYPEOPTIONS); nullptr when the
  /// envelope is sealed (TLS) or the frame does not parse.
  const ofp::Message* payload() const { return envelope.message(); }
  ofp::Message* mutable_payload() { return envelope.mutable_message(); }
  const Bytes& wire() const { return envelope.wire(); }

  /// Every field but the frame, whose envelope is left empty: the msg_out
  /// entry the attack executor holds until it knows whether msg_in's frame
  /// must be copied or can be moved.
  InFlightMessage without_frame() const {
    InFlightMessage copy;
    copy.connection = connection;
    copy.direction = direction;
    copy.source = source;
    copy.destination = destination;
    copy.timestamp = timestamp;
    copy.id = id;
    copy.tls = tls;
    return copy;
  }
};

/// Encodes an entity id as an expression-comparable integer. Guaranteed
/// distinct across kinds and indices.
constexpr std::int64_t entity_value(EntityId id) {
  return (static_cast<std::int64_t>(id.kind) + 1) * (std::int64_t{1} << 32) +
         static_cast<std::int64_t>(id.index);
}

/// A stored message (deques hold snapshots so replay survives the original
/// leaving the pipeline).
using StoredMessage = std::shared_ptr<const InFlightMessage>;

/// The language's value domain: integers (counters, addresses, field
/// values), strings (rare: monitor annotations), and captured messages.
using Value = std::variant<std::int64_t, std::string, StoredMessage>;

std::string to_string(const Value& value);

/// True iff both are integers/strings and equal, or both reference the
/// same stored message.
bool value_equals(const Value& a, const Value& b);

}  // namespace attain::lang
