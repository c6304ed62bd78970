// Decode-once control-channel envelopes. An Envelope carries one OpenFlow
// frame in whichever representation it currently has — the decoded
// ofp::Message, the wire bytes, or both — and materializes the missing view
// lazily, caching the result. The byte pipeline it replaces paid a full
// encode at the switch, a decode at the injector proxy, and another decode
// at the controller for every interposed frame; an envelope built from a
// typed message pays no codec call on the happy path. Its wire size comes
// from the typed view (ofp::wire_size), so pipe serialization, traces and
// MESSAGELENGTH never encode; bytes materialize only when someone asks for
// them with wire() or mutable_wire() (e.g. FUZZ).
//
// Cache coherence: mutable_message() marks the wire bytes stale (they are
// re-encoded from the mutated message on the next wire() call) and
// mutable_wire() marks the decoded view stale (re-decoded on the next
// message() call) — so a modifier edit or a fuzzer bit-flip can never leak
// a mismatched view.
//
// TLS is modelled by seal(): a sealed envelope answers message() with
// nullptr (an interposer cannot parse ciphertext) while wire() — the
// ciphertext-sized frame — stays readable; the receiving endpoint unseal()s
// and recovers the cached decoded view without a codec call.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "ofp/codec.hpp"
#include "ofp/messages.hpp"

namespace attain::chan {

/// Which way a control-plane frame travels on its connection.
enum class Direction : std::uint8_t { SwitchToController, ControllerToSwitch };

std::string to_string(Direction direction);

class Envelope {
 public:
  Envelope() = default;
  /// Raw-wire ingress (e.g. from a socket or a fuzzed frame); the decoded
  /// view materializes on the first message() call.
  Envelope(Bytes wire) : wire_(std::move(wire)) {}
  /// Typed origin (an endpoint composing a message); the wire bytes
  /// materialize on the first wire() call.
  Envelope(ofp::Message message) : message_(std::move(message)) {}

  static Envelope from_wire(Bytes wire) { return Envelope(std::move(wire)); }
  static Envelope from_message(ofp::Message message) { return Envelope(std::move(message)); }
  /// Both views up front, both caches valid — the stamped-template emit
  /// path uses this to skip the first-hop encode. The caller guarantees
  /// `wire` is byte-identical to ofp::encode(message) (StampedTemplate
  /// validates this invariant at build time and under differential fuzz).
  static Envelope from_parts(ofp::Message message, Bytes wire) {
    Envelope envelope(std::move(message));
    envelope.wire_ = std::move(wire);
    return envelope;
  }

  /// The decoded view: cached after the first call. Returns nullptr while
  /// sealed, when the envelope is empty, or when the wire bytes do not
  /// parse (see decode_error()).
  const ofp::Message* message() const;
  /// Mutable decoded view for modifiers; marks the wire bytes stale so the
  /// next wire() re-encodes. Returns nullptr exactly when message() would.
  ofp::Message* mutable_message();
  /// Replaces the payload wholesale (wire re-encodes lazily).
  void set_message(ofp::Message message);

  /// The wire bytes: cached after the first call (encoded on demand from
  /// the decoded view). An empty envelope yields empty bytes.
  const Bytes& wire() const;
  /// Mutable wire bytes for fuzzing; materializes them first and marks the
  /// decoded view stale so the next message() re-decodes.
  Bytes& mutable_wire();
  /// The frame's length on the wire, answered from whichever view is
  /// current without a codec call: the cached bytes, else
  /// ofp::wire_size() of the decoded view (which throws where encode()
  /// would). An empty envelope has size 0.
  std::size_t wire_size() const;

  /// TLS opacity: while sealed, message()/mutable_message() return nullptr.
  /// The cached decoded view is hidden, not destroyed — unseal() restores
  /// it without a codec call.
  void seal() { sealed_ = true; }
  void unseal() { sealed_ = false; }
  bool sealed() const { return sealed_; }

  /// True when the decoded view is cached and current (a message() call
  /// would not invoke the codec). Sealing does not clear this.
  bool has_message() const { return message_.has_value() && !message_stale_; }
  /// True when the wire bytes are cached and current.
  bool has_wire() const { return wire_.has_value() && !wire_stale_; }
  /// True when the current wire bytes were tried and failed to decode.
  /// Reset when the wire changes.
  bool decode_failed() const { return decode_attempted_ && !message_.has_value(); }
  /// The DecodeError text of the last failed decode attempt.
  const std::string& decode_error() const { return decode_error_; }

 private:
  void ensure_message() const;
  void ensure_wire() const;

  // Lazy caches: logically const, mutated on first access. Envelopes live
  // on one scheduler thread (a cell is single-threaded by construction),
  // so no synchronization is needed.
  mutable std::optional<ofp::Message> message_;
  mutable std::optional<Bytes> wire_;
  mutable bool message_stale_{false};  // wire mutated since message_ was derived
  mutable bool wire_stale_{false};     // message mutated since wire_ was derived
  mutable bool decode_attempted_{false};
  mutable std::string decode_error_;
  bool sealed_{false};
};

/// A typed destination for envelopes: endpoint delivery, channel ingress,
/// and injector side-inputs all share this shape.
using EnvelopeSink = std::function<void(Envelope)>;

/// Shared endpoint-ingress step (the switch and the controller used to
/// carry copy-pasted decode-catch-log loops): unseals the envelope and
/// returns the decoded view, or nullptr after bumping `decode_errors` and
/// logging a Debug line as "<who>". `context` annotates the log line (e.g.
/// "conn 3"). The switch's BadRequest error reply stays at its call site.
const ofp::Message* ingress_decode(Envelope& envelope, const std::string& who,
                                   std::uint64_t& decode_errors,
                                   const std::string& context = {});

}  // namespace attain::chan
