#include "chan/envelope.hpp"

#include "common/log.hpp"

namespace attain::chan {

std::string to_string(Direction direction) {
  return direction == Direction::SwitchToController ? "switch->controller"
                                                    : "controller->switch";
}

void Envelope::ensure_message() const {
  if (message_.has_value() && !message_stale_) return;
  if (!wire_.has_value() || wire_stale_) return;  // empty envelope
  if (decode_attempted_) return;                  // sticky failure for this wire
  decode_attempted_ = true;
  try {
    message_ = ofp::decode(*wire_);
    message_stale_ = false;
    decode_error_.clear();
  } catch (const DecodeError& err) {
    message_.reset();
    decode_error_ = err.what();
  }
}

const ofp::Message* Envelope::message() const {
  if (sealed_) return nullptr;
  ensure_message();
  if (!message_.has_value() || message_stale_) return nullptr;
  return &*message_;
}

ofp::Message* Envelope::mutable_message() {
  if (sealed_) return nullptr;
  ensure_message();
  if (!message_.has_value() || message_stale_) return nullptr;
  wire_stale_ = true;
  return &*message_;
}

void Envelope::set_message(ofp::Message message) {
  message_ = std::move(message);
  message_stale_ = false;
  wire_stale_ = true;
  decode_attempted_ = false;
  decode_error_.clear();
}

void Envelope::ensure_wire() const {
  if (wire_.has_value() && !wire_stale_) return;
  if (message_.has_value() && !message_stale_) {
    wire_ = ofp::encode(*message_);
  } else if (!wire_.has_value()) {
    wire_ = Bytes{};
  }
  wire_stale_ = false;
}

std::size_t Envelope::wire_size() const {
  if (has_wire()) return wire_->size();
  if (has_message()) return ofp::wire_size(*message_);
  return 0;  // empty envelope
}

const Bytes& Envelope::wire() const {
  ensure_wire();
  return *wire_;
}

Bytes& Envelope::mutable_wire() {
  ensure_wire();
  message_stale_ = true;
  decode_attempted_ = false;
  decode_error_.clear();
  return *wire_;
}

const ofp::Message* ingress_decode(Envelope& envelope, const std::string& who,
                                   std::uint64_t& decode_errors, const std::string& context) {
  envelope.unseal();
  const ofp::Message* message = envelope.message();
  if (message == nullptr) {
    ++decode_errors;
    ATTAIN_LOG(Debug, who) << "undecodable control frame"
                           << (context.empty() ? "" : " from " + context) << ": "
                           << envelope.decode_error();
  }
  return message;
}

}  // namespace attain::chan
