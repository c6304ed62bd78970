// The unified control-channel pipeline. One Channel models one switch <->
// controller control connection routed through the interposition point:
//
//   switch ==pipe==> [proxy point: stage 0 -> stage 1 -> ...] ==pipe==> controller
//          <==pipe== [                 ...                  ] <==pipe==
//
// Both directions traverse the same ordered stage chain at the proxy point.
// Each stage gets the envelope by reference and either passes it on
// (monitor tap, trace, and the injector when no rule can touch the frame)
// or consumes it by moving it out (the injector proxy stage), to re-enter
// the channel later through forward() — possibly on a different channel,
// which is how redirected messages travel. Endpoints attach as envelope
// sinks, so the whole path is typed: a typed frame is never encoded (pipes
// size it with Envelope::wire_size()) and a raw frame is decoded at most
// once, instead of the encode/decode/decode round-trip the previous
// std::function<void(Bytes)> plumbing paid per frame.
//
// Each channel keeps per-direction counters and a bounded trace ring that
// sweep results can serialize; both are deterministic (virtual-time stamps
// only).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "attain/monitor/monitor.hpp"
#include "chan/envelope.hpp"
#include "common/arena.hpp"
#include "common/json.hpp"
#include "sim/link.hpp"
#include "sim/scheduler.hpp"

namespace attain::chan {

/// Per-direction channel accounting. codec_ops_saved counts the
/// ofp::encode/ofp::decode invocations the envelope cache avoided relative
/// to the byte pipeline (one proxy decode per readable frame, one endpoint
/// decode per delivered frame).
struct DirectionCounters {
  std::uint64_t frames{0};            // entered the channel at this direction's ingress
  std::uint64_t forwarded{0};         // left the proxy point toward the endpoint
  std::uint64_t suppressed{0};        // consumed at the proxy point (injector verdict)
  std::uint64_t decode_errors{0};     // frames whose wire bytes do not parse
  std::uint64_t codec_ops_saved{0};

  void add(const DirectionCounters& other);
  void write_json(JsonWriter& w) const;
};

/// One trace-ring record: a frame passing the proxy point.
struct TraceEntry {
  SimTime time{0};
  Direction direction{Direction::SwitchToController};
  std::optional<ofp::MsgType> type;  // absent for sealed/undecodable frames
  std::uint32_t xid{0};
  std::size_t length{0};
};

/// Bounded ring of the most recent TraceEntry records (oldest evicted).
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity) : capacity_(capacity) {
    // The ring is a run-scoped buffer: grab the whole capacity up front so
    // steady-state pushes never grow the vector.
    entries_.reserve(capacity_);
  }

  void push(TraceEntry entry);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return entries_.size(); }
  /// Entries evicted to make room (total pushed = size() + dropped()).
  std::uint64_t dropped() const { return total_ > entries_.size() ? total_ - entries_.size() : 0; }
  /// Oldest-first copy of the retained entries.
  std::vector<TraceEntry> snapshot() const;

  void write_json(JsonWriter& w) const;

 private:
  std::size_t capacity_;
  mem::vector<TraceEntry> entries_;  // ring storage, wraps at capacity_
  std::size_t head_{0};              // index of the oldest entry once full
  std::uint64_t total_{0};
};

class Channel;

/// A coalesced burst of envelopes sharing one delivery instant on one pipe
/// (see sim::PayloadBatch and Pipe::set_batch_receiver).
using EnvelopeBatch = sim::PayloadBatch<Envelope>;

/// One interposition stage at the channel's proxy point. on_envelope()
/// receives every frame (both directions) by reference. It returns true to
/// pass the envelope to the next stage (the channel forward()s after the
/// last one), or false when it consumed the envelope: moved it out, and
/// took over all forwarding or suppression accounting itself — typically
/// re-entering the channel later through Channel::forward().
class Stage {
 public:
  virtual ~Stage() = default;
  virtual const char* name() const = 0;
  virtual bool on_envelope(Channel& channel, Direction direction, Envelope& envelope) = 0;
};

struct ChannelConfig {
  std::string name{"chan"};
  /// TLS connection: frames are sealed at the proxy point (stages cannot
  /// read the payload) and unsealed at delivery.
  bool tls{false};
  /// Per-hop pipe configuration (switch<->proxy and proxy<->controller
  /// segments — two hops per direction, as in the paper's deployment where
  /// the proxy sits on a dedicated control network).
  sim::PipeConfig segment{1'000'000'000, 150 * kMicrosecond, 0};
  std::size_t trace_capacity{64};
};

class Channel {
 public:
  Channel(sim::Scheduler& sched, ChannelConfig config);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  const ChannelConfig& config() const { return config_; }
  sim::Scheduler& scheduler() { return sched_; }

  // --- endpoint wiring -----------------------------------------------------
  /// Delivery sinks at the two ends (invoked after the egress pipe hop,
  /// with the envelope unsealed).
  void set_switch_sink(EnvelopeSink sink) { switch_sink_ = std::move(sink); }
  void set_controller_sink(EnvelopeSink sink) { controller_sink_ = std::move(sink); }

  /// Ingress: endpoints send their frames here (the switch's control
  /// sender / the controller's connection sender).
  void send_from_switch(Envelope envelope);
  void send_from_controller(Envelope envelope);
  /// The above, bound as sinks for handing to endpoints.
  EnvelopeSink switch_sender();
  EnvelopeSink controller_sender();

  // --- stages --------------------------------------------------------------
  /// Appends a stage to the proxy point; stages run in insertion order.
  void add_stage(std::unique_ptr<Stage> stage);
  std::size_t stage_count() const { return stages_.size(); }

  /// Egress from the proxy point: sends the envelope down the pipe toward
  /// the endpoint `direction` points at. Used by the injector stage (and
  /// by the channel itself when the stage chain runs to completion).
  void forward(Direction direction, Envelope envelope);
  /// Accounting hook for a stage that consumed a frame.
  void note_suppressed(Direction direction);

  // --- observability -------------------------------------------------------
  const DirectionCounters& counters(Direction direction) const {
    return counters_[static_cast<std::size_t>(direction)];
  }
  /// Both directions summed.
  DirectionCounters totals() const;
  TraceRing& trace() { return trace_; }
  const TraceRing& trace() const { return trace_; }

  /// Deterministic JSON: {"name", "tls", "switch_to_controller": {...},
  /// "controller_to_switch": {...}, "trace": [...]}.
  void write_json(JsonWriter& w) const;
  std::string to_json() const;

 private:
  /// The proxy point's only entry (a lone frame is a batch of one): seal
  /// and codec accounting per envelope, then the stage chain, then
  /// forward() unless a stage consumed the envelope.
  void arrive_at_proxy_batch(Direction direction, EnvelopeBatch batch);
  /// The endpoints' only delivery entry: unseals each envelope and hands
  /// it to the sink.
  void deliver_batch(Direction direction, EnvelopeBatch batch);
  DirectionCounters& dir_counters(Direction direction) {
    return counters_[static_cast<std::size_t>(direction)];
  }

  sim::Scheduler& sched_;
  ChannelConfig config_;

  sim::Pipe<Envelope> switch_to_proxy_;
  sim::Pipe<Envelope> proxy_to_switch_;
  sim::Pipe<Envelope> controller_to_proxy_;
  sim::Pipe<Envelope> proxy_to_controller_;

  std::vector<std::unique_ptr<Stage>> stages_;
  EnvelopeSink switch_sink_;
  EnvelopeSink controller_sink_;

  std::array<DirectionCounters, 2> counters_{};
  TraceRing trace_;
};

// ---------------------------------------------------------------------------
// Stock stages.
// ---------------------------------------------------------------------------

/// Records a monitor::EventKind::MessageObserved event for every frame
/// passing the proxy point (the §VI-B3 monitor attachment). `message_id`
/// supplies the id the injector will assign to the frame (so tap events and
/// injector events agree); defaults to 0 for standalone use. A
/// counters-only monitor gets the same counter bumps through
/// tally_observed(), without building the Event it would drop.
class MonitorTapStage : public Stage {
 public:
  MonitorTapStage(monitor::Monitor& monitor, ConnectionId connection,
                  std::function<std::uint64_t()> message_id = {});

  const char* name() const override { return "monitor-tap"; }
  bool on_envelope(Channel& channel, Direction direction, Envelope& envelope) override;

 private:
  monitor::Monitor& monitor_;
  ConnectionId connection_;
  std::function<std::uint64_t()> message_id_;
};

/// Appends a TraceEntry to the channel's ring for every frame passing the
/// proxy point.
class TraceStage : public Stage {
 public:
  const char* name() const override { return "trace"; }
  bool on_envelope(Channel& channel, Direction direction, Envelope& envelope) override;
};

}  // namespace attain::chan
