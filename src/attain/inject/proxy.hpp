// The control-plane connection proxy of §VI-B2: a single, centralized
// runtime-injector instance interposing every control-plane connection
// (switch-side server, controller-side client), imposing a total order on
// control-plane events. Switches are pointed at the proxy instead of the
// controller — no switch or controller modification is required.
//
// The proxy speaks chan::Envelope: frames arrive with their decoded view
// already cached (decode-once), rules read it for free, and delivery hands
// the same envelope onward — the per-frame encode/decode round-trips of
// the old byte plumbing are gone. attach_channel() is the one-call wiring
// path: it installs the injector (plus monitor-tap and trace stages) on a
// chan::Channel's proxy point and delivers through the channel's egress.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "attain/inject/executor.hpp"
#include "chan/channel.hpp"
#include "sim/scheduler.hpp"
#include "topo/system_model.hpp"

namespace attain::inject {

struct InjectorStats {
  std::uint64_t messages_interposed{0};
  std::uint64_t messages_delivered{0};
  std::uint64_t messages_suppressed{0};   // interposed minus delivered messages
  std::uint64_t syscmds_executed{0};
  std::uint64_t undeliverable{0};         // redirects to unattached connections
};

class RuntimeInjector {
 public:
  /// `syscmd_handler(host, command)` actuates SYSCMD() on a test host; the
  /// scenario harness registers one (e.g. "start iperf server").
  RuntimeInjector(sim::Scheduler& sched, const topo::SystemModel& system,
                  monitor::Monitor& monitor, std::uint64_t fuzz_seed = 0xa77a19);

  /// Wires one control-plane connection through the proxy. `to_controller`
  /// and `to_switch` deliver envelopes to the real endpoints. The
  /// connection must exist in the system model's N_C (its TLS flag is
  /// taken from there).
  void attach_connection(ConnectionId id, chan::EnvelopeSink to_controller,
                         chan::EnvelopeSink to_switch);

  /// One-call channel wiring: attaches the connection, appends the stock
  /// stage set (monitor tap, trace, injector proxy) to the channel, and
  /// delivers through the channel's egress pipes. The channel must outlive
  /// the injector.
  void attach_channel(chan::Channel& channel, ConnectionId id);

  /// Input functions to hand to the endpoints: the switch sends its
  /// control frames into switch_side_input; the controller into
  /// controller_side_input. (attach_channel() wires these automatically.)
  chan::EnvelopeSink switch_side_input(ConnectionId id);
  chan::EnvelopeSink controller_side_input(ConnectionId id);

  /// The interposition point itself: every frame of an attached connection
  /// lands here (via a channel's injector stage or the side-input sinks).
  void on_envelope(ConnectionId id, chan::Direction direction, chan::Envelope envelope);

  /// The injector stage's shortcut for frames no rule can touch. When
  /// on_envelope() for this frame on `id` would reduce to counter
  /// bookkeeping plus one channel forward — no SLEEP() queueing, no rule
  /// evaluation (disarmed, or every bucketed rule guard-rejects the frame),
  /// no stored monitor events, no redirect or suppression — does exactly
  /// that bookkeeping and returns true; the caller forwards the envelope
  /// itself. Otherwise returns false and changes nothing.
  bool try_pass_through(ConnectionId id, chan::Direction direction,
                        const chan::Envelope& envelope);

  /// Arms an attack: the executor starts at σ_start with fresh storage.
  /// Both referents must outlive the injector or a later disarm().
  void arm(const dsl::CompiledAttack& attack, const model::CapabilityMap& capabilities);

  /// Disarms: every subsequent message passes untouched.
  void disarm();
  bool armed() const { return executor_ != nullptr; }

  /// Selects the rule-evaluation engine for attacks armed after this call
  /// (compiled flat programs vs. the tree-walking interpreter). Plumbed
  /// from scenario::Options::use_compiled at testbed construction.
  void set_use_compiled(bool enabled) { use_compiled_ = enabled; }
  bool use_compiled() const { return use_compiled_; }

  void set_syscmd_handler(std::function<void(const std::string&, const std::string&)> handler);

  const InjectorStats& stats() const { return stats_; }
  /// The id the next interposed message will receive (monitor taps use
  /// this so observed-event ids agree with injector-assigned ids).
  std::uint64_t peek_next_message_id() const { return next_message_id_; }
  /// Current attack state name; std::nullopt when disarmed.
  std::optional<std::string> current_state() const;
  const AttackExecutor* executor() const { return executor_.get(); }

 private:
  struct Endpoint {
    chan::EnvelopeSink to_controller;
    chan::EnvelopeSink to_switch;
    bool tls{false};
    /// Set by attach_channel(): suppression verdicts are mirrored into the
    /// channel's counters, and MessageObserved recording is left to the
    /// channel's monitor-tap stage.
    chan::Channel* channel{nullptr};
  };

  void process_now(lang::InFlightMessage msg);
  void deliver(OutMessage out);
  lang::InFlightMessage make_in_flight(ConnectionId id, chan::Direction direction,
                                       chan::Envelope envelope, bool tls);

  sim::Scheduler& sched_;
  const topo::SystemModel& system_;
  monitor::Monitor& monitor_;
  Rng rng_;
  std::map<ConnectionId, Endpoint> endpoints_;
  std::unique_ptr<AttackExecutor> executor_;
  std::function<void(const std::string&, const std::string&)> syscmd_handler_;
  InjectorStats stats_;
  bool use_compiled_{true};
  std::uint64_t next_message_id_{1};
  /// SLEEP() pause: messages arriving before this instant queue up and are
  /// processed (in order) when the pause ends.
  SimTime paused_until_{0};
};

}  // namespace attain::inject
