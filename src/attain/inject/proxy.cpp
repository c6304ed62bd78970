#include "attain/inject/proxy.hpp"

#include "common/log.hpp"
#include "ofp/codec.hpp"

namespace attain::inject {

namespace {

/// The channel stage that hands every frame to the RuntimeInjector. A frame
/// no rule can touch passes on (the channel forward()s it, as the
/// injector's own delivery would); any other frame is consumed, and the
/// injector's verdict re-enters the channel through Channel::forward()
/// (possibly on a different channel after a redirect, possibly later after
/// a delay).
class InjectorStage : public chan::Stage {
 public:
  InjectorStage(RuntimeInjector& injector, ConnectionId connection)
      : injector_(injector), connection_(connection) {}

  const char* name() const override { return "injector"; }

  bool on_envelope(chan::Channel&, chan::Direction direction,
                   chan::Envelope& envelope) override {
    if (injector_.try_pass_through(connection_, direction, envelope)) return true;
    injector_.on_envelope(connection_, direction, std::move(envelope));
    return false;
  }

 private:
  RuntimeInjector& injector_;
  ConnectionId connection_;
};

}  // namespace

RuntimeInjector::RuntimeInjector(sim::Scheduler& sched, const topo::SystemModel& system,
                                 monitor::Monitor& monitor, std::uint64_t fuzz_seed)
    : sched_(sched), system_(system), monitor_(monitor), rng_(fuzz_seed) {}

void RuntimeInjector::attach_connection(ConnectionId id, chan::EnvelopeSink to_controller,
                                        chan::EnvelopeSink to_switch) {
  if (!system_.has_control_connection(id)) {
    throw topo::ModelError("attach_connection: (" + system_.name_of(id.controller) + "," +
                           system_.name_of(id.sw) + ") is not in N_C");
  }
  bool tls = false;
  for (const topo::ControlConnSpec& spec : system_.control_connections()) {
    if (spec.id == id) tls = spec.tls;
  }
  endpoints_[id] = Endpoint{std::move(to_controller), std::move(to_switch), tls, nullptr};

  monitor::Event event;
  event.kind = monitor::EventKind::ConnectionAttached;
  event.time = sched_.now();
  event.connection = id;
  event.detail = tls ? "tls" : "tcp";
  monitor_.record(std::move(event));
}

void RuntimeInjector::attach_channel(chan::Channel& channel, ConnectionId id) {
  attach_connection(
      id,
      /*to_controller=*/
      [ch = &channel](chan::Envelope e) {
        ch->forward(chan::Direction::SwitchToController, std::move(e));
      },
      /*to_switch=*/
      [ch = &channel](chan::Envelope e) {
        ch->forward(chan::Direction::ControllerToSwitch, std::move(e));
      });
  endpoints_[id].channel = &channel;
  channel.add_stage(std::make_unique<chan::MonitorTapStage>(
      monitor_, id, [this] { return peek_next_message_id(); }));
  channel.add_stage(std::make_unique<chan::TraceStage>());
  channel.add_stage(std::make_unique<InjectorStage>(*this, id));
}

chan::EnvelopeSink RuntimeInjector::switch_side_input(ConnectionId id) {
  return [this, id](chan::Envelope envelope) {
    on_envelope(id, chan::Direction::SwitchToController, std::move(envelope));
  };
}

chan::EnvelopeSink RuntimeInjector::controller_side_input(ConnectionId id) {
  return [this, id](chan::Envelope envelope) {
    on_envelope(id, chan::Direction::ControllerToSwitch, std::move(envelope));
  };
}

void RuntimeInjector::arm(const dsl::CompiledAttack& attack,
                          const model::CapabilityMap& capabilities) {
  executor_ = std::make_unique<AttackExecutor>(attack, capabilities, monitor_, rng_);
  executor_->set_use_compiled(use_compiled_);
  ATTAIN_LOG(Info, "injector") << "armed attack '" << attack.name << "' at state "
                               << executor_->current_state_name();
}

void RuntimeInjector::disarm() { executor_.reset(); }

void RuntimeInjector::set_syscmd_handler(
    std::function<void(const std::string&, const std::string&)> handler) {
  syscmd_handler_ = std::move(handler);
}

std::optional<std::string> RuntimeInjector::current_state() const {
  if (!executor_) return std::nullopt;
  return executor_->current_state_name();
}

lang::InFlightMessage RuntimeInjector::make_in_flight(ConnectionId id, chan::Direction direction,
                                                      chan::Envelope envelope, bool tls) {
  lang::InFlightMessage msg;
  msg.connection = id;
  msg.direction = direction;
  if (direction == chan::Direction::SwitchToController) {
    msg.source = id.sw;
    msg.destination = id.controller;
  } else {
    msg.source = id.controller;
    msg.destination = id.sw;
  }
  msg.timestamp = sched_.now();
  msg.id = next_message_id_++;
  msg.envelope = std::move(envelope);
  msg.tls = tls;
  return msg;
}

void RuntimeInjector::on_envelope(ConnectionId id, chan::Direction direction,
                                  chan::Envelope envelope) {
  const auto endpoint = endpoints_.find(id);
  if (endpoint == endpoints_.end()) return;  // connection never attached
  ++stats_.messages_interposed;
  // The interposer cannot read ciphertext: seal before any rule runs (the
  // channel already sealed if the frame travelled one; the side-input path
  // seals here).
  if (endpoint->second.tls && !envelope.sealed()) envelope.seal();
  lang::InFlightMessage msg =
      make_in_flight(id, direction, std::move(envelope), endpoint->second.tls);

  if (endpoint->second.channel == nullptr) {
    // No channel (and hence no monitor-tap stage) upstream: record the
    // observation here.
    monitor::Event event;
    event.kind = monitor::EventKind::MessageObserved;
    event.time = msg.timestamp;
    event.connection = id;
    event.direction = direction;
    event.message_id = msg.id;
    if (const ofp::Message* payload = msg.payload()) event.message_type = payload->type();
    event.length = msg.length();
    monitor_.record(std::move(event));
  }

  if (sched_.now() < paused_until_) {
    // A SLEEP() is in effect: queue behind it, order preserved by the
    // scheduler's FIFO tie-breaking.
    auto shared = std::make_shared<lang::InFlightMessage>(std::move(msg));
    sched_.at(paused_until_, [this, shared] { process_now(std::move(*shared)); });
    return;
  }
  process_now(std::move(msg));
}

bool RuntimeInjector::try_pass_through(ConnectionId id, chan::Direction direction,
                                       const chan::Envelope& envelope) {
  if (sched_.now() < paused_until_) return false;  // SLEEP() queueing in effect
  const auto endpoint = endpoints_.find(id);
  if (endpoint == endpoints_.end()) return false;
  // The side-input (channel-less) path records MessageObserved here rather
  // than in a tap stage; keep it on on_envelope().
  if (endpoint->second.channel == nullptr) return false;
  // Seal state must already match so on_envelope()'s seal step is a no-op.
  if (endpoint->second.tls != envelope.sealed()) return false;
  // A full-event monitor would store a MessageForwarded Event per frame.
  if (monitor_.enabled(monitor::EventKind::MessageForwarded)) return false;
  if (executor_) {
    const ofp::Message* message = envelope.message();
    if (!executor_->skip_by_guards(
            id, direction,
            message != nullptr ? std::optional<ofp::MsgType>(message->type()) : std::nullopt)) {
      return false;
    }
  }
  ++stats_.messages_interposed;
  ++next_message_id_;  // the id this frame would have been assigned
  ++stats_.messages_delivered;
  monitor_.tally(monitor::EventKind::MessageForwarded);
  return true;
}

void RuntimeInjector::process_now(lang::InFlightMessage msg) {
  if (!executor_) {
    // Disarmed: pure proxy.
    deliver(OutMessage{std::move(msg), 0});
    return;
  }
  const ConnectionId connection = msg.connection;
  const chan::Direction direction = msg.direction;
  ExecutionResult result = executor_->process(std::move(msg));
  if (result.sleep > 0) {
    paused_until_ = std::max(paused_until_, sched_.now() + result.sleep);
  }
  for (const SysCmdCall& call : result.syscmds) {
    ++stats_.syscmds_executed;
    if (syscmd_handler_) syscmd_handler_(call.host, call.command);
  }
  const std::uint64_t before = stats_.messages_delivered;
  for (OutMessage& out : result.outgoing) {
    deliver(std::move(out));
  }
  if (stats_.messages_delivered == before) {
    ++stats_.messages_suppressed;
    const auto endpoint = endpoints_.find(connection);
    if (endpoint != endpoints_.end() && endpoint->second.channel != nullptr) {
      endpoint->second.channel->note_suppressed(direction);
    }
  }
}

void RuntimeInjector::deliver(OutMessage out) {
  lang::InFlightMessage& msg = out.message;

  // Resolve the carrying connection: a redirect may have retargeted the
  // message at a different switch/controller; find the matching attached
  // connection.
  ConnectionId conn = msg.connection;
  if (msg.direction == chan::Direction::ControllerToSwitch) {
    if (msg.destination != conn.sw) conn.sw = msg.destination;
  } else {
    if (msg.destination != conn.controller) conn.controller = msg.destination;
  }
  const auto endpoint = endpoints_.find(conn);
  if (endpoint == endpoints_.end()) {
    ++stats_.undeliverable;
    if (monitor_.enabled(monitor::EventKind::EvalError)) {
      monitor::Event event;
      event.kind = monitor::EventKind::EvalError;
      event.time = sched_.now();
      event.connection = msg.connection;
      event.detail = "undeliverable: no attached connection for redirect target";
      monitor_.record(std::move(event));
    } else {
      monitor_.tally(monitor::EventKind::EvalError);
    }
    return;
  }

  auto do_send = [this, conn, direction = msg.direction,
                  envelope = std::move(msg.envelope)]() mutable {
    const auto ep = endpoints_.find(conn);
    if (ep == endpoints_.end()) return;
    ++stats_.messages_delivered;
    if (monitor_.enabled(monitor::EventKind::MessageForwarded)) {
      monitor::Event event;
      event.kind = monitor::EventKind::MessageForwarded;
      event.time = sched_.now();
      event.connection = conn;
      event.direction = direction;
      if (const ofp::Message* payload = envelope.message()) event.message_type = payload->type();
      event.length = envelope.wire_size();
      monitor_.record(std::move(event));
    } else {
      monitor_.tally(monitor::EventKind::MessageForwarded);
    }
    if (direction == chan::Direction::ControllerToSwitch) {
      if (ep->second.to_switch) ep->second.to_switch(std::move(envelope));
    } else {
      if (ep->second.to_controller) ep->second.to_controller(std::move(envelope));
    }
  };

  if (out.delay > 0) {
    sched_.after(out.delay, std::move(do_send));
  } else {
    do_send();
  }
}

}  // namespace attain::inject
