// Distributed runtime injection — the paper's §VIII-C discussion made
// concrete. The centralized injector imposes a total order on control-plane
// events by construction; a distributed deployment must either re-impose
// that order (paying latency) or accept divergent attack state.
//
// Two coordination modes are implemented:
//
//  * TotalOrder — shards forward every observed message to a sequencer
//    that runs the single attack executor (one σ_current, one Δ) and ships
//    verdicts back. Semantics are identical to the centralized injector;
//    each message pays 2 x coordination_latency. This is the "total
//    ordering could be imposed through distributed systems techniques ...
//    at the cost of increased latency" branch of §VIII-C.
//
//  * LocalReplicas — every shard runs its own executor replica
//    (independent σ_current and Δ) and processes locally with zero added
//    latency. Attacks whose state spans connections on different shards
//    diverge from the centralized semantics — the §VIII-C consistency
//    hazard, made observable for study.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "attain/inject/executor.hpp"
#include "chan/envelope.hpp"
#include "sim/scheduler.hpp"
#include "topo/system_model.hpp"

namespace attain::inject {

enum class Coordination : std::uint8_t { TotalOrder, LocalReplicas };

std::string to_string(Coordination mode);

struct DistributedStats {
  std::uint64_t messages_interposed{0};
  std::uint64_t messages_delivered{0};
  std::uint64_t sequencer_round_trips{0};  // TotalOrder coordination hops
  /// Sum of coordination delay added across messages (for the §VIII-C
  /// latency-cost measurement).
  SimTime coordination_delay_total{0};
};

class DistributedInjector {
 public:
  DistributedInjector(sim::Scheduler& sched, const topo::SystemModel& system,
                      monitor::Monitor& monitor, unsigned shard_count, Coordination mode,
                      SimTime coordination_latency, std::uint64_t seed = 0xd157);

  /// Wires a control-plane connection; it is owned by shard
  /// (switch index mod shard_count). Endpoints exchange decode-once
  /// envelopes, as with the centralized injector.
  void attach_connection(ConnectionId id, chan::EnvelopeSink to_controller,
                         chan::EnvelopeSink to_switch);

  chan::EnvelopeSink switch_side_input(ConnectionId id);
  chan::EnvelopeSink controller_side_input(ConnectionId id);

  /// Arms the attack: TotalOrder creates one executor (at the sequencer);
  /// LocalReplicas creates one executor per shard, each starting at
  /// σ_start with its own storage.
  void arm(const dsl::CompiledAttack& attack, const model::CapabilityMap& capabilities);
  void disarm();
  bool armed() const { return !executors_.empty(); }

  unsigned shard_count() const { return shard_count_; }
  unsigned shard_of(ConnectionId id) const { return id.sw.index % shard_count_; }
  Coordination mode() const { return mode_; }

  /// Current attack state: TotalOrder has one; LocalReplicas one per shard
  /// (divergence shows up as differing names here).
  std::optional<std::string> current_state() const;
  std::optional<std::string> current_state_of_shard(unsigned shard) const;

  const DistributedStats& stats() const { return stats_; }

 private:
  struct Endpoint {
    chan::EnvelopeSink to_controller;
    chan::EnvelopeSink to_switch;
    bool tls{false};
  };

  void on_envelope(ConnectionId id, chan::Direction direction, chan::Envelope envelope);
  void execute_and_deliver(AttackExecutor& executor, lang::InFlightMessage msg,
                           SimTime extra_delivery_delay);
  void deliver(OutMessage out, SimTime extra_delay);

  sim::Scheduler& sched_;
  const topo::SystemModel& system_;
  monitor::Monitor& monitor_;
  unsigned shard_count_;
  Coordination mode_;
  SimTime coordination_latency_;
  Rng rng_;

  std::map<ConnectionId, Endpoint> endpoints_;
  /// TotalOrder: size 1 (the sequencer's executor). LocalReplicas: one per
  /// shard.
  std::vector<std::unique_ptr<AttackExecutor>> executors_;
  DistributedStats stats_;
  std::uint64_t next_message_id_{1};
};

}  // namespace attain::inject
