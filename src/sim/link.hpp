// Point-to-point link and channel models.
//
// Pipe<T> is a unidirectional FIFO transmission pipe with finite bandwidth,
// propagation delay, and a bounded drop-tail queue. The data plane sends
// packet::Packet through pairs of pipes; the control plane sends
// chan::Envelope frames, each one OpenFlow message in decoded form, wire
// form or both (with effectively infinite bandwidth but nonzero
// latency, modelling a healthy management network as in the paper's GENI
// deployment, where the control network was a separate switch).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "common/arena.hpp"
#include "common/types.hpp"
#include "sim/scheduler.hpp"

namespace attain::sim {

/// One coalesced payload inside a PayloadBatch.
template <typename T>
struct BatchItem {
  T payload;
  std::size_t size_bytes{0};
};

/// A burst of payloads that share one delivery instant on one pipe. The
/// batch fires as a single scheduler event but counts as one logical event
/// per item (Scheduler::count_extra_events), so events_executed() and every
/// delivery side effect match a schedule of one event per payload.
template <typename T>
using PayloadBatch = mem::vector<BatchItem<T>>;

/// Counters describing a pipe's lifetime behaviour; used by monitors and
/// the benchmark harness.
struct PipeStats {
  std::uint64_t enqueued{0};
  std::uint64_t delivered{0};
  std::uint64_t dropped_overflow{0};
  std::uint64_t bytes_delivered{0};
};

/// Configuration for a Pipe. bandwidth_bps == 0 means "infinite" (no
/// serialization delay); queue_limit == 0 means unbounded.
struct PipeConfig {
  std::uint64_t bandwidth_bps{100'000'000};  // paper: 100 Mbps links
  SimTime propagation_delay{500 * kMicrosecond};
  std::size_t queue_limit{256};
};

/// Unidirectional transmission pipe. The receiver is a callback taking the
/// payload by value; payload sizes are supplied by the caller so the pipe
/// stays agnostic of the payload type.
template <typename T>
class Pipe {
 public:
  using Receiver = std::function<void(T)>;
  using BatchReceiver = std::function<void(PayloadBatch<T>)>;

  Pipe(Scheduler& sched, PipeConfig config) : sched_(&sched), config_(config) {}

  void set_receiver(Receiver receiver) { receiver_ = std::move(receiver); }

  /// Opts this pipe into delivery coalescing: consecutive sends that share a
  /// delivery instant — with no event scheduled anywhere in between (see
  /// Scheduler::issue_seq) — are handed to `receiver` as one batch instead
  /// of one event each; a lone payload arrives as a batch of one. Delivery
  /// order, per-payload stats, and events_executed() accounting are
  /// preserved exactly. A pipe with a batch receiver never calls the
  /// per-payload receiver.
  void set_batch_receiver(BatchReceiver receiver) { batch_receiver_ = std::move(receiver); }

  const PipeStats& stats() const { return stats_; }
  const PipeConfig& config() const { return config_; }

  /// True while the pipe forwards traffic. A severed pipe silently drops
  /// everything — used to model physical link failure / hard connection
  /// interruption.
  bool up() const { return up_; }
  void set_up(bool up) { up_ = up; }

  /// Submits a payload of `size_bytes` for transmission. Serialization
  /// occupies the pipe for size*8/bandwidth; payloads queue FIFO behind the
  /// current transmission and overflow is dropped at the tail.
  void send(T payload, std::size_t size_bytes) {
    if (!up_) return;
    if (config_.queue_limit != 0 && in_flight_ >= config_.queue_limit) {
      ++stats_.dropped_overflow;
      return;
    }
    ++stats_.enqueued;
    ++in_flight_;
    const SimTime serialize =
        config_.bandwidth_bps == 0
            ? 0
            : static_cast<SimTime>(static_cast<__int128>(size_bytes) * 8 * kSecond /
                                   config_.bandwidth_bps);
    const SimTime start = std::max(sched_->now(), busy_until_);
    busy_until_ = start + serialize;
    const SimTime deliver_at = busy_until_ + config_.propagation_delay;
    if (batch_receiver_) {
      if (open_batch_ != kNoBatch && open_deliver_at_ == deliver_at &&
          sched_->issue_seq() == open_seq_) {
        // Nothing was scheduled since the last append, so no event can be
        // ordered between this payload and the batch ahead of it: coalesce.
        batch_pool_[open_batch_].push_back(BatchItem<T>{std::move(payload), size_bytes});
        return;
      }
      const std::uint32_t slot = acquire_batch();
      batch_pool_[slot].push_back(BatchItem<T>{std::move(payload), size_bytes});
      open_batch_ = slot;
      open_deliver_at_ = deliver_at;
      sched_->at(deliver_at, [this, slot] { fire_batch(slot); });
      open_seq_ = sched_->issue_seq();  // snapshot AFTER our own at()
      return;
    }
    sched_->at(deliver_at, [this, payload = std::move(payload), size_bytes]() mutable {
      --in_flight_;
      if (!up_) return;
      ++stats_.delivered;
      stats_.bytes_delivered += size_bytes;
      if (receiver_) receiver_(std::move(payload));
    });
  }

 private:
  static constexpr std::uint32_t kNoBatch = 0xffffffffu;

  std::uint32_t acquire_batch() {
    if (!free_batches_.empty()) {
      const std::uint32_t slot = free_batches_.back();
      free_batches_.pop_back();
      return slot;
    }
    const std::uint32_t slot = static_cast<std::uint32_t>(batch_pool_.size());
    batch_pool_.emplace_back();
    return slot;
  }

  void fire_batch(std::uint32_t slot) {
    if (open_batch_ == slot) open_batch_ = kNoBatch;
    PayloadBatch<T> items = std::move(batch_pool_[slot]);
    batch_pool_[slot].clear();
    free_batches_.push_back(slot);
    if (items.size() > 1) sched_->count_extra_events(items.size() - 1);
    in_flight_ -= items.size();
    // up_ cannot differ across the batch: any set_up happens inside another
    // event, and the coalescing guard proved no event sits between these
    // deliveries in a one-event-per-payload schedule.
    if (!up_) return;
    stats_.delivered += items.size();
    for (const BatchItem<T>& item : items) stats_.bytes_delivered += item.size_bytes;
    batch_receiver_(std::move(items));
  }

  Scheduler* sched_;
  PipeConfig config_;
  Receiver receiver_;
  BatchReceiver batch_receiver_;
  PipeStats stats_;
  SimTime busy_until_{0};
  std::size_t in_flight_{0};
  bool up_{true};
  mem::vector<PayloadBatch<T>> batch_pool_;
  mem::vector<std::uint32_t> free_batches_;
  std::uint32_t open_batch_{kNoBatch};
  SimTime open_deliver_at_{0};
  std::uint64_t open_seq_{0};
};

/// A bidirectional link: two independent pipes sharing a configuration.
template <typename T>
class Duplex {
 public:
  Duplex(Scheduler& sched, PipeConfig config) : a_to_b_(sched, config), b_to_a_(sched, config) {}

  Pipe<T>& a_to_b() { return a_to_b_; }
  Pipe<T>& b_to_a() { return b_to_a_; }

  void set_up(bool up) {
    a_to_b_.set_up(up);
    b_to_a_.set_up(up);
  }

 private:
  Pipe<T> a_to_b_;
  Pipe<T> b_to_a_;
};

/// Returns the one-way latency a payload of `size_bytes` experiences on an
/// idle pipe with `config` — used by tests and the analytical models in
/// EXPERIMENTS.md.
SimTime idle_pipe_latency(const PipeConfig& config, std::size_t size_bytes);

}  // namespace attain::sim
