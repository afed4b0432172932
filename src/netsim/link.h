// A directed point-to-point link with finite rate, propagation delay, a
// drop-tail byte queue, optional random loss — and netem-style impairment
// knobs (extra delay, rate cap, extra loss) that model the paper's use of
// Linux `tc` at the WiFi access points (§4.3).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <utility>

#include <string>

#include "netsim/event_queue.h"
#include "netsim/packet.h"
#include "netsim/time.h"
#include "obs/metrics.h"

namespace vtp::net {

/// Static configuration of a directed link.
struct LinkConfig {
  double rate_bps = 1e9;                      ///< transmission rate
  SimTime prop_delay = Millis(1);             ///< propagation delay
  std::size_t queue_limit_bytes = 512 * 1024; ///< drop-tail queue capacity
  double loss_rate = 0.0;                     ///< iid random loss probability
  SimTime jitter_mean = 0;                    ///< mean of exponential per-packet
                                              ///< delay jitter (cross traffic)
};

/// Counters a link maintains for analysis. Since the obs refactor this is a
/// value snapshot assembled from the link's registry handles (see
/// DirectedLink::stats()); the field set is unchanged for back-compat.
struct LinkStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t packets_dropped_queue = 0;
  std::uint64_t packets_dropped_loss = 0;
};

/// Two-state Gilbert–Elliott burst-loss model. The chain advances once per
/// offered packet: good->bad with `p_enter`, bad->good with `p_exit`; the
/// per-packet drop probability is `loss_good`/`loss_bad` by state. Mean
/// burst length is 1/p_exit packets, stationary bad fraction
/// p_enter/(p_enter+p_exit).
struct BurstLossConfig {
  double p_enter = 0.0;
  double p_exit = 1.0;
  double loss_bad = 1.0;
  double loss_good = 0.0;
};

/// One direction of a link. Owned by the Network.
class DirectedLink {
 public:
  /// Called with each packet when it begins transmission (Wireshark-style
  /// tap: the packet made it onto the wire).
  using Tap = std::function<void(const Packet&, SimTime)>;

  /// The outcome of offering one packet to the link: either dropped, or
  /// serialized with a computed arrival instant (plus an optional duplicate
  /// arrival when netem duplication fired). Produced by PlanTransmitAt,
  /// which is the single place queue/loss/serialization decisions are made —
  /// both the event-scheduling Transmit path and the sharded fleet fabric
  /// (FabricShard) consume it, so they stay decision-for-decision identical.
  struct TxPlan {
    bool dropped = false;
    SimTime start = 0;       ///< transmission start (tap instant)
    SimTime arrive = 0;      ///< delivery instant at the far end
    bool duplicated = false;
    SimTime dup_arrive = 0;  ///< delivery instant of the netem duplicate
  };

  DirectedLink(Simulator* sim, LinkConfig config) : DirectedLink(sim, config, std::string()) {}

  /// `scope` names this link's metrics explicitly ("fabric.link3.fwd"). An
  /// empty scope mints the next "net.linkN" — construction order, which is
  /// deterministic per topology. The sharded fabric passes explicit scopes
  /// so per-shard registries merge by identity regardless of shard count.
  DirectedLink(Simulator* sim, LinkConfig config, std::string scope)
      : sim_(sim), config_(config), scope_(std::move(scope)) {
    obs::MetricRegistry& reg = sim_->metrics();
    if (scope_.empty()) scope_ = reg.UniqueScope("net.link");
    packets_sent_ = reg.NewCounter(scope_ + ".packets_sent");
    bytes_sent_ = reg.NewCounter(scope_ + ".bytes_sent");
    dropped_queue_ = reg.NewCounter(scope_ + ".dropped_queue");
    dropped_loss_ = reg.NewCounter(scope_ + ".dropped_loss");
    queue_peak_bytes_ = reg.NewGauge(scope_ + ".queue_peak_bytes");
  }

  /// Offers a `wire_bytes`-sized packet to the link right now: advances the
  /// loss chains, serializes into the drop-tail queue, and returns the
  /// resulting schedule. All counters are updated here. RNG draws happen in
  /// the exact order of the original Transmit (GE chain, loss, jitter,
  /// reorder, duplicate), each gated on its feature being armed.
  TxPlan PlanTransmit(std::uint32_t bytes) { return PlanTransmitAt(sim_->now(), bytes); }

  /// PlanTransmit at an explicit offer instant `now` instead of the
  /// simulator clock. The sharded fleet fabric processes hops in global
  /// (arrive, key) order at event times *later* than the hop's logical
  /// arrival; passing the logical instant here makes every queue/loss/
  /// serialization decision — and therefore every counter and RNG draw —
  /// identical to a schedule that offered each hop at sim->now() == arrive.
  /// Offers to one link must be made in nondecreasing `now` order (the
  /// fabric's hop heap guarantees this).
  TxPlan PlanTransmitAt(SimTime now, std::uint32_t bytes) {
    TxPlan plan;

    const std::size_t backlog = backlog_bytes(now);
    if (backlog + bytes > config_.queue_limit_bytes) {
      dropped_queue_->Inc();
      plan.dropped = true;
      return plan;
    }
    double loss = config_.loss_rate + extra_loss_;
    if (burst_loss_) {
      // Advance the Gilbert–Elliott chain once per offered packet. All RNG
      // draws for fault injection are gated on the feature being armed, so
      // un-faulted sessions consume the exact same random stream as before.
      if (burst_bad_) {
        if (draw_rng().Chance(burst_loss_->p_exit)) burst_bad_ = false;
      } else if (draw_rng().Chance(burst_loss_->p_enter)) {
        burst_bad_ = true;
      }
      loss += burst_bad_ ? burst_loss_->loss_bad : burst_loss_->loss_good;
    }
    if (loss > 0.0 && draw_rng().Chance(std::min(loss, 1.0))) {
      dropped_loss_->Inc();
      plan.dropped = true;
      return plan;
    }

    const SimTime start = std::max(now, busy_until_);
    const SimTime tx_time = static_cast<SimTime>(
        std::llround(bytes * 8.0 / effective_rate_bps() * kSecond));
    busy_until_ = start + tx_time;

    packets_sent_->Inc();
    bytes_sent_->Inc(bytes);
    queue_peak_bytes_->Max(static_cast<double>(backlog + bytes));

    SimTime arrive = busy_until_ + config_.prop_delay + extra_delay_;
    if (config_.jitter_mean > 0) {
      arrive += static_cast<SimTime>(
          draw_rng().Exponential(1.0 / static_cast<double>(config_.jitter_mean)));
    }
    if (reorder_prob_ > 0.0 && draw_rng().Chance(reorder_prob_)) {
      // A reordered packet is held back and skips the FIFO clamp below, so
      // it genuinely arrives behind packets sent after it.
      arrive += reorder_delay_;
      if (reordered_ != nullptr) reordered_->Inc();
    } else {
      // The link is FIFO: jitter delays but never reorders.
      arrive = std::max(arrive, last_arrival_);
      last_arrival_ = arrive;
    }
    if (duplicate_prob_ > 0.0 && draw_rng().Chance(duplicate_prob_)) {
      if (duplicated_ != nullptr) duplicated_->Inc();
      plan.duplicated = true;
      plan.dup_arrive = arrive + Micros(50);
    }
    plan.start = start;
    plan.arrive = arrive;
    return plan;
  }

  /// Enqueues `p`; on success schedules delivery, otherwise drops it.
  /// `deliver` is invoked as deliver(Packet) when the packet reaches the far
  /// end. Keep its captures small — together with the Packet it is stored
  /// inline in the scheduled event (see InlineCallback::kInlineBytes).
  template <class Deliver>
  void Transmit(Packet p, Deliver deliver) {
    const TxPlan plan = PlanTransmit(p.wire_bytes());
    if (plan.dropped) return;
    if (tap_) {
      // Tap fires at transmission start: the packet is on the wire. Sharing
      // `p` here only bumps the payload refcount.
      const SimTime start = plan.start;
      sim_->At(start, [this, p, start] {
        if (tap_) tap_(p, start);
      });
    }
    if (plan.duplicated) {
      // The copy shares the payload (refcount bump) and lands slightly after
      // the original, bypassing the FIFO clamp like a real duplicated frame.
      sim_->At(plan.dup_arrive, [deliver, p]() mutable { deliver(std::move(p)); });
    }
    sim_->At(plan.arrive, [deliver = std::move(deliver), p = std::move(p)]() mutable {
      deliver(std::move(p));
    });
  }

  /// netem-style impairments (applied on top of the base config).
  void set_extra_delay(SimTime d) { extra_delay_ = d; }
  void set_rate_cap_bps(std::optional<double> cap) { rate_cap_bps_ = cap; }
  void set_extra_loss(double p) { extra_loss_ = p; }

  /// Fault injection (netem SetBurstLoss/SetReorder/SetDuplicate). The
  /// reorder/duplicate counters are registered lazily on first arm, so
  /// un-faulted topologies keep their obs snapshot unchanged.
  void set_burst_loss(std::optional<BurstLossConfig> config) {
    burst_loss_ = config;
    if (!burst_loss_) burst_bad_ = false;
  }
  void set_reorder(double probability, SimTime extra_delay) {
    reorder_prob_ = probability;
    reorder_delay_ = extra_delay;
    if (probability > 0.0 && reordered_ == nullptr) {
      reordered_ = sim_->metrics().NewCounter(scope_ + ".reordered");
    }
  }
  void set_duplicate(double probability) {
    duplicate_prob_ = probability;
    if (probability > 0.0 && duplicated_ == nullptr) {
      duplicated_ = sim_->metrics().NewCounter(scope_ + ".duplicated");
    }
  }

  /// Installs (or clears) the capture tap.
  void set_tap(Tap tap) { tap_ = std::move(tap); }

  /// Routes this link's stochastic draws (loss, GE chain, jitter, reorder,
  /// duplicate) through a dedicated stream instead of the Simulator's shared
  /// Rng. The sharded fabric installs a per-link stream derived from the
  /// link's *logical* id (DeriveSeed), so the draw sequence is independent
  /// of which shard owns the link and of the shard count. nullptr (default)
  /// keeps the historical shared-Rng behaviour. The Rng must outlive the
  /// link.
  void set_fault_rng(Rng* rng) { fault_rng_ = rng; }

  const LinkConfig& config() const { return config_; }
  /// Back-compat snapshot of this link's registry counters.
  LinkStats stats() const {
    return {packets_sent_->value(), bytes_sent_->value(), dropped_queue_->value(),
            dropped_loss_->value()};
  }

  /// Bytes currently queued awaiting transmission.
  std::size_t backlog_bytes(SimTime now) const;

 private:
  double effective_rate_bps() const;
  Rng& draw_rng() { return fault_rng_ != nullptr ? *fault_rng_ : sim_->rng(); }

  Simulator* sim_;
  LinkConfig config_;
  std::string scope_;
  SimTime busy_until_ = 0;
  SimTime last_arrival_ = 0;
  SimTime extra_delay_ = 0;
  std::optional<double> rate_cap_bps_;
  double extra_loss_ = 0.0;
  std::optional<BurstLossConfig> burst_loss_;
  bool burst_bad_ = false;
  double reorder_prob_ = 0.0;
  SimTime reorder_delay_ = 0;
  double duplicate_prob_ = 0.0;
  Rng* fault_rng_ = nullptr;
  Tap tap_;
  obs::Counter* packets_sent_ = nullptr;
  obs::Counter* bytes_sent_ = nullptr;
  obs::Counter* dropped_queue_ = nullptr;
  obs::Counter* dropped_loss_ = nullptr;
  obs::Counter* reordered_ = nullptr;
  obs::Counter* duplicated_ = nullptr;
  obs::Gauge* queue_peak_bytes_ = nullptr;
};

}  // namespace vtp::net
