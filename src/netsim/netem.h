// Linux-tc/netem facade: impairment injection on a directed link.
//
// The paper uses `tc` at the WiFi APs to add delay (display-latency
// experiment, §4.3) and cap bandwidth (rate-adaptation experiment, §4.3).
// Netem wraps the corresponding knobs of the underlying DirectedLink, plus
// the fault-injection layer the adaptive-delivery loop is tested against:
// Gilbert–Elliott burst loss, reorder/duplicate, and scheduled scenarios
// (link flaps/handoffs, stepped bandwidth-cap ramps).
#pragma once

#include <algorithm>
#include <optional>

#include "netsim/network.h"

namespace vtp::net {

/// Controls impairments on the directed link a->b. Lifetime-bound to the
/// Network; keep it only while the Network is alive.
class Netem {
 public:
  Netem(Network* net, NodeId a, NodeId b) : sim_(&net->sim()), link_(&net->link(a, b)) {}

  /// Adds fixed extra one-way delay (like `tc netem delay`).
  void SetDelay(SimTime extra) { link_->set_extra_delay(extra); }

  /// Caps throughput (like `tc tbf rate`); nullopt removes the cap.
  void SetRateBps(std::optional<double> bps) { link_->set_rate_cap_bps(bps); }

  /// Adds iid random loss (like `tc netem loss`).
  void SetLoss(double probability) { link_->set_extra_loss(probability); }

  /// Arms Gilbert–Elliott burst loss (like `tc netem loss gemodel`).
  void SetBurstLoss(const BurstLossConfig& config) { link_->set_burst_loss(config); }
  void ClearBurstLoss() { link_->set_burst_loss(std::nullopt); }

  /// Reorders packets with `probability`, holding each back `extra_delay`
  /// past its FIFO slot (like `tc netem delay ... reorder`).
  void SetReorder(double probability, SimTime extra_delay) {
    link_->set_reorder(probability, extra_delay);
  }

  /// Duplicates packets with `probability` (like `tc netem duplicate`).
  void SetDuplicate(double probability) { link_->set_duplicate(probability); }

  /// Schedules a link flap (handoff blackout): 100% loss during
  /// [at, at+duration), restoring the previous extra-loss setting after.
  /// Captures the link pointer, so the Network must outlive the flap.
  void ScheduleFlap(SimTime at, SimTime duration) {
    DirectedLink* link = link_;
    sim_->At(at, [link] { link->set_extra_loss(1.0); });
    sim_->At(at + duration, [link] { link->set_extra_loss(0.0); });
  }

  /// Schedules a stepped bandwidth-cap ramp from `from_bps` at `start` down
  /// (or up) to `to_bps` at `end`, in `steps` equal-sized stages. Models the
  /// §4.3 experiment's progressive tightening as one call.
  void ScheduleRateRamp(SimTime start, SimTime end, double from_bps, double to_bps,
                        int steps = 8) {
    steps = std::max(steps, 1);
    DirectedLink* link = link_;
    for (int i = 0; i < steps; ++i) {
      const SimTime at = start + (end - start) * i / steps;
      const double bps = from_bps + (to_bps - from_bps) * i / std::max(steps - 1, 1);
      sim_->At(at, [link, bps] { link->set_rate_cap_bps(bps); });
    }
  }

  /// Clears all static impairments (scheduled scenarios already queued in
  /// the simulator still fire).
  void Clear() {
    SetDelay(0);
    SetRateBps(std::nullopt);
    SetLoss(0.0);
    ClearBurstLoss();
    SetReorder(0.0, 0);
    SetDuplicate(0.0);
  }

 private:
  Simulator* sim_;
  DirectedLink* link_;
};

}  // namespace vtp::net
