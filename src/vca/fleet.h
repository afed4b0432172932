// Fleet-scale FaceTime-style session load over the sharded backbone.
//
// FleetSim drives 1k–50k concurrent two-party sessions (nonhomogeneous
// Poisson arrivals under a diurnal rate curve, exponential holding times)
// through net::FabricShard worlds: each frame serializes onto the sender's
// metro access uplink, rides the backbone to the initiator-metro SFU, is
// relayed to the peer's metro, and records end-to-end frame latency at the
// receiver. Delivery runs with zero per-frame and per-hop Simulator events:
// senders live in structure-of-arrays slabs and generate frames in calendar
// bins (one self-rescheduling tick per bin), the fabric executes hops from
// its (arrive, key) heap (FabricShard::DrainUpTo), and e2e latencies flush
// through obs::Histogram::ObserveBatch. Run() drives N shards in
// conservative-lookahead windows with SPSC mailbox handoffs, on a
// core::ThreadPool when N > 1; one shard is a single window on the caller.
//
// Every shard count produces a bit-identical merged obs::Snapshot digest:
// every stochastic entity draws from a net::DeriveSeed stream keyed by its
// logical id, the fabric orders hops by (arrive, key) and offers them to
// links at their logical instants, and the end-to-end histogram observes
// whole microseconds so double sums stay exact and associative under merge.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netsim/shard.h"
#include "netsim/time.h"
#include "obs/snapshot.h"

namespace vtp::vca {

struct FleetConfig {
  std::uint64_t seed = 1;
  int shards = 1;
  net::SimTime duration = net::Seconds(10);  ///< arrivals stop; senders stop

  double target_sessions = 2000;  ///< mean concurrent sessions (Little's law)
  double mean_session_s = 60;     ///< exponential session holding time
  double diurnal_amplitude = 0.4; ///< peak-to-mean arrival-rate swing
  double diurnal_period_s = 20;   ///< compressed "day" for the rate curve

  double fps = 30;
  int frame_bytes = 826;        ///< per-frame payload (full semantic rung)
  int frame_jitter_bytes = 64;  ///< uniform +/- size jitter per frame

  double access_rate_bps = 400e6;            ///< metro access uplink rate
  net::SimTime access_delay = net::Millis(3);  ///< metro access one-way delay
  net::SimTime sfu_delay = net::Micros(100);   ///< SFU relay processing time

  int metro_limit = 15;  ///< sessions use metros [0, metro_limit) — US only
  std::uint32_t probe_session = 0;  ///< session whose sender draws are recorded

  /// Only "" or "express", the one delivery engine; kept so callers that
  /// name the engine explicitly still compile. Anything else throws.
  std::string path;
};

/// One scheduled session: two participants at `metro[0]` / `metro[1]`, SFU
/// at the initiator's metro. Generated up front from the kArrivals stream,
/// so every shard (and every shard count) sees the identical fleet.
struct SessionSpec {
  std::uint32_t id = 0;
  net::SimTime start = 0;
  net::SimTime end = 0;
  std::uint8_t metro[2] = {0, 0};
  std::uint8_t server = 0;
};

struct FleetResult {
  obs::Snapshot merged;       ///< all shards' registries, Merge()d in order
  std::uint64_t digest = 0;   ///< FNV-1a over merged.ToJson() — the
                              ///< determinism fingerprint the tests compare
  double wall_s = 0;          ///< wall-clock of the run phase
  std::uint64_t events = 0;   ///< sum of per-shard Simulator events
  std::uint64_t hops = 0;     ///< fabric hops executed (shard-count invariant)
  std::uint64_t handoffs = 0; ///< cross-shard mailbox records (0 unsharded)
  std::uint64_t fastforwards = 0;  ///< always 0: no inline fast-forward
                                   ///< remains; kept for existing readers
  std::uint64_t spills = 0;   ///< mailbox ring overflows into the spill lane
  std::uint64_t windows = 0;  ///< lookahead windows executed
  net::SimTime lookahead = 0; ///< window width used
  int shards = 1;
  std::vector<double> probe_draws;   ///< probe session sender draws, part 0
                                     ///< then part 1 (RNG regression pin)
  // Convenience readouts from `merged`.
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;
  double e2e_p50_ms = 0;
  double e2e_p95_ms = 0;
  double peak_concurrent = 0;
};

class FleetSim {
 public:
  explicit FleetSim(FleetConfig config);

  /// Runs the fleet on config.shards shards.
  FleetResult Run();

  /// Arms a netem flap (full loss on the directed backbone link a->b during
  /// [at, at+duration)) in every run this FleetSim performs. The owning
  /// shard fires it exactly once regardless of shard count.
  void ScheduleFlap(int metro_a, int metro_b, net::SimTime at, net::SimTime duration);

  /// Arms a Gilbert–Elliott burst-loss episode on the directed backbone
  /// link a->b during [at, at+duration). Owner-armed like ScheduleFlap.
  void ScheduleBurstLoss(int metro_a, int metro_b, net::SimTime at, net::SimTime duration,
                         const net::BurstLossConfig& config);

  /// Arms a stepped rate-cap ramp on the directed backbone link a->b across
  /// [at, at+duration), interpolating from_bps -> to_bps in `steps` steps
  /// and restoring the link afterwards. Owner-armed like ScheduleFlap.
  void ScheduleRateRamp(int metro_a, int metro_b, net::SimTime at, net::SimTime duration,
                        double from_bps, double to_bps, int steps);

  const FleetConfig& config() const { return config_; }
  const net::FabricTopology& topology() const { return topo_; }
  const std::vector<SessionSpec>& schedule() const { return schedule_; }

  /// Quantile (ms) of the merged fleet e2e histogram row, 0 when absent.
  static double E2eQuantileMs(const obs::Snapshot& snap, double q);

 private:
  struct Flap {
    int a, b;
    net::SimTime at, duration;
  };
  struct Burst {
    int a, b;
    net::SimTime at, duration;
    net::BurstLossConfig config;
  };
  struct Ramp {
    int a, b;
    net::SimTime at, duration;
    double from_bps, to_bps;
    int steps;
  };

  FleetConfig config_;
  net::FabricTopology topo_;
  std::vector<SessionSpec> schedule_;
  std::vector<Flap> flaps_;
  std::vector<Burst> bursts_;
  std::vector<Ramp> ramps_;
  double peak_concurrent_ = 0;
};

}  // namespace vtp::vca
