#include "vca/fleet.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "core/thread_pool.h"
#include "netsim/random.h"

namespace vtp::vca {
namespace {

using net::FabricShard;
using net::FleetHop;
using net::SimTime;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = kFnvOffset;
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

/// Frame wire header budget: send timestamp (8) + leg byte. Frames are
/// metrics-only records now, but the minimum frame size still reserves room
/// so sizes stay faithful to the wire format.
constexpr int kHeaderBytes = 9;

/// e2e observations buffered per world before a bulk ObserveBatch flush.
constexpr std::size_t kE2eFlushAt = 2048;

/// Flow key: unique per (session, part, leg, seq) — the fabric's
/// same-instant tiebreak.
std::uint64_t FlowKey(std::uint32_t session, int part, int leg, std::uint32_t seq) {
  return ((static_cast<std::uint64_t>(session) * 2 + static_cast<std::uint64_t>(part)) * 2 +
          static_cast<std::uint64_t>(leg))
             << 32 |
         seq;
}

/// Lemire's multiply-shift bounded draw: maps a full-width uniform word onto
/// [0, range) without divisions (the slab sender hot path).
std::uint64_t Bounded(std::uint64_t x, std::uint64_t range) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(x) * static_cast<unsigned __int128>(range)) >> 64);
}

/// Geometric bucket bounds for the fleet e2e histogram, in whole
/// microseconds (integer-valued doubles: exact under bucket-add and sum).
std::vector<double> E2eBoundsUs() {
  std::vector<double> bounds;
  for (double b = 1000; b < 1.5e6; b = std::floor(b * 1.22)) bounds.push_back(b);
  return bounds;
}

/// Reusable N-thread rendezvous for the window protocol (std::barrier is
/// avoided for toolchain portability; this is cold — two waits per window).
class Barrier {
 public:
  explicit Barrier(int n) : n_(n) {}

  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    const std::uint64_t gen = generation_;
    if (++arrived_ == n_) {
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return generation_ != gen; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int n_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace

/// One shard's model state: the fabric plus the senders whose metros this
/// shard owns. Construction order (and therefore metric registration order)
/// is identical in every shard, so per-shard registries merge by identity.
///
/// Senders live in structure-of-arrays slabs: per-sender RNG counters
/// (counter-mode SplitMix64 — 8 bytes of state instead of a 2.5 KB
/// mt19937_64), frame anchors, next-due times, seq counters, and access-
/// uplink busy horizons, each in its own flat array so batch generation
/// touches cache lines sequentially. A calendar-bin ring over next-due times
/// drives generation: one self-rescheduling Simulator event per bin emits
/// every frame due in the bin and then drains the fabric
/// (FabricShard::DrainUpTo).
struct FleetWorld {
  const FleetConfig* cfg;
  const std::vector<SessionSpec>* sched;
  FabricShard fabric;
  SimTime period;

  obs::Counter* frames_sent;
  obs::Counter* bytes_sent;
  obs::Counter* frames_relayed;
  obs::Counter* frames_delivered;
  obs::Counter* senders_started;
  obs::Counter* sessions_completed;
  obs::Gauge* concurrent_peak;
  obs::Histogram* e2e_us;

  struct Slabs {
    std::vector<SimTime> anchor;      ///< session start + pacing phase
    std::vector<SimTime> stop;        ///< min(session end, run duration)
    std::vector<SimTime> next_due;    ///< anchor + seq * period
    std::vector<SimTime> busy_until;  ///< access-uplink serialization horizon
    std::vector<std::uint64_t> rng;   ///< counter-mode SplitMix64 state
    std::vector<std::uint32_t> session;
    std::vector<std::uint32_t> seq;
    std::vector<std::uint8_t> metro;   ///< sender's metro (backbone entry)
    std::vector<std::uint8_t> server;  ///< session SFU metro
    std::vector<std::uint8_t> part;
    std::vector<std::uint8_t> probe;
    std::size_t size() const { return anchor.size(); }
  };
  Slabs senders;

  // Generation state: senders ring-bucketed by next-due bin.
  SimTime bin_width = 0;
  SimTime gen_end = 0;
  std::vector<std::vector<std::uint32_t>> ring;
  std::vector<std::uint32_t> admit_order;  ///< slab indices by (anchor, index)
  std::size_t admit_cursor = 0;

  std::vector<double> e2e_scratch;     ///< pending ObserveBatch values
  std::vector<double> probe_draws[2];  ///< probe sender: phase then sizes

  FleetWorld(const FleetConfig* config, const net::FabricTopology* topo,
             const std::vector<int>* owner, int shard_id, const std::vector<SessionSpec>* schedule,
             double peak_concurrent)
      : cfg(config),
        sched(schedule),
        fabric(topo, owner, shard_id, config->seed),
        period(static_cast<SimTime>(std::llround(net::kSecond / config->fps))) {
    obs::MetricRegistry& reg = fabric.sim().metrics();
    frames_sent = reg.NewCounter("fleet.frames_sent");
    bytes_sent = reg.NewCounter("fleet.bytes_sent");
    frames_relayed = reg.NewCounter("fleet.frames_relayed");
    frames_delivered = reg.NewCounter("fleet.frames_delivered");
    senders_started = reg.NewCounter("fleet.senders_started");
    sessions_completed = reg.NewCounter("fleet.sessions_completed");
    concurrent_peak = reg.NewGauge("fleet.concurrent_peak");
    e2e_us = reg.NewHistogram("fleet.e2e_us", E2eBoundsUs());
    // Schedule-derived, so every shard count agrees; shard 0 reports it and
    // the peak-gauge max-merge keeps the zeros of the others out.
    if (shard_id == 0) concurrent_peak->Set(peak_concurrent);

    std::size_t owned = 0;
    for (const SessionSpec& sp : *sched) {
      owned += fabric.owns(sp.metro[0]) ? 1u : 0u;
      owned += fabric.owns(sp.metro[1]) ? 1u : 0u;
    }
    senders.anchor.reserve(owned);
    senders.stop.reserve(owned);
    senders.next_due.reserve(owned);
    senders.busy_until.reserve(owned);
    senders.rng.reserve(owned);
    senders.session.reserve(owned);
    senders.seq.reserve(owned);
    senders.metro.reserve(owned);
    senders.server.reserve(owned);
    senders.part.reserve(owned);
    senders.probe.reserve(owned);
    for (const SessionSpec& sp : *sched) {
      for (int part = 0; part < 2; ++part) {
        if (!fabric.owns(sp.metro[part])) continue;
        std::uint64_t state = net::DeriveSeed(
            cfg->seed, net::RngDomain::kSessionTraffic,
            static_cast<std::uint64_t>(sp.id) * 2 + static_cast<std::uint64_t>(part));
        // Draw #0 of every sender stream: the pacing phase within one frame
        // period. Drawn only by the owning shard, identically for any count.
        const SimTime phase = static_cast<SimTime>(
            Bounded(net::SplitMix64(state++), static_cast<std::uint64_t>(period)));
        const bool is_probe = sp.id == cfg->probe_session;
        if (is_probe) probe_draws[part].push_back(static_cast<double>(phase));
        senders.anchor.push_back(sp.start + phase);
        senders.stop.push_back(std::min(sp.end, cfg->duration));
        senders.next_due.push_back(sp.start + phase);
        senders.busy_until.push_back(0);
        senders.rng.push_back(state);
        senders.session.push_back(sp.id);
        senders.seq.push_back(0);
        senders.metro.push_back(sp.metro[part]);
        senders.server.push_back(sp.server);
        senders.part.push_back(static_cast<std::uint8_t>(part));
        senders.probe.push_back(is_probe ? 1 : 0);
      }
    }
    fabric.set_deliver([this](const FleetHop& hop) { OnDeliver(hop); });

    bin_width = std::max<SimTime>(1, std::min(net::Millis(1), period));
    gen_end = cfg->duration + period + bin_width;
    ring.resize(static_cast<std::size_t>(period / bin_width) + 3);
    admit_order.resize(senders.size());
    std::iota(admit_order.begin(), admit_order.end(), 0u);
    std::stable_sort(admit_order.begin(), admit_order.end(),
                     [this](std::uint32_t x, std::uint32_t y) {
                       return senders.anchor[x] < senders.anchor[y];
                     });
  }

  /// Starts the calendar-bin tick chain that generates every owned
  /// sender's frames.
  void Start() {
    senders_started->Inc(senders.size());
    if (senders.size()) fabric.sim().At(0, [this] { BinTick(0); });
  }

  /// Emits the frame due at `due` from sender `idx`: size draw, counters,
  /// access-uplink serialization, and the leg-0 hop into the fabric.
  void EmitFrame(std::size_t idx, SimTime due) {
    std::int64_t jitter = 0;
    if (cfg->frame_jitter_bytes > 0) {
      const auto span = static_cast<std::uint64_t>(2 * cfg->frame_jitter_bytes + 1);
      jitter = static_cast<std::int64_t>(Bounded(net::SplitMix64(senders.rng[idx]++), span)) -
               cfg->frame_jitter_bytes;
    }
    const auto size = static_cast<std::uint32_t>(cfg->frame_bytes + jitter);
    if (senders.probe[idx]) probe_draws[senders.part[idx]].push_back(static_cast<double>(size));

    frames_sent->Inc();
    bytes_sent->Inc(size);

    // Serialize onto the sender's metro access uplink (modelled inline: a
    // busy-until horizon plus a fixed one-way delay; per-session links would
    // mint per-shard metric scopes and break merge-by-identity).
    const SimTime tx_start = std::max(due, senders.busy_until[idx]);
    senders.busy_until[idx] =
        tx_start + static_cast<SimTime>(std::llround(static_cast<double>(size) * 8.0 /
                                                     cfg->access_rate_bps * net::kSecond));
    const SimTime backbone_entry = senders.busy_until[idx] + cfg->access_delay;

    const std::uint32_t s = senders.seq[idx];
    fabric.PushHop({backbone_entry,
                    FlowKey(senders.session[idx], senders.part[idx], 0, s), due,
                    senders.session[idx], s, size, senders.metro[idx], senders.server[idx], 0,
                    senders.part[idx]});
    senders.seq[idx] = s + 1;
  }

  /// Emits every frame sender `idx` has due before `bin_end`, then
  /// re-buckets it at its next due bin (or retires it once past its stop
  /// time).
  void RunSenderInBin(std::uint32_t idx, SimTime bin_end) {
    SimTime due = senders.next_due[idx];
    for (;;) {
      if (due >= senders.stop[idx]) {
        if (senders.part[idx] == 0) sessions_completed->Inc();
        return;
      }
      if (due >= bin_end) break;
      EmitFrame(idx, due);
      due = senders.anchor[idx] + static_cast<SimTime>(senders.seq[idx]) * period;
    }
    senders.next_due[idx] = due;
    ring[static_cast<std::size_t>(due / bin_width) % ring.size()].push_back(idx);
  }

  /// The per-bin generation tick. Admits senders whose anchor falls in
  /// [t, t + bin_width), runs this bin's bucket, then drains the fabric
  /// strictly below t — every hop pushed by this bin arrives at or after t,
  /// so the drain bound never overtakes a push.
  void BinTick(SimTime t) {
    while (admit_cursor < admit_order.size()) {
      const std::uint32_t idx = admit_order[admit_cursor];
      if (senders.anchor[idx] >= t + bin_width) break;
      ++admit_cursor;
      RunSenderInBin(idx, t + bin_width);
    }
    std::vector<std::uint32_t>& slot = ring[static_cast<std::size_t>(t / bin_width) % ring.size()];
    // Re-buckets always land 1..ring.size()-1 bins ahead, never back in this
    // slot, so indexed iteration is safe against the appends.
    for (std::size_t k = 0; k < slot.size(); ++k) RunSenderInBin(slot[k], t + bin_width);
    slot.clear();
    if (t > 0) fabric.DrainUpTo(t - 1);
    if (t + bin_width <= gen_end) {
      fabric.sim().At(t + bin_width, [this, t] { BinTick(t + bin_width); });
    }
  }

  void OnDeliver(const FleetHop& hop) {
    const SessionSpec& sp = (*sched)[hop.session];
    if (hop.leg == 0) {
      // At the SFU (initiator metro): rewrite the leg and fan out to the
      // peer's metro. PushHop is legal here — we own the SFU's metro, since
      // the fabric just delivered to it. hop.arrive is the delivery instant.
      frames_relayed->Inc();
      const int peer = 1 - hop.part;
      fabric.PushHop({hop.arrive + cfg->sfu_delay, FlowKey(sp.id, hop.part, 1, hop.seq),
                      hop.send_ts, hop.session, hop.seq, hop.bytes, sp.server, sp.metro[peer], 1,
                      hop.part});
      return;
    }
    // At the receiver's metro: the frame exits over the access downlink.
    // Observe whole microseconds — integer-valued doubles keep the merged
    // histogram sum exact and associative, which the digest relies on (and
    // makes the batch flush order-independent).
    const SimTime e2e = hop.arrive + cfg->access_delay - hop.send_ts;
    frames_delivered->Inc();
    e2e_scratch.push_back(static_cast<double>(e2e / net::kMicrosecond));
    if (e2e_scratch.size() >= kE2eFlushAt) FlushE2e();
  }

  void FlushE2e() {
    if (e2e_scratch.empty()) return;
    e2e_us->ObserveBatch(e2e_scratch.data(), e2e_scratch.size());
    e2e_scratch.clear();
  }
};

FleetSim::FleetSim(FleetConfig config)
    : config_(std::move(config)), topo_(net::FabricTopology::Backbone()) {
  if (config_.metro_limit < 1 ||
      static_cast<std::size_t>(config_.metro_limit) > topo_.metro_count()) {
    throw std::invalid_argument("FleetSim: metro_limit out of range");
  }
  if (config_.frame_bytes - config_.frame_jitter_bytes < kHeaderBytes) {
    throw std::invalid_argument("FleetSim: frame_bytes too small for the wire header");
  }
  if (!config_.path.empty() && config_.path != "express") {
    throw std::invalid_argument("FleetSim: path must be \"express\" or empty");
  }
  // The whole fleet's schedule comes from one arrival stream, generated
  // before any world exists: every shard (and every shard count) iterates
  // the identical session list.
  net::Rng arrivals(net::DeriveSeed(config_.seed, net::RngDomain::kArrivals, 0));
  const double dur_s = net::ToSeconds(config_.duration);
  const SimTime frame_period =
      static_cast<SimTime>(std::llround(net::kSecond / config_.fps));
  auto add_session = [&](SimTime start) {
    SessionSpec sp;
    sp.id = static_cast<std::uint32_t>(schedule_.size());
    sp.start = start;
    sp.end = start + static_cast<SimTime>(std::llround(
                         arrivals.Exponential(1.0 / config_.mean_session_s) * net::kSecond));
    sp.metro[0] = static_cast<std::uint8_t>(arrivals.UniformInt(0, config_.metro_limit - 1));
    sp.metro[1] = static_cast<std::uint8_t>(arrivals.UniformInt(0, config_.metro_limit - 1));
    sp.server = sp.metro[0];
    schedule_.push_back(sp);
  };
  // Warm start: the stationary population is already on the phones at t=0
  // (exponential holding times are memoryless, so a fresh duration draw is
  // the correct remaining time).
  for (int i = 0; i < static_cast<int>(config_.target_sessions); ++i) {
    add_session(arrivals.UniformInt(0, frame_period - 1));
  }
  // Ongoing arrivals: nonhomogeneous Poisson by thinning under the diurnal
  // rate curve. Little's law sets the base rate that sustains the target.
  const double base_rate = config_.target_sessions / config_.mean_session_s;
  const double max_rate = base_rate * (1.0 + std::abs(config_.diurnal_amplitude));
  if (max_rate > 0) {
    double t = 0;
    while (true) {
      t += arrivals.Exponential(max_rate);
      if (t >= dur_s) break;
      const double rate =
          base_rate *
          std::max(0.0, 1.0 + config_.diurnal_amplitude *
                                  std::sin(2.0 * M_PI * t / config_.diurnal_period_s));
      if (arrivals.Uniform() * max_rate > rate) continue;
      add_session(static_cast<SimTime>(std::llround(t * net::kSecond)));
    }
  }
  // Peak concurrency from the schedule alone (sweep over +1/-1 edges).
  std::vector<std::pair<SimTime, int>> edges;
  edges.reserve(schedule_.size() * 2);
  for (const SessionSpec& sp : schedule_) {
    edges.emplace_back(sp.start, 1);
    edges.emplace_back(std::min(sp.end, config_.duration), -1);
  }
  std::sort(edges.begin(), edges.end());
  int live = 0, peak = 0;
  for (const auto& [when, delta] : edges) {
    live += delta;
    peak = std::max(peak, live);
  }
  peak_concurrent_ = peak;
}

void FleetSim::ScheduleFlap(int metro_a, int metro_b, SimTime at, SimTime duration) {
  flaps_.push_back({metro_a, metro_b, at, duration});
}

void FleetSim::ScheduleBurstLoss(int metro_a, int metro_b, SimTime at, SimTime duration,
                                 const net::BurstLossConfig& config) {
  bursts_.push_back({metro_a, metro_b, at, duration, config});
}

void FleetSim::ScheduleRateRamp(int metro_a, int metro_b, SimTime at, SimTime duration,
                                double from_bps, double to_bps, int steps) {
  ramps_.push_back({metro_a, metro_b, at, duration, from_bps, to_bps, steps});
}

FleetResult FleetSim::Run() {
  std::vector<double> weights(topo_.metro_count(), 0.0);
  for (const SessionSpec& sp : schedule_) {
    weights[sp.metro[0]] += 1.0;
    weights[sp.metro[1]] += 1.0;
  }
  const std::vector<int> owner = topo_.Partition(config_.shards, &weights);
  const int shards = 1 + *std::max_element(owner.begin(), owner.end());
  const SimTime end = config_.duration + net::Seconds(1);  // drain margin
  // With one shard no edge crosses shards, so the lookahead is the whole
  // run: a single window.
  const SimTime delta = topo_.Lookahead(owner, end);

  std::vector<std::unique_ptr<FleetWorld>> worlds;
  worlds.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    worlds.push_back(std::make_unique<FleetWorld>(&config_, &topo_, &owner, s, &schedule_,
                                                  peak_concurrent_));
    FabricShard& fabric = worlds.back()->fabric;
    for (const Flap& f : flaps_) fabric.ScheduleFlap(f.a, f.b, f.at, f.duration);
    for (const Burst& b : bursts_) fabric.ScheduleBurstLoss(b.a, b.b, b.at, b.duration, b.config);
    for (const Ramp& r : ramps_) {
      fabric.ScheduleRateRamp(r.a, r.b, r.at, r.duration, r.from_bps, r.to_bps, r.steps);
    }
  }

  // mail[from][to]; only cross-shard pairs are ever pushed.
  std::vector<std::vector<std::unique_ptr<net::ShardMailbox>>> mail(
      static_cast<std::size_t>(shards));
  for (int from = 0; from < shards; ++from) {
    for (int to = 0; to < shards; ++to) {
      mail[static_cast<std::size_t>(from)].push_back(std::make_unique<net::ShardMailbox>());
    }
  }
  for (int s = 0; s < shards; ++s) {
    worlds[static_cast<std::size_t>(s)]->fabric.set_post([&mail, s](int dst, const FleetHop& hop) {
      mail[static_cast<std::size_t>(s)][static_cast<std::size_t>(dst)]->Push(hop);
    });
  }

  FleetResult result;
  result.shards = shards;
  result.lookahead = delta;

  Barrier barrier(shards);
  std::vector<std::uint64_t> windows_per_shard(static_cast<std::size_t>(shards), 0);

  auto shard_main = [&](int s) {
    FleetWorld& world = *worlds[static_cast<std::size_t>(s)];
    world.Start();
    std::vector<FleetHop> batch;
    auto exchange = [&] {
      // Two barriers bracket the ingest: every producer is parked before any
      // consumer drains, and no producer resumes until all ingests finished.
      barrier.Wait();
      batch.clear();
      for (int from = 0; from < shards; ++from) {
        if (from == s) continue;
        mail[static_cast<std::size_t>(from)][static_cast<std::size_t>(s)]->DrainInto(&batch);
      }
      // Heap order alone already fixes execution order; sorting the batch
      // additionally makes the *scheduling* sequence deterministic.
      std::sort(batch.begin(), batch.end(), [](const FleetHop& x, const FleetHop& y) {
        return x.arrive != y.arrive ? x.arrive < y.arrive : x.key < y.key;
      });
      for (const FleetHop& hop : batch) world.fabric.PushHop(hop);
      barrier.Wait();
      return batch.size();
    };
    SimTime t1 = std::min(delta, end);
    while (true) {
      // Run this window's events, stopping one tick short of the boundary so
      // ingested hops due exactly at t1 are scheduled before the clock
      // reaches them. The hop heap then drains to the same point so every
      // cross-shard hop of the closed window is already posted.
      world.fabric.sim().RunUntil(t1 - 1);
      world.fabric.DrainUpTo(world.fabric.sim().now());
      ++windows_per_shard[static_cast<std::size_t>(s)];
      exchange();
      if (t1 >= end) break;
      t1 = std::min(t1 + delta, end);
    }
    world.fabric.sim().RunUntil(end);
    world.fabric.DrainUpTo(end);
    if (exchange() != 0 || world.fabric.hops_pending() != 0) {
      throw std::runtime_error("FleetSim: traffic still in flight past the drain horizon");
    }
    world.FlushE2e();
  };

  const auto wall_start = std::chrono::steady_clock::now();
  if (shards == 1) {
    // Single world: run inline on the calling thread (no pool).
    shard_main(0);
  } else {
    core::ThreadPool pool(static_cast<unsigned>(shards));
    for (int s = 0; s < shards; ++s) pool.Submit([&shard_main, s] { shard_main(s); });
    pool.Wait();
  }
  result.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  for (int s = 0; s < shards; ++s) {
    FleetWorld& world = *worlds[static_cast<std::size_t>(s)];
    obs::Snapshot snap = obs::Snapshot::Capture(world.fabric.sim().metrics());
    if (s == 0) {
      result.merged = std::move(snap);
    } else {
      result.merged.Merge(snap);
    }
    result.events += world.fabric.sim().events_executed();
    result.hops += world.fabric.hops_processed();
    result.handoffs += world.fabric.handoffs_posted();
    result.windows = std::max(result.windows, windows_per_shard[static_cast<std::size_t>(s)]);
  }
  for (const auto& row : mail) {
    for (const auto& box : row) result.spills += box->spilled();
  }
  result.digest = Fnv1a(result.merged.ToJson());
  result.frames_sent = result.merged.counter("fleet.frames_sent");
  result.frames_delivered = result.merged.counter("fleet.frames_delivered");
  result.e2e_p50_ms = E2eQuantileMs(result.merged, 0.50);
  result.e2e_p95_ms = E2eQuantileMs(result.merged, 0.95);
  result.peak_concurrent = result.merged.gauge("fleet.concurrent_peak");

  // Probe-session sender draws, part 0 then part 1, from whichever world
  // owned each part (exactly one does).
  for (int part = 0; part < 2; ++part) {
    for (const auto& world : worlds) {
      result.probe_draws.insert(result.probe_draws.end(), world->probe_draws[part].begin(),
                                world->probe_draws[part].end());
    }
  }
  return result;
}

double FleetSim::E2eQuantileMs(const obs::Snapshot& snap, double q) {
  for (const obs::Snapshot::HistogramRow& row : snap.histograms) {
    if (row.name != "fleet.e2e_us") continue;
    if (row.count == 0) return 0.0;
    // Same interpolation as obs::Histogram::Quantile, over the merged row.
    const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(row.count);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < row.buckets.size(); ++i) {
      const std::uint64_t in_bucket = row.buckets[i];
      if (in_bucket == 0) continue;
      if (static_cast<double>(cum + in_bucket) >= target) {
        const double lo = i == 0 ? 0.0 : row.bounds[i - 1];
        if (i >= row.bounds.size()) return lo / 1000.0;
        const double frac =
            (target - static_cast<double>(cum)) / static_cast<double>(in_bucket);
        return (lo + (row.bounds[i] - lo) * std::clamp(frac, 0.0, 1.0)) / 1000.0;
      }
      cum += in_bucket;
    }
    return row.bounds.empty() ? 0.0 : row.bounds.back() / 1000.0;
  }
  return 0.0;
}

}  // namespace vtp::vca
