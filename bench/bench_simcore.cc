// Simulation-core microbenchmark: the timer-wheel/event-pool scheduler and
// the pooled packet buffers.
//
//   1. event churn  — self-rescheduling timer chains with realistic (~40 B)
//      captures plus a sprinkle of far timers that exercise the outer wheel
//      levels and the overflow heap;
//   2. packet churn — a UDP blast across a small topology, exercising link
//      transmission, forwarding, and pooled payload recycling;
//   3. obs A/B      — a 5-user FaceTime session with frame-lifecycle tracing
//      armed (SessionConfig::trace_frames, the default) vs disarmed; the
//      throughput overhead must stay within the observability budget (<3%
//      target, >5% fails) and the session reports must agree bit for bit.
//
// Results always go to BENCH_simcore.json (override the path with
// VTP_BENCH_JSON) so perf regressions are machine-checkable.
#include <iostream>

#include "bench/bench_util.h"
#include "bench/report.h"
#include "netsim/network.h"
#include "netsim/packet_buffer.h"
#include "vca/session.h"

using namespace vtp;

namespace {

// ---- 1. event churn -------------------------------------------------------

struct ChurnStats {
  double wall_s = 0;
  std::uint64_t events = 0;
  net::SchedulerStats sched;
  double events_per_sec() const { return wall_s > 0 ? events / wall_s : 0; }
  double allocs_per_event() const {
    return events == 0 ? 0
                       : static_cast<double>(sched.callback_heap_allocs + sched.pool_slabs) /
                             static_cast<double>(events);
  }
};

/// A self-rescheduling timer. The padding brings the capture to the size of
/// a typical delivery event (a Packet plus a pointer), which is what decides
/// whether an engine allocates per event.
struct Chain {
  net::Simulator* sim;
  net::SimTime horizon;
  std::uint64_t salt;
  std::uint64_t payload[2];  // realistic capture size (~40 B total)

  void operator()() {
    salt = salt * 6364136223846793005ULL + 1442695040888963407ULL;
    payload[0] ^= salt;
    if (sim->now() >= horizon) return;
    const net::SimTime delay = 1 + static_cast<net::SimTime>(salt % net::Micros(150));
    if (salt % 512 == 0) {
      // Occasional long timer: lands in an outer wheel level or the overflow
      // heap, like a session-teardown or stats timer would.
      sim->After(net::Seconds(2), [] {});
    }
    sim->After(delay, *this);
  }
};

ChurnStats RunEventChurn() {
  net::Simulator sim(42);
  constexpr int kChains = 64;
  const net::SimTime horizon = net::Seconds(2);
  for (int i = 0; i < kChains; ++i) {
    Chain c{&sim, horizon, 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(i + 1), {}};
    sim.After(1 + net::Micros(i), std::move(c));
  }
  const bench::WallTimer timer;
  sim.RunUntil(horizon + net::Seconds(3));  // drain the far timers too
  ChurnStats out;
  out.wall_s = timer.seconds();
  out.events = sim.events_executed();
  out.sched = sim.scheduler_stats();
  return out;
}

// ---- 2. packet churn ------------------------------------------------------

struct PacketChurnStats {
  double wall_s = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t events = 0;
  net::PacketPoolStats pool;
  double packets_per_sec() const { return wall_s > 0 ? packets_sent / wall_s : 0; }
  double pool_hit_rate() const {
    return pool.allocations == 0
               ? 0
               : static_cast<double>(pool.pool_hits) / static_cast<double>(pool.allocations);
  }
};

struct Blaster {
  net::Network* net;
  net::NodeId src, dst;
  std::uint32_t remaining;
  net::SimTime gap;

  void operator()() {
    if (remaining == 0) return;
    --remaining;
    net::PacketBuffer payload(972);  // the spatial persona's datagram size
    net->SendUdp(src, 5000, dst, 5000, std::move(payload));
    net->sim().After(gap, *this);
  }
};

PacketChurnStats RunPacketChurn() {
  net::Simulator sim(7);
  net::Network network(&sim);
  const net::NodeId a = network.AddNode("a", {37.7, -122.4}, net::Region::kWestUs, false);
  const net::NodeId r = network.AddNode("r", {39.1, -94.6}, net::Region::kMiddleUs, true);
  const net::NodeId b = network.AddNode("b", {40.7, -74.0}, net::Region::kEastUs, false);
  net::LinkConfig cfg;
  cfg.rate_bps = 1e9;
  cfg.prop_delay = net::Millis(5);
  network.Connect(a, r, cfg);
  network.Connect(r, b, cfg);
  network.ComputeRoutes();

  PacketChurnStats out;
  network.BindUdp(b, 5000, [&out](const net::Packet&) { ++out.packets_delivered; });

  constexpr std::uint32_t kPackets = 200000;
  out.packets_sent = kPackets;
  sim.At(1, Blaster{&network, a, b, kPackets, net::Micros(40)});

  net::PacketPool::ThreadLocal().ResetStats();
  const bench::WallTimer timer;
  sim.Run();
  out.wall_s = timer.seconds();
  out.events = sim.events_executed();
  out.pool = net::PacketPool::ThreadLocal().stats();
  return out;
}

// ---- 3. obs A/B -----------------------------------------------------------

struct SessionRun {
  double wall_s = 0;
  std::uint64_t events = 0;
  double uplink_mbps = 0;
  double downlink_mbps = 0;
  double events_per_sec() const { return wall_s > 0 ? events / wall_s : 0; }
};

/// The Figure 6 extreme: a 5-user all-Vision-Pro FaceTime session (FaceTime's
/// persona cap), transport-only so the scheduler share of the wall time is
/// what the fig6 sweeps actually pay per session.
SessionRun RunSession(bool obs) {
  const char* metros[] = {"SanFrancisco", "NewYork", "Chicago", "Dallas", "Seattle"};
  vca::SessionConfig config;
  config.app = vca::VcaApp::kFaceTime;
  for (int i = 0; i < 5; ++i) {
    config.participants.push_back({.name = "U" + std::to_string(i + 1),
                                   .metro = metros[i],
                                   .device = vca::DeviceType::kVisionPro});
  }
  config.duration = net::Seconds(8);
  config.seed = 4242;
  config.enable_reconstruction = false;
  config.enable_render = false;
  config.trace_frames = obs;
  const bench::WallTimer timer;
  vca::TelepresenceSession session(std::move(config));
  session.Run();
  const vca::SessionReport report = session.BuildReport();
  SessionRun out;
  out.wall_s = timer.seconds();
  out.events = session.sim().events_executed();
  out.uplink_mbps = report.participants[0].uplink_mbps.mean;
  out.downlink_mbps = report.participants[0].downlink_mbps.mean;
  return out;
}

// ---- output ---------------------------------------------------------------

void WriteChurn(core::JsonWriter& w, const ChurnStats& s) {
  w.BeginObject();
  w.Key("wall_s"); w.Number(s.wall_s);
  w.Key("events"); w.Int(static_cast<std::int64_t>(s.events));
  w.Key("events_per_sec"); w.Number(s.events_per_sec());
  w.Key("allocs_per_event"); w.Number(s.allocs_per_event());
  w.Key("callback_heap_allocs"); w.Int(static_cast<std::int64_t>(s.sched.callback_heap_allocs));
  w.Key("pool_slabs"); w.Int(static_cast<std::int64_t>(s.sched.pool_slabs));
  w.Key("overflow_inserts"); w.Int(static_cast<std::int64_t>(s.sched.overflow_inserts));
  w.Key("max_pending"); w.Int(static_cast<std::int64_t>(s.sched.max_pending));
  w.EndObject();
}

void WritePacketChurn(core::JsonWriter& w, const PacketChurnStats& s) {
  w.BeginObject();
  w.Key("wall_s"); w.Number(s.wall_s);
  w.Key("packets_sent"); w.Int(static_cast<std::int64_t>(s.packets_sent));
  w.Key("packets_delivered"); w.Int(static_cast<std::int64_t>(s.packets_delivered));
  w.Key("events"); w.Int(static_cast<std::int64_t>(s.events));
  w.Key("packets_per_sec"); w.Number(s.packets_per_sec());
  w.Key("pool_hit_rate"); w.Number(s.pool_hit_rate());
  w.Key("fresh_blocks"); w.Int(static_cast<std::int64_t>(s.pool.fresh_blocks));
  w.EndObject();
}

}  // namespace

int main() {
  std::cout << "Simulation-core benchmark: timer wheel + pooled packet buffers.\n";

  bench::Banner("1. event churn (64 self-rescheduling chains, 2 s sim time)");
  const ChurnStats churn = RunEventChurn();
  core::TextTable churn_table;
  churn_table.SetHeader({"events", "wall (s)", "Mevents/s", "allocs/event"});
  churn_table.AddRow({core::Fmt(static_cast<double>(churn.events), 0),
                      core::Fmt(churn.wall_s, 3), core::Fmt(churn.events_per_sec() / 1e6, 2),
                      core::Fmt(churn.allocs_per_event(), 4)});
  churn_table.Print(std::cout);

  bench::Banner("2. packet churn (200K UDP datagrams across 2 hops)");
  const PacketChurnStats pkt = RunPacketChurn();
  core::TextTable pkt_table;
  pkt_table.SetHeader({"delivered", "wall (s)", "Kpkts/s", "pool hit rate"});
  pkt_table.AddRow({core::Fmt(static_cast<double>(pkt.packets_delivered), 0),
                    core::Fmt(pkt.wall_s, 3), core::Fmt(pkt.packets_per_sec() / 1e3, 1),
                    core::Fmt(100 * pkt.pool_hit_rate(), 1) + "%"});
  pkt_table.Print(std::cout);

  bench::Banner("3. obs A/B (fig6 5-user FaceTime, 8 s, frame tracing armed vs off, best of 2)");
  SessionRun obs_on, obs_off;
  bool obs_identical = true;
  for (int rep = 0; rep < 2; ++rep) {
    const SessionRun on = RunSession(/*obs=*/true);
    const SessionRun off = RunSession(/*obs=*/false);
    if (rep == 0 || on.wall_s < obs_on.wall_s) obs_on = on;
    if (rep == 0 || off.wall_s < obs_off.wall_s) obs_off = off;
    obs_identical = obs_identical && on.events == off.events &&
                    on.uplink_mbps == off.uplink_mbps &&
                    on.downlink_mbps == off.downlink_mbps;
  }
  const double obs_overhead_pct =
      obs_off.wall_s > 0 ? (obs_on.wall_s / obs_off.wall_s - 1.0) * 100 : 0;
  const bool obs_ok = obs_overhead_pct <= 5.0 && obs_identical;
  std::cout << "obs on:  " << core::Fmt(obs_on.wall_s, 3) << " s (" << obs_on.events
            << " events, " << core::Fmt(obs_on.events_per_sec() / 1e6, 2)
            << " Mevents/s)\nobs off: " << core::Fmt(obs_off.wall_s, 3) << " s\noverhead: "
            << core::Fmt(obs_overhead_pct, 2)
            << "% (target <3%, hard fail >5%); reports identical: "
            << (obs_identical ? "yes" : "NO")
            << "\n(model code — codecs, capture, QUIC — dominates session wall time; the\n"
               "scheduler's own capacity is the event-churn number above)\n";

  // ---- JSON ---------------------------------------------------------------
  bench::JsonReport report("simcore");
  core::JsonWriter& w = report.writer();
  w.Key("event_churn"); WriteChurn(w, churn);
  w.Key("packet_churn"); WritePacketChurn(w, pkt);
  w.Key("obs_overhead");
  w.BeginObject();
  w.Key("users"); w.Int(5);
  w.Key("events"); w.Int(static_cast<std::int64_t>(obs_on.events));
  w.Key("on_wall_s"); w.Number(obs_on.wall_s);
  w.Key("off_wall_s"); w.Number(obs_off.wall_s);
  w.Key("overhead_pct"); w.Number(obs_overhead_pct);
  w.Key("target_pct"); w.Number(3.0);
  w.Key("fail_pct"); w.Number(5.0);
  w.Key("reports_identical"); w.Bool(obs_identical);
  w.EndObject();

  const std::string path = report.Write();
  std::cout << "\nwrote " << path << "\n";

  if (!obs_ok) std::cout << "FAIL: obs overhead > 5% or changed the session report\n";
  return obs_ok ? 0 : 1;
}
