// Adaptive-delivery robustness bench: the §4.3d uplink-cap sweep with the
// adaptive control loop (SessionConfig::adapt) on vs off, plus a
// Gilbert-Elliott burst-loss recovery scenario.
//
// The paper's finding (§4.3d) is that FaceTime's spatial persona has no
// rate ladder: capping the uplink below ~700 Kbps kills it. The adaptive
// controller is the counterfactual — with adaptation on the persona must
// stay available all the way down to 200 Kbps (the freeze/coarse rungs
// fit under the cap). CI gates on:
//
//   * adaptive steady-state availability == 100% at every cap down to
//     200 Kbps;
//   * the non-adaptive cliff is intact (alive at 1200, dead at <=500);
//   * a 4-second Gilbert-Elliott burst-loss episode recovers to full
//     availability within the bounded hold-down schedule.
//
// Steady state is measured over the tail window of each run, after the
// cap-transient (panic overshoot + queue drain + probe climb, ~10-15 s)
// has settled. `--smoke` trims the cap list and durations for CI.
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/report.h"
#include "netsim/netem.h"
#include "transport/adapt.h"
#include "vca/session.h"

using namespace vtp;

namespace {

struct CapRun {
  double cap_kbps = 0;
  bool adaptive = false;
  double steady_availability = 0;   // fraction of tail-window samples available
  double overall_availability = 0;  // whole-run report fraction (incl. transient)
  std::uint64_t frames_decoded = 0;
  int final_level = 0;
  std::string final_level_name = "-";
  std::uint64_t downswitches = 0;
  std::uint64_t upswitches = 0;
  std::uint64_t probe_failures = 0;
};

// Samples U2's view of U1's persona at 10 Hz over [duration - window, duration).
void ScheduleAvailabilitySampling(vca::TelepresenceSession& session, net::SimTime duration,
                                  net::SimTime window, int* available, int* total) {
  for (net::SimTime t = duration - window; t < duration; t += net::Millis(100)) {
    session.sim().At(t, [&session, available, total] {
      ++*total;
      if (session.spatial_receiver(1)->PersonaAvailable(0, session.sim().now())) {
        ++*available;
      }
    });
  }
}

void FillControllerStats(const vca::TelepresenceSession& session, CapRun* run) {
  if (const transport::AdaptController* ctl = session.adapt_controller(0)) {
    run->final_level = ctl->level();
    run->final_level_name = ctl->level_spec().name;
    run->downswitches = ctl->downswitches();
    run->upswitches = ctl->upswitches();
    run->probe_failures = ctl->probe_failures();
  }
}

CapRun RunCappedSession(double cap_kbps, bool adaptive, net::SimTime duration,
                        net::SimTime window) {
  vca::SessionConfig config = vca::TwoPartySpatialConfig(duration);
  config.adapt = adaptive;
  vca::TelepresenceSession session(std::move(config));
  net::Netem netem = session.UplinkNetem(0);
  session.sim().After(net::Seconds(4), [&netem, cap_kbps] {
    netem.SetRateBps(cap_kbps * 1e3);
  });
  int available = 0, total = 0;
  ScheduleAvailabilitySampling(session, duration, window, &available, &total);
  session.Run();

  CapRun run;
  run.cap_kbps = cap_kbps;
  run.adaptive = adaptive;
  run.steady_availability = total > 0 ? static_cast<double>(available) / total : 0;
  run.overall_availability =
      session.BuildReport().participants[1].persona_available_fraction;
  run.frames_decoded = session.spatial_receiver(1)->remote(0).frames_decoded;
  FillControllerStats(session, &run);
  return run;
}

struct BurstRun {
  double steady_availability = 0;
  double recovery_s = -1;  // time from fault clear to last unavailable sample
  std::uint64_t downswitches = 0;
  std::uint64_t upswitches = 0;
  int final_level = 0;
  std::string final_level_name = "-";
};

// Uncapped uplink, but a Gilbert-Elliott episode (mean burst 5 pkts, 100%
// in-burst loss) between t=8s and t=12s. The controller must walk down
// during the episode and probe back up afterwards.
BurstRun RunBurstEpisode(net::SimTime duration, net::SimTime window) {
  vca::SessionConfig config = vca::TwoPartySpatialConfig(duration);
  config.adapt = true;
  vca::TelepresenceSession session(std::move(config));
  net::Netem netem = session.UplinkNetem(0);
  session.sim().After(net::Seconds(8), [&netem] {
    netem.SetBurstLoss({.p_enter = 0.2, .p_exit = 0.2, .loss_bad = 1.0});
  });
  session.sim().After(net::Seconds(12), [&netem] { netem.ClearBurstLoss(); });

  int available = 0, total = 0;
  ScheduleAvailabilitySampling(session, duration, window, &available, &total);
  // Track how long after the fault clears the persona still reads
  // unavailable (the recovery transient).
  auto last_unavailable = std::make_shared<net::SimTime>(net::Seconds(12));
  for (net::SimTime t = net::Seconds(12); t < duration; t += net::Millis(100)) {
    session.sim().At(t, [&session, last_unavailable] {
      if (!session.spatial_receiver(1)->PersonaAvailable(0, session.sim().now())) {
        *last_unavailable = session.sim().now();
      }
    });
  }
  session.Run();

  BurstRun run;
  run.steady_availability = total > 0 ? static_cast<double>(available) / total : 0;
  run.recovery_s = net::ToSeconds(*last_unavailable - net::Seconds(12));
  if (const transport::AdaptController* ctl = session.adapt_controller(0)) {
    run.downswitches = ctl->downswitches();
    run.upswitches = ctl->upswitches();
    run.final_level = ctl->level();
    run.final_level_name = ctl->level_spec().name;
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const net::SimTime duration = smoke ? net::Seconds(32) : net::Seconds(40);
  const net::SimTime window = smoke ? net::Seconds(8) : net::Seconds(10);
  const std::vector<double> caps = smoke
                                       ? std::vector<double>{1200.0, 700.0, 200.0}
                                       : std::vector<double>{1200.0, 900.0, 700.0,
                                                             500.0, 350.0, 200.0};

  std::cout << "Adaptive-delivery robustness bench" << (smoke ? " (smoke)" : "")
            << "\nCap sweep: " << net::ToSeconds(duration) << " s sessions, cap at t=4 s, "
            << "steady state = last " << net::ToSeconds(window) << " s\n";

  std::vector<CapRun> fixed_runs, adaptive_runs;
  for (const bool adaptive : {false, true}) {
    auto runs = bench::ParallelRepeats(static_cast<int>(caps.size()), [&](int i) {
      return RunCappedSession(caps[static_cast<std::size_t>(i)], adaptive, duration,
                              window);
    });
    (adaptive ? adaptive_runs : fixed_runs) = std::move(runs);
  }

  bench::Banner("cap sweep: steady-state persona availability");
  core::TextTable table;
  table.SetHeader({"cap (Kbps)", "fixed avail", "adaptive avail", "adaptive level",
                   "down/up/probe-fail", "frames decoded"});
  for (std::size_t i = 0; i < caps.size(); ++i) {
    const CapRun& f = fixed_runs[i];
    const CapRun& a = adaptive_runs[i];
    table.AddRow({core::Fmt(caps[i], 0), core::Fmt(100 * f.steady_availability, 0) + "%",
                  core::Fmt(100 * a.steady_availability, 0) + "%",
                  "L" + std::to_string(a.final_level) + " (" + a.final_level_name + ")",
                  std::to_string(a.downswitches) + "/" + std::to_string(a.upswitches) +
                      "/" + std::to_string(a.probe_failures),
                  std::to_string(a.frames_decoded)});
  }
  table.Print(std::cout);

  bench::Banner("burst loss: 4 s Gilbert-Elliott episode, adaptive recovery");
  const BurstRun burst = RunBurstEpisode(duration, window);
  std::cout << "steady availability " << core::Fmt(100 * burst.steady_availability, 0)
            << "%, recovered " << core::Fmt(burst.recovery_s, 1)
            << " s after fault cleared, downswitches " << burst.downswitches
            << ", upswitches " << burst.upswitches << ", final L" << burst.final_level
            << " (" << burst.final_level_name << ")\n";

  // ---- gates --------------------------------------------------------------
  bool ok = true;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    if (adaptive_runs[i].steady_availability < 0.999) {
      std::cout << "FAIL: adaptive persona not fully available at "
                << core::Fmt(caps[i], 0) << " Kbps ("
                << core::Fmt(100 * adaptive_runs[i].steady_availability, 1) << "%)\n";
      ok = false;
    }
    // The paper's cliff must stay reproduced with the knob off: alive well
    // above ~700 Kbps, dead well below. 700 itself is borderline — ungated.
    if (caps[i] >= 900.0 && fixed_runs[i].steady_availability < 0.99) {
      std::cout << "FAIL: non-adaptive persona should survive "
                << core::Fmt(caps[i], 0) << " Kbps\n";
      ok = false;
    }
    if (caps[i] <= 500.0 && fixed_runs[i].steady_availability > 0.10) {
      std::cout << "FAIL: non-adaptive cliff gone at " << core::Fmt(caps[i], 0)
                << " Kbps (" << core::Fmt(100 * fixed_runs[i].steady_availability, 1)
                << "% available)\n";
      ok = false;
    }
  }
  if (burst.steady_availability < 0.999) {
    std::cout << "FAIL: burst-loss episode did not recover to full availability\n";
    ok = false;
  }
  if (burst.downswitches == 0 || burst.upswitches == 0) {
    std::cout << "FAIL: burst-loss episode did not exercise the controller\n";
    ok = false;
  }

  // ---- JSON ---------------------------------------------------------------
  bench::JsonReport report("adapt");
  core::JsonWriter& w = report.writer();
  w.Key("smoke"); w.Bool(smoke);
  w.Key("duration_s"); w.Number(net::ToSeconds(duration));
  w.Key("steady_window_s"); w.Number(net::ToSeconds(window));
  w.Key("cap_sweep");
  w.BeginArray();
  for (std::size_t i = 0; i < caps.size(); ++i) {
    const CapRun& f = fixed_runs[i];
    const CapRun& a = adaptive_runs[i];
    w.BeginObject();
    w.Key("cap_kbps"); w.Number(caps[i]);
    w.Key("fixed_steady_availability"); w.Number(f.steady_availability);
    w.Key("fixed_overall_availability"); w.Number(f.overall_availability);
    w.Key("adaptive_steady_availability"); w.Number(a.steady_availability);
    w.Key("adaptive_overall_availability"); w.Number(a.overall_availability);
    w.Key("adaptive_final_level"); w.Int(a.final_level);
    w.Key("adaptive_final_level_name"); w.String(a.final_level_name);
    w.Key("adaptive_downswitches"); w.Int(static_cast<std::int64_t>(a.downswitches));
    w.Key("adaptive_upswitches"); w.Int(static_cast<std::int64_t>(a.upswitches));
    w.Key("adaptive_probe_failures");
    w.Int(static_cast<std::int64_t>(a.probe_failures));
    w.Key("adaptive_frames_decoded");
    w.Int(static_cast<std::int64_t>(a.frames_decoded));
    w.EndObject();
  }
  w.EndArray();
  w.Key("burst_recovery");
  w.BeginObject();
  w.Key("steady_availability"); w.Number(burst.steady_availability);
  w.Key("recovery_s"); w.Number(burst.recovery_s);
  w.Key("downswitches"); w.Int(static_cast<std::int64_t>(burst.downswitches));
  w.Key("upswitches"); w.Int(static_cast<std::int64_t>(burst.upswitches));
  w.Key("final_level"); w.Int(burst.final_level);
  w.EndObject();
  w.Key("gates_passed"); w.Bool(ok);

  const std::string path = report.Write();
  std::cout << "\nwrote " << path << "\n";
  if (ok) std::cout << "all gates passed\n";
  return ok ? 0 : 1;
}
