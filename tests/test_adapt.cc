// Tests for the adaptive-delivery control loop (transport/adapt.*), the
// netsim fault-injection layer it is exercised against, and the SFU's
// per-subscriber coarse-stream routing.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "netsim/netem.h"
#include "netsim/network.h"
#include "obs/metrics.h"
#include "transport/adapt.h"
#include "vca/session.h"

namespace vtp {
namespace {

// Sums every registry counter whose name ends with `suffix` (e.g. all
// "sfu<N>.rung_requests" regardless of which server instance handled them).
std::uint64_t SumCounters(const obs::MetricRegistry& reg, std::string_view suffix) {
  std::uint64_t total = 0;
  for (const auto& [name, counter] : reg.counters()) {
    if (name.size() >= suffix.size() &&
        std::string_view(name).substr(name.size() - suffix.size()) == suffix) {
      total += counter.value();
    }
  }
  return total;
}

// --- PathEstimator ------------------------------------------------------------------

TEST(PathEstimator, FirstSampleSeedsBaselineOnly) {
  transport::PathEstimator est;
  est.OnCounters(10000, 10, 0, 20.0, net::Millis(200));
  EXPECT_FALSE(est.estimate().valid);
  est.OnCounters(20000, 20, 0, 20.0, net::Millis(400));
  EXPECT_TRUE(est.estimate().valid);
  // 10 kB in 200 ms = 400 kbps.
  EXPECT_NEAR(est.estimate().send_rate_bps, 400e3, 1.0);
  EXPECT_DOUBLE_EQ(est.estimate().loss_sample, 0.0);
}

TEST(PathEstimator, LossSamplesAreWindowedAndSmoothed) {
  transport::AdaptConfig config;
  config.loss_alpha = 0.5;
  transport::PathEstimator est(config);
  est.OnCounters(0, 0, 0, 10.0, 0);
  est.OnCounters(12000, 10, 5, 10.0, net::Millis(200));
  EXPECT_DOUBLE_EQ(est.estimate().loss_sample, 0.5);
  EXPECT_DOUBLE_EQ(est.estimate().loss_ewma, 0.25);
  // Next window is clean: the raw sample drops to 0, the EWMA halves.
  est.OnCounters(24000, 20, 5, 10.0, net::Millis(400));
  EXPECT_DOUBLE_EQ(est.estimate().loss_sample, 0.0);
  EXPECT_DOUBLE_EQ(est.estimate().loss_ewma, 0.125);
  EXPECT_LT(est.estimate().delivery_rate_bps, est.estimate().send_rate_bps);
}

TEST(PathEstimator, LateLossDeclarationsClampToOne) {
  transport::PathEstimator est;
  est.OnCounters(1000, 10, 0, 5.0, 0);
  // The sent-packet ring declares an old burst lost after the fact: more
  // losses than sends in this window. The sample clamps instead of > 1.
  est.OnCounters(1100, 11, 9, 5.0, net::Millis(200));
  EXPECT_DOUBLE_EQ(est.estimate().loss_sample, 1.0);
}

TEST(PathEstimator, RttInflationTracksMinimum) {
  transport::PathEstimator est;
  est.OnCounters(0, 0, 0, 40.0, 0);
  est.OnCounters(1000, 1, 0, 22.0, net::Millis(200));
  est.OnCounters(2000, 2, 0, 97.0, net::Millis(400));
  EXPECT_DOUBLE_EQ(est.estimate().min_rtt_ms, 22.0);
  EXPECT_DOUBLE_EQ(est.estimate().rtt_inflation_ms(), 75.0);
}

TEST(PathEstimator, RtcpLossFractionFeedsTheSameEstimate) {
  transport::PathEstimator est;
  est.OnLossFraction(0.4, net::kSecond);
  EXPECT_TRUE(est.estimate().valid);
  EXPECT_NEAR(est.estimate().loss_ewma, 0.3 * 0.4, 1e-12);
}

// --- AdaptController ----------------------------------------------------------------

std::vector<transport::AdaptLevel> TestLevels() {
  return {{0, true, false, 800e3, "full+fec"}, {0, false, false, 650e3, "full"},
          {1, false, false, 400e3, "mid"},     {2, false, false, 200e3, "low"},
          {2, false, true, 60e3, "freeze"}};
}

transport::PathEstimate Estimate(double loss, double inflation_ms = 0.0,
                                 double delivery_bps = 0.0) {
  transport::PathEstimate e;
  e.valid = true;
  e.loss_ewma = loss;
  e.loss_sample = loss;
  e.srtt_ms = 20.0 + inflation_ms;
  e.min_rtt_ms = 20.0;
  e.send_rate_bps = delivery_bps;
  e.delivery_rate_bps = delivery_bps;
  return e;
}

TEST(AdaptController, DegradesOneLevelAtATimeWithDwell) {
  net::Simulator sim(1);
  transport::AdaptController ctl(&sim, TestLevels(), {}, "adapt.t0");
  net::SimTime t = net::kSecond;
  EXPECT_TRUE(ctl.Update(Estimate(0.10), t));
  EXPECT_EQ(ctl.level(), 1);  // FEC dropped first
  // Within the 400 ms dwell nothing moves, after it the rung coarsens.
  t += net::Millis(200);
  EXPECT_FALSE(ctl.Update(Estimate(0.10), t));
  t += net::Millis(300);
  EXPECT_TRUE(ctl.Update(Estimate(0.10), t));
  EXPECT_EQ(ctl.level(), 2);
  EXPECT_EQ(ctl.downswitches(), 2u);
}

TEST(AdaptController, RttInflationAloneDegrades) {
  net::Simulator sim(1);
  transport::AdaptController ctl(&sim, TestLevels(), {}, "adapt.t0");
  EXPECT_TRUE(ctl.Update(Estimate(0.0, /*inflation_ms=*/80.0), net::kSecond));
  EXPECT_EQ(ctl.level(), 1);
}

TEST(AdaptController, PanicRateMatchesToAFittingLevel) {
  net::Simulator sim(1);
  transport::AdaptController ctl(&sim, TestLevels(), {}, "adapt.t0");
  // 30% loss with ~390 kbps actually getting through: 0.85 * 390k = 331k,
  // so the first level whose nominal rate fits is "low" (200k).
  EXPECT_TRUE(ctl.Update(Estimate(0.30, 0.0, /*delivery_bps=*/390e3), net::kSecond));
  EXPECT_EQ(ctl.level(), 3);
}

TEST(AdaptController, PanicBelowEveryNominalLandsOnFreeze) {
  net::Simulator sim(1);
  transport::AdaptController ctl(&sim, TestLevels(), {}, "adapt.t0");
  EXPECT_TRUE(ctl.Update(Estimate(0.5, 0.0, /*delivery_bps=*/50e3), net::kSecond));
  EXPECT_EQ(ctl.level(), 4);
  EXPECT_TRUE(ctl.level_spec().freeze);
}

TEST(AdaptController, RecoversInReverseViaProbesAfterHoldDown) {
  net::Simulator sim(1);
  transport::AdaptController ctl(&sim, TestLevels(), {}, "adapt.t0");
  net::SimTime t = net::kSecond;
  ASSERT_TRUE(ctl.Update(Estimate(0.30, 0.0, 390e3), t));
  ASSERT_EQ(ctl.level(), 3);

  // Health clock starts at the first clean sample (t=2s); the hold-down
  // (2 s) must elapse on top of it before the controller probes up.
  t += net::kSecond;
  EXPECT_FALSE(ctl.Update(Estimate(0.0), t));
  t += net::kSecond;
  EXPECT_FALSE(ctl.Update(Estimate(0.0), t));
  t += net::kSecond;
  EXPECT_TRUE(ctl.Update(Estimate(0.0), t));
  EXPECT_EQ(ctl.level(), 2);
  EXPECT_TRUE(ctl.probing());
  // Probe window passes healthy: accepted, backoff resets.
  t += net::Millis(1600);
  EXPECT_FALSE(ctl.Update(Estimate(0.0), t));
  EXPECT_FALSE(ctl.probing());
  EXPECT_EQ(ctl.current_hold_down(), net::Seconds(2));
  EXPECT_EQ(ctl.upswitches(), 1u);
  EXPECT_EQ(ctl.probe_failures(), 0u);
}

TEST(AdaptController, FailedProbeFallsBackAndDoublesHoldDown) {
  net::Simulator sim(1);
  transport::AdaptController ctl(&sim, TestLevels(), {}, "adapt.t0");
  net::SimTime t = net::kSecond;
  ASSERT_TRUE(ctl.Update(Estimate(0.10), t));  // -> level 1
  t += net::kSecond;
  EXPECT_FALSE(ctl.Update(Estimate(0.0), t));  // health clock starts
  t += net::Seconds(2);
  ASSERT_TRUE(ctl.Update(Estimate(0.0), t));   // probe -> level 0
  ASSERT_TRUE(ctl.probing());
  // The probed level overloads the path inside the probe window.
  t += net::Millis(600);
  EXPECT_TRUE(ctl.Update(Estimate(0.12), t));
  EXPECT_EQ(ctl.level(), 1);
  EXPECT_FALSE(ctl.probing());
  EXPECT_EQ(ctl.probe_failures(), 1u);
  EXPECT_EQ(ctl.current_hold_down(), net::Seconds(4));
  // The next probe needs the doubled hold-down.
  t += net::Seconds(3);
  EXPECT_FALSE(ctl.Update(Estimate(0.0), t));  // health clock restarts here
  t += net::Seconds(2);
  EXPECT_FALSE(ctl.Update(Estimate(0.0), t));  // only 2 s healthy, needs 4 s
  t += net::Seconds(2);
  EXPECT_TRUE(ctl.Update(Estimate(0.0), t));
  EXPECT_TRUE(ctl.probing());
}

TEST(AdaptController, ResidencyAndRegistryDecisionsReconcile) {
  net::Simulator sim(1);
  transport::AdaptController ctl(&sim, TestLevels(), {}, "adapt.t0");
  net::SimTime t = 0;
  ctl.Update(Estimate(0.0), t);
  t += net::kSecond;
  ctl.Update(Estimate(0.10), t);  // 1 s charged to level 0, then degrade
  t += net::Seconds(2);
  ctl.Update(Estimate(0.10), t);  // 2 s charged to level 1, then degrade
  EXPECT_EQ(ctl.residency(0), net::kSecond);
  EXPECT_EQ(ctl.residency(1), net::Seconds(2));
  EXPECT_EQ(sim.metrics().CounterValue("adapt.t0.residency_ms.level1"), 2000u);
  EXPECT_EQ(sim.metrics().CounterValue("adapt.t0.downswitches"), 2u);
  EXPECT_EQ(sim.metrics().GaugeValue("adapt.t0.level"), 2.0);
}

// --- netsim fault injection ---------------------------------------------------------

// A deliberately tiny topology (two hosts, one duplex link) so the link
// under test is "net.link0" and every impairment applies to exactly the
// packets we offer.
struct UdpHarness {
  net::Simulator sim{7};
  net::Network net{&sim};
  net::NodeId a, b;
  std::vector<net::SimTime> arrivals;
  std::vector<int> seqs;  ///< payload sequence numbers in delivery order
  std::uint64_t delivered = 0;

  explicit UdpHarness(double rate_bps = 10e6) {
    a = net.AddNode("a", {37.7, -122.4}, net::Region::kWestUs, false);
    b = net.AddNode("b", {37.8, -122.3}, net::Region::kWestUs, false);
    net::LinkConfig link;
    link.rate_bps = rate_bps;
    link.prop_delay = net::Millis(5);
    net.Connect(a, b, link);
    net.ComputeRoutes();
    net.BindUdp(b, 9, [this](const net::Packet& p) {
      ++delivered;
      arrivals.push_back(sim.now());
      if (p.payload.size() >= 2) seqs.push_back(p.payload[0] | (p.payload[1] << 8));
    });
  }

  net::Netem netem() { return net::Netem(&net, a, b); }

  void SendBurst(int count, net::SimTime spacing, std::size_t bytes = 200) {
    for (int i = 0; i < count; ++i) {
      sim.At(net::kSecond + i * spacing, [this, bytes, i] {
        std::vector<std::uint8_t> payload(bytes, 0xAB);
        payload[0] = static_cast<std::uint8_t>(i);
        payload[1] = static_cast<std::uint8_t>(i >> 8);
        net.SendUdp(a, 9, b, 9, payload);
      });
    }
  }
};

TEST(FaultInjection, GilbertElliottAllBadDropsEverything) {
  UdpHarness h;
  h.netem().SetBurstLoss({.p_enter = 1.0, .p_exit = 0.0, .loss_bad = 1.0});
  h.SendBurst(50, net::Millis(10));
  h.sim.RunUntil(net::Seconds(5));
  EXPECT_EQ(h.delivered, 0u);
  EXPECT_EQ(h.sim.metrics().CounterValue("net.link0.dropped_loss"), 50u);
}

TEST(FaultInjection, GilbertElliottGoodStateIsLossFree) {
  UdpHarness h;
  h.netem().SetBurstLoss({.p_enter = 0.0, .p_exit = 1.0, .loss_bad = 1.0});
  h.SendBurst(50, net::Millis(10));
  h.sim.RunUntil(net::Seconds(5));
  EXPECT_EQ(h.delivered, 50u);
}

TEST(FaultInjection, BurstLossIsBurstyNotIid) {
  UdpHarness h;
  // Mean burst 10 packets, stationary bad fraction 1/3.
  h.netem().SetBurstLoss({.p_enter = 0.05, .p_exit = 0.1, .loss_bad = 1.0});
  h.SendBurst(600, net::Millis(5));
  h.sim.RunUntil(net::Seconds(10));
  EXPECT_GT(h.delivered, 200u);
  EXPECT_LT(h.delivered, 590u);
  // Bursty means long loss runs: with a mean burst of 10 packets there must
  // be an arrival gap of at least 5 sending intervals somewhere.
  net::SimTime max_gap = 0;
  for (std::size_t i = 1; i < h.arrivals.size(); ++i) {
    max_gap = std::max(max_gap, h.arrivals[i] - h.arrivals[i - 1]);
  }
  EXPECT_GE(max_gap, net::Millis(25));
}

TEST(FaultInjection, ReorderHoldsPacketsBackAndCounts) {
  UdpHarness h;
  h.netem().SetReorder(0.3, net::Millis(40));
  h.SendBurst(200, net::Millis(2));
  h.sim.RunUntil(net::Seconds(5));
  EXPECT_EQ(h.delivered, 200u);  // reorder never loses packets
  // Held-back packets genuinely land behind later sends: the delivered
  // sequence numbers are not monotonic.
  bool out_of_order = false;
  for (std::size_t i = 1; i < h.seqs.size(); ++i) {
    if (h.seqs[i] < h.seqs[i - 1]) out_of_order = true;
  }
  EXPECT_TRUE(out_of_order);
  EXPECT_GT(h.sim.metrics().CounterValue("net.link0.reordered"), 0u);
}

TEST(FaultInjection, DuplicateDeliversTwiceAndCounts) {
  UdpHarness h;
  h.netem().SetDuplicate(1.0);
  h.SendBurst(40, net::Millis(10));
  h.sim.RunUntil(net::Seconds(5));
  EXPECT_EQ(h.delivered, 80u);
  EXPECT_EQ(h.sim.metrics().CounterValue("net.link0.duplicated"), 40u);
}

TEST(FaultInjection, ScheduledFlapBlacksOutTheWindow) {
  UdpHarness h;
  // Window boundaries sit between the 10 ms send instants so event-order
  // ties cannot blur the edge: offers in [1.105 s, 1.305 s) all die.
  h.netem().ScheduleFlap(net::kSecond + net::Millis(105), net::Millis(200));
  h.SendBurst(50, net::Millis(10));
  h.sim.RunUntil(net::Seconds(5));
  EXPECT_EQ(h.delivered, 30u);
}

TEST(FaultInjection, RateRampCapsProgressively) {
  UdpHarness h;
  // Step the cap from 1 Mbps down to 100 kbps over [1 s, 2 s], then offer
  // ~25 kB at t=3 s: serialization alone takes ~2 s at the final cap.
  h.netem().ScheduleRateRamp(net::kSecond, net::Seconds(2), 1e6, 100e3, 4);
  h.sim.At(net::Seconds(3), [&h] {
    for (int i = 0; i < 25; ++i) {
      h.net.SendUdp(h.a, 9, h.b, 9, std::vector<std::uint8_t>(1000, 1));
    }
  });
  h.sim.RunUntil(net::Seconds(10));
  EXPECT_EQ(h.delivered, 25u);
  ASSERT_FALSE(h.arrivals.empty());
  EXPECT_GT(h.arrivals.back(), net::Seconds(3) + net::Millis(1800));
}

// --- adaptive sessions (integration) ------------------------------------------------

vca::SessionConfig TwoPartySpatial(net::SimTime duration, bool adapt = true) {
  vca::SessionConfig config;
  config.adapt = adapt;
  config.participants = {
      {.name = "U1", .metro = "SanFrancisco", .device = vca::DeviceType::kVisionPro},
      {.name = "U2", .metro = "NewYork", .device = vca::DeviceType::kVisionPro}};
  config.duration = duration;
  config.enable_reconstruction = false;
  return config;
}

TEST(AdaptOnSession, UncappedSessionStaysAtFullQualityWithFec) {
  vca::TelepresenceSession session(TwoPartySpatial(net::Seconds(10)));
  session.Run();
  for (std::size_t i = 0; i < 2; ++i) {
    const auto* ctl = session.adapt_controller(i);
    ASSERT_NE(ctl, nullptr);
    EXPECT_EQ(ctl->level(), 0);
    EXPECT_EQ(ctl->downswitches(), 0u);
    EXPECT_TRUE(session.spatial_sender(i)->fec_enabled());
  }
  // Level 0 carries FEC even though the session left spatial_fec_k at 0:
  // the adaptive ladder supplies its own group size.
  EXPECT_GT(session.spatial_sender(0)->fec_parity_bytes_sent(), 0u);
  const auto report = session.BuildReport();
  EXPECT_GT(report.participants[1].persona_available_fraction, 0.97);
}

TEST(AdaptOnSession, CappedUplinkWalksDownTheLadderAndStaysAvailable) {
  vca::TelepresenceSession session(TwoPartySpatial(net::Seconds(25)));
  net::Netem netem = session.UplinkNetem(0);
  netem.SetRateBps(400e3);  // below full quality, above the deepest rungs
  session.Run();
  const auto* ctl = session.adapt_controller(0);
  ASSERT_NE(ctl, nullptr);
  EXPECT_GT(ctl->downswitches(), 0u);
  EXPECT_GT(ctl->level(), 0);
  EXPECT_FALSE(session.spatial_sender(0)->fec_enabled());
  // Steady state under the cap lives in the deeper half of the ladder.
  std::uint64_t deep_residency = 0;
  for (int l = 2; l < static_cast<int>(ctl->levels().size()); ++l) {
    deep_residency += static_cast<std::uint64_t>(ctl->residency(l));
  }
  EXPECT_GT(deep_residency, static_cast<std::uint64_t>(net::Seconds(10)));
  // The whole point: the subscriber keeps decoding U1 under the cap.
  const auto& remote = session.spatial_receiver(1)->remote(0);
  EXPECT_GT(remote.frames_decoded, 1000u);
}

TEST(AdaptOnSession, DownlinkLossTriggersPerSubscriberCoarseStream) {
  vca::TelepresenceSession session(TwoPartySpatial(net::Seconds(16)));
  // Only U2's *downlink* is lossy: U1's uplink stays clean, so U1 keeps
  // full quality and simulcasts the coarse rung for U2 specifically.
  net::Netem netem = session.DownlinkNetem(1);
  netem.SetLoss(0.25);
  session.Run();
  EXPECT_EQ(session.adapt_controller(0)->level(), 0);
  const auto& metrics = session.sim().metrics();
  EXPECT_GT(SumCounters(metrics, ".rung_requests"), 0u);
  EXPECT_GT(SumCounters(metrics, ".coarse_notifies"), 0u);
  EXPECT_TRUE(session.spatial_sender(0)->coarse_enabled());
  // The coarse stream decodes standalone, so U2 keeps decoding through the
  // loss (each arriving frame is independent).
  const auto& remote = session.spatial_receiver(1)->remote(0);
  EXPECT_GT(remote.frames_decoded, 600u);
}

TEST(AdaptOnSession, BurstLossFaultRecoversWithinBoundedHoldDown) {
  vca::TelepresenceSession session(TwoPartySpatial(net::Seconds(40)));
  net::Netem netem = session.UplinkNetem(0);
  // A brutal burst-loss episode (stationary ~80% loss) from t=8s to t=12s,
  // then a clean path for the remaining 28 s.
  session.sim().At(net::Seconds(8), [&netem] {
    netem.SetBurstLoss({.p_enter = 0.2, .p_exit = 0.05, .loss_bad = 1.0});
  });
  session.sim().At(net::Seconds(12), [&netem] { netem.ClearBurstLoss(); });
  session.Run();
  const auto* ctl = session.adapt_controller(0);
  ASSERT_NE(ctl, nullptr);
  EXPECT_GT(ctl->downswitches(), 0u);
  // Bounded recovery: no probes ran during the episode, so the hold-down
  // never doubled and the 28 s clean tail is enough to climb back near full
  // quality (one probe cycle per level, ~3.5 s each).
  EXPECT_GE(ctl->upswitches(), 3u);
  EXPECT_LE(ctl->level(), 2);
  const auto report = session.BuildReport();
  EXPECT_GT(report.participants[1].persona_available_fraction, 0.6);
}

TEST(AdaptConfig, OffMeansNoControllersAndNoAdaptTraffic) {
  vca::TelepresenceSession session(TwoPartySpatial(net::Seconds(5), /*adapt=*/false));
  session.Run();
  EXPECT_FALSE(session.adapt_enabled());
  EXPECT_EQ(session.adapt_controller(0), nullptr);
  const auto& metrics = session.sim().metrics();
  EXPECT_EQ(SumCounters(metrics, ".rung_requests"), 0u);
  EXPECT_EQ(metrics.CounterValue("adapt.tx0.downswitches"), 0u);
  EXPECT_FALSE(session.spatial_sender(0)->fec_enabled());  // fec_k = 0: no FEC
}

}  // namespace
}  // namespace vtp
