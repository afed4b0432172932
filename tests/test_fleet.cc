// Tests for the sharded conservative-lookahead simulation core: the
// determinism contract (bit-identical merged snapshots for any shard count,
// and golden digests for the clean, faulted and bench-smoke fleets),
// per-flow RNG stream invariance, topology partitioning rules (zero-delay
// edges must never cross shards), and exactly-once fault injection on
// boundary links.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "netsim/random.h"
#include "netsim/shard.h"
#include "vca/fleet.h"

namespace vtp {
namespace {

using net::FabricEdge;
using net::FabricTopology;
using net::LinkConfig;
using vca::FleetConfig;
using vca::FleetResult;
using vca::FleetSim;

FleetConfig SmallFleet() {
  FleetConfig cfg;
  cfg.seed = 11;
  cfg.target_sessions = 48;
  cfg.duration = net::Seconds(2);
  cfg.mean_session_s = 8;
  cfg.diurnal_period_s = 2;
  return cfg;
}

/// The per-metro load weights FleetSim::Run derives from its schedule (two
/// endpoints per session), reproduced so tests can inspect the partition the
/// run will use.
std::vector<double> LoadWeights(const FleetSim& fleet) {
  std::vector<double> weights(fleet.topology().metro_count(), 0.0);
  for (const vca::SessionSpec& sp : fleet.schedule()) {
    weights[sp.metro[0]] += 1.0;
    weights[sp.metro[1]] += 1.0;
  }
  return weights;
}

// --- determinism across shard counts -----------------------------------------

TEST(FleetDeterminism, MergedDigestIsBitIdenticalAcrossShardCounts) {
  std::vector<FleetResult> results;
  for (int shards : {1, 2, 4}) {
    FleetConfig cfg = SmallFleet();
    cfg.shards = shards;
    results.push_back(FleetSim(cfg).Run());
  }
  ASSERT_GT(results[0].frames_delivered, 1000u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].digest, results[0].digest) << "shards=" << results[i].shards;
    EXPECT_EQ(results[i].merged.ToJson(), results[0].merged.ToJson());
    // Work conservation: the same packets make the same hops, only the
    // thread that executes them changes.
    EXPECT_EQ(results[i].hops, results[0].hops);
  }
  // The sharded runs really did cross shard boundaries.
  EXPECT_EQ(results[0].handoffs, 0u);
  EXPECT_GT(results[2].handoffs, 0u);
}

// --- golden digests ----------------------------------------------------------
//
// Recorded while the per-hop engine and the single-threaded Simulator::Run()
// harness still existed and produced these same values: the pins hold the
// one remaining engine to every behaviour those differential runs checked.

struct Golden {
  std::uint64_t digest;
  std::uint64_t hops;
  std::uint64_t frames_delivered;
};

void ExpectGolden(const FleetResult& r, const Golden& g) {
  EXPECT_EQ(r.digest, g.digest) << std::hex << "shards=" << r.shards << " digest=0x" << r.digest;
  EXPECT_EQ(r.hops, g.hops) << "shards=" << r.shards;
  EXPECT_EQ(r.frames_delivered, g.frames_delivered) << "shards=" << r.shards;
}

TEST(FleetGolden, SmallFleetCleanRun) {
  for (int shards : {1, 2, 4}) {
    FleetConfig cfg = SmallFleet();
    cfg.shards = shards;
    const FleetResult r = FleetSim(cfg).Run();
    ExpectGolden(r, {0xcbdeffed232ba8aeull, 25330, 5733});
    // No per-hop or per-frame Simulator events: one bin tick per
    // millisecond of generation horizon, per shard.
    EXPECT_EQ(r.events, 2035u * static_cast<std::uint64_t>(shards));
  }
}

TEST(FleetGolden, BenchSmokeConfig) {
  // bench_fleet --smoke's fleet: seed 7, 64 sessions, 3 s.
  for (int shards : {1, 2}) {
    FleetConfig cfg;
    cfg.seed = 7;
    cfg.target_sessions = 64;
    cfg.duration = net::Seconds(3);
    cfg.mean_session_s = 20;
    cfg.diurnal_period_s = 3;
    cfg.shards = shards;
    ExpectGolden(FleetSim(cfg).Run(), {0x7324c4e9ec4771a2ull, 57315, 12026});
  }
}

TEST(FleetConfig, PathNamesOnlyTheOneEngine) {
  FleetConfig cfg = SmallFleet();
  for (const char* ok : {"", "express"}) {
    cfg.path = ok;
    EXPECT_NO_THROW(FleetSim{cfg}) << ok;
  }
  for (const char* bad : {"hops", "bogus"}) {
    cfg.path = bad;
    EXPECT_THROW(FleetSim{cfg}, std::invalid_argument) << bad;
  }
}

// --- per-flow RNG streams ----------------------------------------------------

TEST(FleetDeterminism, ProbeSessionDrawsAreShardCountInvariant) {
  std::vector<std::vector<double>> draws;
  for (int shards : {1, 2, 4}) {
    FleetConfig cfg = SmallFleet();
    cfg.shards = shards;
    cfg.probe_session = 5;
    draws.push_back(FleetSim(cfg).Run().probe_draws);
  }
  // Phase draw + one size draw per frame, for both participants.
  ASSERT_GT(draws[0].size(), 20u);
  EXPECT_EQ(draws[0], draws[1]);
  EXPECT_EQ(draws[0], draws[2]);
}

TEST(DeriveSeed, SeparatesDomainsAndStreams) {
  const std::uint64_t a = net::DeriveSeed(1, net::RngDomain::kSessionTraffic, 0);
  EXPECT_EQ(a, net::DeriveSeed(1, net::RngDomain::kSessionTraffic, 0));  // stable
  EXPECT_NE(a, net::DeriveSeed(1, net::RngDomain::kSessionTraffic, 1));
  EXPECT_NE(a, net::DeriveSeed(1, net::RngDomain::kLinkFaults, 0));
  EXPECT_NE(a, net::DeriveSeed(2, net::RngDomain::kSessionTraffic, 0));
}

// --- partitioning rules ------------------------------------------------------

FabricTopology ChainWithZeroDelayBridge() {
  // 0 --1ms-- 1 --0ms-- 2 --1ms-- 3 : metros 1 and 2 are "the same site".
  LinkConfig ms1;
  ms1.prop_delay = net::Millis(1);
  LinkConfig zero;
  zero.prop_delay = 0;
  return FabricTopology(4, {{0, 1, ms1}, {1, 2, zero}, {2, 3, ms1}});
}

TEST(FabricTopology, PartitionAutoCoAssignsZeroDelayNeighbors) {
  const FabricTopology topo = ChainWithZeroDelayBridge();
  const std::vector<int> owner = topo.Partition(2);
  EXPECT_EQ(owner[1], owner[2]) << "zero-delay neighbors must share a shard";
  EXPECT_NE(owner[0], owner[3]) << "partition should still split the chain";
  EXPECT_EQ(topo.Lookahead(owner, net::Seconds(1)), net::Millis(1));
}

TEST(FabricTopology, ExplicitZeroDelaySplitIsRejectedWithClearError) {
  const FabricTopology topo = ChainWithZeroDelayBridge();
  const std::vector<int> split = {0, 0, 1, 1};  // cuts the zero-delay edge
  try {
    topo.ValidatePartition(split);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("zero-propagation-delay"), std::string::npos);
  }
  EXPECT_THROW(topo.Lookahead(split, net::Seconds(1)), std::invalid_argument);
  const std::vector<int> fine = {0, 1, 1, 1};
  EXPECT_NO_THROW(topo.ValidatePartition(fine));
}

TEST(FabricTopology, BackboneRoutesAreSymmetricallyReachable) {
  const FabricTopology topo = FabricTopology::Backbone();
  for (std::size_t i = 0; i < topo.metro_count(); ++i) {
    for (std::size_t j = 0; j < topo.metro_count(); ++j) {
      EXPECT_GE(topo.next_hop(static_cast<int>(i), static_cast<int>(j)), 0);
      EXPECT_EQ(topo.path_delay(static_cast<int>(i), static_cast<int>(j)),
                topo.path_delay(static_cast<int>(j), static_cast<int>(i)));
    }
  }
}

// --- fault injection ----------------------------------------------------------

TEST(FleetGolden, FaultedScenario) {
  // Flap + Gilbert-Elliott burst + stepped rate ramp, all mid-run: the
  // fabric must drain around every fault transition and still match the
  // golden exactly, at 1 shard and across a 4-way partition.
  FleetConfig probe_cfg = SmallFleet();
  FleetSim probe(probe_cfg);
  const FleetResult clean_run = probe.Run();
  // The three busiest edges, so every impairment provably carries traffic.
  std::vector<std::pair<std::uint64_t, std::size_t>> by_traffic;
  for (std::size_t i = 0; i < probe.topology().edges().size(); ++i) {
    const std::uint64_t traffic =
        clean_run.merged.counter("fabric.e" + std::to_string(i) + ".f.packets_sent");
    by_traffic.emplace_back(traffic, i);
  }
  std::sort(by_traffic.rbegin(), by_traffic.rend());
  ASSERT_GE(by_traffic.size(), 3u);
  ASSERT_GT(by_traffic[2].first, 0u);
  const FabricEdge& flap_e = probe.topology().edges()[by_traffic[0].second];
  const FabricEdge& burst_e = probe.topology().edges()[by_traffic[1].second];
  const FabricEdge& ramp_e = probe.topology().edges()[by_traffic[2].second];

  net::BurstLossConfig burst;
  burst.p_enter = 0.02;
  burst.p_exit = 0.25;
  burst.loss_bad = 0.8;
  std::vector<FleetResult> results;
  for (int shards : {1, 4}) {
    FleetConfig cfg = SmallFleet();
    cfg.shards = shards;
    FleetSim fleet(cfg);
    fleet.ScheduleFlap(flap_e.a, flap_e.b, net::Millis(400), net::Millis(300));
    fleet.ScheduleBurstLoss(burst_e.a, burst_e.b, net::Millis(200), net::Millis(900), burst);
    fleet.ScheduleRateRamp(ramp_e.a, ramp_e.b, net::Millis(600), net::Millis(800), 2e9, 2e6, 4);
    results.push_back(fleet.Run());
  }
  EXPECT_EQ(results[1].merged.ToJson(), results[0].merged.ToJson());
  for (const FleetResult& r : results) ExpectGolden(r, {0xb9bc65bac12b9cecull, 24825, 5573});
  // Every impairment actually fired and actually bit.
  EXPECT_EQ(results[0].merged.counter("fabric.flap_transitions"), 2u);
  EXPECT_GT(results[0].merged.counter("fabric.fault_transitions"), 0u);
  const std::string burst_scope = "fabric.e" + std::to_string(by_traffic[1].second) + ".f";
  EXPECT_GT(results[0].merged.counter(burst_scope + ".dropped_loss"), 0u);
  EXPECT_NE(results[0].digest, clean_run.digest);
}

TEST(FleetFaults, BoundaryFlapFiresExactlyOnceAtAnyShardCount) {
  // Find an edge that crosses shards in the 4-way partition of this fleet's
  // load, so the flap's owner and its neighbors genuinely disagree.
  FleetConfig probe_cfg = SmallFleet();
  FleetSim probe(probe_cfg);
  const std::vector<double> weights = LoadWeights(probe);
  const std::vector<int> owner = probe.topology().Partition(4, &weights);
  const FleetResult clean_run = probe.Run();
  // Of the edges that cross shards, flap the one carrying the most traffic
  // so the fault provably bites.
  int flap_a = -1, flap_b = -1;
  std::size_t flap_edge = 0;
  std::uint64_t best_traffic = 0;
  for (std::size_t i = 0; i < probe.topology().edges().size(); ++i) {
    const FabricEdge& e = probe.topology().edges()[i];
    if (owner[static_cast<std::size_t>(e.a)] == owner[static_cast<std::size_t>(e.b)]) continue;
    const std::uint64_t traffic =
        clean_run.merged.counter("fabric.e" + std::to_string(i) + ".f.packets_sent");
    if (flap_a < 0 || traffic > best_traffic) {
      flap_a = e.a;
      flap_b = e.b;
      flap_edge = i;
      best_traffic = traffic;
    }
  }
  ASSERT_GE(flap_a, 0) << "no cross-shard edge in the 4-way partition";
  ASSERT_GT(best_traffic, 0u) << "chosen boundary link carries no traffic";

  std::vector<FleetResult> results;
  for (int shards : {1, 2, 4}) {
    FleetConfig cfg = SmallFleet();
    cfg.shards = shards;
    FleetSim fleet(cfg);
    fleet.ScheduleFlap(flap_a, flap_b, net::Millis(500), net::Millis(400));
    results.push_back(fleet.Run());
  }
  for (const FleetResult& r : results) {
    // Exactly one down + one up transition fleet-wide: only the owning
    // shard arms the flap, and every other shard's counter stays zero.
    EXPECT_EQ(r.merged.counter("fabric.flap_transitions"), 2u);
    EXPECT_EQ(r.digest, results[0].digest);
  }
  // The flap really bit: the faulted direction dropped traffic, and the
  // fleet-wide outcome differs from an unfaulted run.
  const std::string scope = "fabric.e" + std::to_string(flap_edge) + ".f";
  EXPECT_GT(results[0].merged.counter(scope + ".dropped_loss"), 0u);
  EXPECT_NE(clean_run.digest, results[0].digest);
}

}  // namespace
}  // namespace vtp
