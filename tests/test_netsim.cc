// Tests for the network simulator: RNG, geography, links, netem, capture and
// UDP delivery. The scheduler's own tests are in test_simcore.cc.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "netsim/capture.h"
#include "netsim/event_queue.h"
#include "netsim/geo.h"
#include "netsim/geoip.h"
#include "netsim/netem.h"
#include "netsim/network.h"
#include "netsim/random.h"

namespace vtp::net {
namespace {

TEST(Rng, SeedDeterminism) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
  bool any_diff = false;
  Rng a2(123);
  for (int i = 0; i < 10; ++i) any_diff |= a2.NextU64() != c.NextU64();
  EXPECT_TRUE(any_diff);
}

// Differential checks against the standard library, the oracle the in-repo
// engine and distributions replicate bit for bit.

TEST(Rng, EngineMatchesStdMt19937_64) {
  const std::uint64_t seeds[] = {0, 1, 5489, ~std::uint64_t{0},
                                 DeriveSeed(42, RngDomain::kLinkFaults, 7)};
  for (const std::uint64_t seed : seeds) {
    Mt19937_64 engine(seed);
    std::mt19937_64 oracle(seed);
    for (int i = 0; i < 1'000'000; ++i) {
      const std::uint64_t got = engine(), want = oracle();
      if (got != want) {
        FAIL() << "seed " << seed << " diverges at draw " << i;
      }
    }
  }
}

struct FixedBits {  // a UniformRandomBitGenerator that returns one value
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type value;
  result_type operator()() const { return value; }
};

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(Rng, CanonicalMatchesGenerateCanonical) {
  std::vector<std::uint64_t> values = {0,
                                       1,
                                       (1ull << 53) - 1,
                                       (1ull << 53) + 1,
                                       (1ull << 63) - 1,
                                       1ull << 63,
                                       (1ull << 63) + 1,
                                       (1ull << 63) + (1ull << 10),  // a rounding tie
                                       (1ull << 63) + (3ull << 10),  // a tie that rounds up
                                       ~std::uint64_t{0} - (1ull << 10),
                                       ~std::uint64_t{0} - (1ull << 10) + 1,
                                       ~std::uint64_t{0}};  // rounds to 1: clamped
  std::mt19937_64 source(9);
  for (int i = 0; i < 100'000; ++i) values.push_back(source());
  for (const std::uint64_t v : values) {
    FixedBits bits{v};
    const double want = std::generate_canonical<double, 53>(bits);
    ASSERT_TRUE(SameBits(Rng::Canonical(v), want)) << v;
    ASSERT_LT(Rng::Canonical(v), 1.0) << v;
  }
}

TEST(Rng, DistributionsMatchStdBitForBit) {
  const std::uint64_t seeds[] = {0, 1, 5489, ~std::uint64_t{0},
                                 DeriveSeed(42, RngDomain::kArrivals, 3)};
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (const std::uint64_t seed : seeds) {
    Rng rng(seed);
    std::mt19937_64 oracle(seed);
    for (int i = 0; i < 200'000; ++i) {
      const double param = 0.25 + static_cast<double>(i % 13);
      double got = 0, want = 0;
      switch (i % 9) {
        case 0:
          got = rng.Uniform();
          want = std::uniform_real_distribution<double>(0.0, 1.0)(oracle);
          break;
        case 1:
          got = rng.Normal(-param, param);
          want = std::normal_distribution<double>(-param, param)(oracle);
          break;
        case 2:
          got = rng.Exponential(param);
          want = std::exponential_distribution<double>(param)(oracle);
          break;
        case 3:
          ASSERT_EQ(rng.UniformInt(-3, 1000 + i),
                    std::uniform_int_distribution<std::int64_t>(-3, 1000 + i)(oracle));
          break;
        case 4:
          ASSERT_EQ(rng.UniformInt(kMin, kMax),
                    std::uniform_int_distribution<std::int64_t>(kMin, kMax)(oracle));
          break;
        case 5:
          got = rng.Chance(param / 13.0);
          want = std::uniform_real_distribution<double>(0.0, 1.0)(oracle) < param / 13.0;
          break;
        case 6:
          ASSERT_EQ(rng.NextU64(), oracle());
          break;
        case 7:
          got = rng.Normal(0.0, 1.0);
          want = std::normal_distribution<double>(0.0, 1.0)(oracle);
          break;
        default:
          got = rng.Uniform(-param, 2 * param);
          want = std::uniform_real_distribution<double>(-param, 2 * param)(oracle);
          break;
      }
      ASSERT_TRUE(SameBits(got, want)) << "seed " << seed << " op " << i << ": " << got
                                       << " vs " << want;
    }
  }
}

// --- geography ----------------------------------------------------------------

TEST(Geo, HaversineKnownDistances) {
  const GeoPoint sf{37.77, -122.42}, nyc{40.71, -74.01};
  const double km = HaversineKm(sf, nyc);
  EXPECT_NEAR(km, 4130, 60);  // SF-NYC great circle ~4,130 km
  EXPECT_NEAR(HaversineKm(sf, sf), 0.0, 1e-9);
}

TEST(Geo, FiberDelayScalesWithDistance) {
  const auto& db = MetroDb();
  const GeoPoint sf = db[MetroIndex("SanFrancisco")].location;
  const GeoPoint sj = db[MetroIndex("SanJose")].location;
  const GeoPoint nyc = db[MetroIndex("NewYork")].location;
  EXPECT_LT(FiberDelay(sf, sj), Millis(1));
  // Coast-to-coast one-way: ~4,130 km * 1.4 / 200 km/ms ~ 29 ms.
  EXPECT_NEAR(ToMillis(FiberDelay(sf, nyc)), 29, 4);
}

TEST(Geo, MetroDbCoversRegionsAndBackboneIsConnected) {
  bool has_west = false, has_middle = false, has_east = false;
  for (const Metro& m : MetroDb()) {
    has_west |= m.region == Region::kWestUs;
    has_middle |= m.region == Region::kMiddleUs;
    has_east |= m.region == Region::kEastUs;
  }
  EXPECT_TRUE(has_west && has_middle && has_east);

  // Union-find connectivity over backbone edges.
  std::vector<std::size_t> parent(MetroDb().size());
  for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
    return parent[x] == x ? x : parent[x] = find(parent[x]);
  };
  for (const auto& [a, b] : BackboneEdges()) parent[find(a)] = find(b);
  for (std::size_t i = 1; i < parent.size(); ++i) EXPECT_EQ(find(i), find(0));
}

TEST(Geo, UnknownMetroThrows) { EXPECT_THROW(MetroIndex("Atlantis"), std::out_of_range); }

// --- links ---------------------------------------------------------------------

TEST(Link, TransmissionAndPropagationTiming) {
  Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;  // 1 byte/us
  cfg.prop_delay = Millis(5);
  DirectedLink link(&sim, cfg);

  Packet p;
  p.payload.assign(972, 0);  // 1000 wire bytes -> 1 ms serialization
  SimTime delivered_at = -1;
  link.Transmit(std::move(p), [&](Packet) { delivered_at = sim.now(); });
  sim.Run();
  EXPECT_EQ(delivered_at, Millis(6));  // 1 ms tx + 5 ms prop
}

TEST(Link, BackToBackPacketsQueueBehindEachOther) {
  Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  cfg.prop_delay = 0;
  DirectedLink link(&sim, cfg);

  std::vector<SimTime> deliveries;
  for (int i = 0; i < 3; ++i) {
    Packet p;
    p.payload.assign(972, 0);
    link.Transmit(std::move(p), [&](Packet) { deliveries.push_back(sim.now()); });
  }
  sim.Run();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0], Millis(1));
  EXPECT_EQ(deliveries[1], Millis(2));
  EXPECT_EQ(deliveries[2], Millis(3));
}

TEST(Link, QueueOverflowDrops) {
  Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 1e6;
  cfg.queue_limit_bytes = 3000;
  DirectedLink link(&sim, cfg);
  int delivered = 0;
  for (int i = 0; i < 10; ++i) {
    Packet p;
    p.payload.assign(1172, 0);
    link.Transmit(std::move(p), [&](Packet) { ++delivered; });
  }
  sim.Run();
  EXPECT_LT(delivered, 10);
  EXPECT_EQ(link.stats().packets_dropped_queue, 10u - static_cast<unsigned>(delivered));
}

TEST(Link, RandomLossDropsApproximatelyTheConfiguredFraction) {
  Simulator sim(99);
  LinkConfig cfg;
  cfg.rate_bps = 1e9;
  cfg.loss_rate = 0.3;
  cfg.queue_limit_bytes = 100 * 1024 * 1024;
  DirectedLink link(&sim, cfg);
  int delivered = 0;
  for (int i = 0; i < 2000; ++i) {
    Packet p;
    p.payload.assign(100, 0);
    link.Transmit(std::move(p), [&](Packet) { ++delivered; });
  }
  sim.Run();
  EXPECT_NEAR(delivered, 1400, 100);
}

// --- network / routing -----------------------------------------------------------

class NetworkFixture : public ::testing::Test {
 protected:
  NetworkFixture() : sim_(1), net_(&sim_) {
    net_.BuildBackbone();
    a_ = net_.AddHost("a", "SanFrancisco");
    b_ = net_.AddHost("b", "NewYork");
    net_.ComputeRoutes();
  }
  Simulator sim_;
  Network net_;
  NodeId a_ = 0, b_ = 0;
};

TEST_F(NetworkFixture, UdpDeliversCoastToCoastWithRealisticDelay) {
  SimTime arrival = -1;
  net_.BindUdp(b_, 5000, [&](const Packet& p) {
    arrival = sim_.now();
    EXPECT_EQ(p.src, a_);
    EXPECT_EQ(p.payload.size(), 100u);
  });
  net_.SendUdp(a_, 5000, b_, 5000, std::vector<std::uint8_t>(100, 1));
  sim_.Run();
  ASSERT_GT(arrival, 0);
  // One-way: ~29 ms fiber + access links + hops; Table 1 implies ~35-40 ms.
  EXPECT_GT(ToMillis(arrival), 25);
  EXPECT_LT(ToMillis(arrival), 50);
}

TEST_F(NetworkFixture, PathDelayIsSymmetricAndTriangular) {
  const NodeId c = net_.AddHost("c", "Chicago");
  net_.ComputeRoutes();
  EXPECT_EQ(net_.PathDelay(a_, b_), net_.PathDelay(b_, a_));
  EXPECT_LE(net_.PathDelay(a_, b_), net_.PathDelay(a_, c) + net_.PathDelay(c, b_));
}

TEST_F(NetworkFixture, UnboundPortDropsSilently) {
  net_.SendUdp(a_, 1, b_, 1, std::vector<std::uint8_t>(10, 0));
  sim_.Run();  // no crash, nothing delivered
  SUCCEED();
}

TEST_F(NetworkFixture, NetemDelayAddsExactExtraDelay) {
  SimTime baseline = -1, shaped = -1;
  net_.BindUdp(b_, 7, [&](const Packet&) {
    (baseline < 0 ? baseline : shaped) = sim_.now();
  });
  net_.SendUdp(a_, 7, b_, 7, std::vector<std::uint8_t>(100, 0));
  sim_.Run();

  Netem netem(&net_, net_.AccessRouter(b_), b_);
  netem.SetDelay(Millis(200));
  const SimTime send_time = sim_.now();
  net_.SendUdp(a_, 7, b_, 7, std::vector<std::uint8_t>(100, 0));
  sim_.Run();
  EXPECT_NEAR(ToMillis(shaped - send_time), ToMillis(baseline) + 200, 1.0);
}

TEST_F(NetworkFixture, NetemRateCapThrottlesThroughput) {
  Netem netem(&net_, a_, net_.AccessRouter(a_));
  netem.SetRateBps(1e6);

  std::uint64_t received_bytes = 0;
  SimTime last_arrival = 0;
  net_.BindUdp(b_, 9, [&](const Packet& p) {
    received_bytes += p.payload.size() + kIpUdpOverheadBytes;
    last_arrival = sim_.now();
  });
  // Offer 5 Mbps for 2 seconds; the cap lets only ~1 Mbps through (the
  // excess is buffered up to the queue limit, then dropped).
  for (int i = 0; i < 1000; ++i) {
    sim_.At(Millis(2 * i), [this] {
      net_.SendUdp(a_, 9, b_, 9, std::vector<std::uint8_t>(1222, 0));
    });
  }
  sim_.RunUntil(Seconds(20));
  const double mbps = static_cast<double>(received_bytes) * 8 / ToSeconds(last_arrival) / 1e6;
  EXPECT_LT(mbps, 1.1);
  EXPECT_GT(mbps, 0.8);
}

// --- capture -----------------------------------------------------------------

TEST_F(NetworkFixture, CaptureRecordsBothDirectionsWithPrefix) {
  Capture cap;
  cap.AttachToLink(net_, a_, net_.AccessRouter(a_));
  net_.BindUdp(b_, 5, [&](const Packet&) {});
  net_.BindUdp(a_, 5, [&](const Packet&) {});
  net_.SendUdp(a_, 5, b_, 5, std::vector<std::uint8_t>{0xAA, 0xBB});
  net_.SendUdp(b_, 5, a_, 5, std::vector<std::uint8_t>{0xCC});
  sim_.Run();
  ASSERT_EQ(cap.records().size(), 2u);
  EXPECT_EQ(cap.records()[0].prefix[0], 0xAA);
  EXPECT_EQ(cap.records()[0].wire_bytes, 2u + kIpUdpOverheadBytes);
  EXPECT_EQ(cap.records()[1].prefix[0], 0xCC);
}

TEST_F(NetworkFixture, CaptureThroughputAccounting) {
  Capture cap;
  cap.AttachToLink(net_, a_, net_.AccessRouter(a_));
  net_.BindUdp(b_, 5, [&](const Packet&) {});
  // 100 packets of 1,000 wire bytes over 1 second = 0.8 Mbps.
  for (int i = 0; i < 100; ++i) {
    sim_.At(Millis(10 * i), [this] {
      net_.SendUdp(a_, 5, b_, 5, std::vector<std::uint8_t>(1000 - kIpUdpOverheadBytes, 0));
    });
  }
  sim_.RunUntil(Seconds(2));
  const double bps = cap.MeanThroughputBps(Capture::FromNode(a_), 0, Seconds(1));
  EXPECT_NEAR(bps, 0.8e6, 0.02e6);

  const auto flows = cap.Flows();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows.begin()->second.packets, 100u);
}

// --- geoip ---------------------------------------------------------------------

TEST_F(NetworkFixture, GeoIpResolvesNodesToRegions) {
  const GeoIpDb db(net_);
  const auto a_entry = db.LookupNode(a_);
  ASSERT_TRUE(a_entry.has_value());
  EXPECT_EQ(a_entry->region, Region::kWestUs);
  const auto b_entry = db.Lookup(net_.node(b_).ipv4);
  ASSERT_TRUE(b_entry.has_value());
  EXPECT_EQ(b_entry->region, Region::kEastUs);
  EXPECT_FALSE(db.Lookup(0xDEADBEEF).has_value());
}

TEST(Ipv4, Formats) { EXPECT_EQ(Ipv4ToString(0x01020304), "1.2.3.4"); }

}  // namespace
}  // namespace vtp::net
