// Tests for the measurement framework: statistics, tables, the Table 1 RTT
// harness, the §4.3 display-latency probe, and the SIMD backend selection.
#include <gtest/gtest.h>

#include <sstream>

#include "core/display_latency.h"
#include "core/rtt_matrix.h"
#include "core/simd.h"
#include "core/stats.h"
#include "core/table.h"

namespace vtp::core {
namespace {

// --- statistics ----------------------------------------------------------------

TEST(Stats, SummaryOfKnownSample) {
  const std::vector<double> values = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const Summary s = Summarize(values);
  EXPECT_EQ(s.n, 10u);
  EXPECT_DOUBLE_EQ(s.mean, 5.5);
  EXPECT_NEAR(s.stddev, 2.872, 0.001);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 10);
  EXPECT_DOUBLE_EQ(s.p50, 5.5);
  EXPECT_NEAR(s.p25, 3.25, 1e-9);
  EXPECT_NEAR(s.p95, 9.55, 1e-9);
}

TEST(Stats, EdgeCases) {
  EXPECT_EQ(Summarize({}).n, 0u);
  const Summary one = Summarize(std::vector<double>{42});
  EXPECT_DOUBLE_EQ(one.mean, 42);
  EXPECT_DOUBLE_EQ(one.p5, 42);
  EXPECT_DOUBLE_EQ(one.p95, 42);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> sorted = {0, 10};
  EXPECT_DOUBLE_EQ(PercentileSorted(sorted, 0), 0);
  EXPECT_DOUBLE_EQ(PercentileSorted(sorted, 50), 5);
  EXPECT_DOUBLE_EQ(PercentileSorted(sorted, 100), 10);
}

TEST(Stats, MeanPlusMinusFormat) {
  Summary s;
  s.mean = 107.4321;
  s.stddev = 14.111;
  EXPECT_EQ(MeanPlusMinus(s, 1), "107.4±14.1");
}

// --- table ---------------------------------------------------------------------

TEST(Table, AlignsColumnsAndSeparatesHeader) {
  TextTable t;
  t.SetHeader({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer-name", "2.5"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  // Header line is as wide as the widest row.
  std::istringstream is(out);
  std::string header, sep, row1;
  std::getline(is, header);
  std::getline(is, sep);
  std::getline(is, row1);
  EXPECT_GE(sep.size(), row1.size() - 2);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Fmt(3.0, 0), "3");
}

// --- RTT matrix (Table 1 harness) --------------------------------------------------

TEST(RttMatrix, NearServersAreFasterAndRegionsResolve) {
  RttProbeSpec spec;
  spec.clients = {{"W", "SanFrancisco"}, {"M", "Dallas"}, {"E", "NewYork"}};
  spec.servers = {{"west", "SanJose"}, {"east", "Ashburn"}};
  spec.pings_per_pair = 5;
  const RttMatrix result = MeasureRttMatrix(spec);

  ASSERT_EQ(result.rtt_ms.size(), 3u);
  ASSERT_EQ(result.rtt_ms[0].size(), 2u);

  const double w_to_west = result.rtt_ms[0][0].mean;
  const double w_to_east = result.rtt_ms[0][1].mean;
  const double e_to_west = result.rtt_ms[2][0].mean;
  const double e_to_east = result.rtt_ms[2][1].mean;

  // Table 1's structure: same-region single-digit-to-teens ms, cross-country
  // ~70-85 ms.
  EXPECT_LT(w_to_west, 15);
  EXPECT_LT(e_to_east, 15);
  EXPECT_GT(w_to_east, 55);
  EXPECT_GT(e_to_west, 55);
  EXPECT_LT(w_to_east, 95);

  // The middle client sits between the extremes.
  const double m_to_west = result.rtt_ms[1][0].mean;
  EXPECT_GT(m_to_west, w_to_west);
  EXPECT_LT(m_to_west, e_to_west);

  // Geolocation identifies the regions (§4.1 methodology).
  EXPECT_EQ(result.server_regions[0], net::Region::kWestUs);
  EXPECT_EQ(result.server_regions[1], net::Region::kEastUs);
  EXPECT_EQ(result.client_regions[1], net::Region::kMiddleUs);

  // Low dispersion, like the paper's <7 ms stddev.
  for (const auto& row : result.rtt_ms) {
    for (const Summary& s : row) EXPECT_LT(s.stddev, 7.0);
  }
}

// --- display latency (§4.3 probe) -----------------------------------------------------

class DisplayLatencySweep : public ::testing::TestWithParam<int> {};

TEST_P(DisplayLatencySweep, LocalReconstructionIsDelayInvariant) {
  DisplayLatencyConfig config;
  config.mode = DeliveryMode::kLocalReconstruction;
  config.injected_delay = net::Millis(GetParam());
  const DisplayLatencyResult r = MeasureDisplayLatency(config);
  // §4.3: the difference stays under 16 ms regardless of injected delay.
  EXPECT_LT(r.difference_ms, 16.0);
  EXPECT_LE(r.real_world_ms, 12.0);
}

INSTANTIATE_TEST_SUITE_P(Delays, DisplayLatencySweep, ::testing::Values(0, 100, 500, 1000));

TEST(DisplayLatency, RemotePrerenderingTracksInjectedDelay) {
  DisplayLatencyConfig config;
  config.mode = DeliveryMode::kRemotePrerendered;

  config.injected_delay = 0;
  const double base_diff = MeasureDisplayLatency(config).difference_ms;
  // Even uninjected, the RTT (~65-80 ms SF<->NYC) shows up.
  EXPECT_GT(base_diff, 40.0);

  config.injected_delay = net::Millis(500);
  const double delayed_diff = MeasureDisplayLatency(config).difference_ms;
  // Two one-way injections of 500 ms ~ +1,000 ms on the request/response.
  EXPECT_NEAR(delayed_diff - base_diff, 1000.0, 60.0);
}

// --- SIMD backend ---------------------------------------------------------------

TEST(Simd, BuildSelectsExpectedBackend) {
  // The VTP_SIMD_SCALAR=ON build must really run the portable backend (its
  // codec goldens would prove nothing otherwise); every other x86-64 or
  // aarch64 build must resolve to a vector ISA. The expectation comes from
  // the CMake option (tests/CMakeLists.txt), not from the define under test.
#if defined(VTP_EXPECT_SIMD_SCALAR)
  EXPECT_STREQ(simd::kIsaName, "scalar");
  EXPECT_FALSE(simd::kVectorIsa);
#elif defined(__x86_64__) || defined(_M_X64) || defined(__aarch64__) || defined(_M_ARM64)
  EXPECT_TRUE(simd::kVectorIsa) << simd::kIsaName;
#else
  GTEST_SKIP() << "no vector ISA expected on this target (" << simd::kIsaName << ")";
#endif
}

}  // namespace
}  // namespace vtp::core
