// Tests for the vtp::obs observability layer: histogram semantics, registry
// handle contracts, frame-lifecycle span completeness for a real 2-persona
// session, snapshot determinism under the parallel bench runner, and the
// typed core::Config knob catalogue.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/knobs.h"
#include "core/stats.h"
#include "core/thread_pool.h"
#include "netsim/event_queue.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "vca/session.h"

namespace vtp {
namespace {

// --- histogram ---------------------------------------------------------------

TEST(Histogram, BucketBoundariesAreInclusiveUpperEdges) {
  obs::Histogram h({1.0, 10.0, 100.0});
  // Bucket i counts v <= bounds[i]; the implicit last bucket is overflow.
  h.Observe(0.5);    // bucket 0
  h.Observe(1.0);    // bucket 0 (boundary is inclusive)
  h.Observe(1.5);    // bucket 1
  h.Observe(10.0);   // bucket 1
  h.Observe(100.0);  // bucket 2
  h.Observe(100.5);  // overflow
  EXPECT_EQ(h.buckets(), (std::vector<std::uint64_t>{2, 2, 1, 1}));
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 10.0 + 100.0 + 100.5);
}

TEST(Histogram, BoundsAreSortedAndDeduplicated) {
  obs::Histogram h({10.0, 1.0, 10.0, 5.0});
  EXPECT_EQ(h.bounds(), (std::vector<double>{1.0, 5.0, 10.0}));
  EXPECT_EQ(h.buckets().size(), 4u);  // 3 bounds + overflow
}

TEST(Histogram, QuantileInterpolatesAndIsExactAtBoundaries) {
  obs::Histogram h({10.0, 20.0});
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);  // empty -> 0
  for (int i = 0; i < 10; ++i) h.Observe(5.0);   // 10 obs in (0, 10]
  for (int i = 0; i < 10; ++i) h.Observe(15.0);  // 10 obs in (10, 20]
  // The full first bucket ends exactly at its upper bound.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 20.0);
  // Halfway into the first bucket interpolates linearly from 0 to 10.
  EXPECT_DOUBLE_EQ(h.Quantile(0.25), 5.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.75), 15.0);
}

TEST(Histogram, QuantileOverflowBucketReportsLowerBound) {
  obs::Histogram h({10.0});
  h.Observe(1000.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 10.0);
}

TEST(Histogram, MergeRequiresIdenticalBounds) {
  obs::Histogram a({1.0, 2.0});
  obs::Histogram b({1.0, 2.0});
  obs::Histogram c({1.0, 3.0});
  a.Observe(0.5);
  b.Observe(1.5);
  b.Observe(9.0);
  ASSERT_TRUE(a.Merge(b));
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 11.0);
  EXPECT_EQ(a.buckets(), (std::vector<std::uint64_t>{1, 1, 1}));
  // Mismatched bounds: refused, and the target is untouched.
  ASSERT_FALSE(a.Merge(c));
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.buckets(), (std::vector<std::uint64_t>{1, 1, 1}));
}

// --- registry ----------------------------------------------------------------

TEST(MetricRegistry, HandlesAreIdempotentAndPointerStable) {
  obs::MetricRegistry reg;
  obs::Counter* c1 = reg.NewCounter("a.count");
  obs::Counter* c2 = reg.NewCounter("a.count");
  EXPECT_EQ(c1, c2);
  c1->Inc(3);
  EXPECT_EQ(reg.CounterValue("a.count"), 3u);

  obs::Gauge* g = reg.NewGauge("a.gauge");
  g->Set(2.0);
  g->Max(1.0);  // smaller value: high-water mark keeps 2.0
  EXPECT_DOUBLE_EQ(reg.GaugeValue("a.gauge"), 2.0);

  // Re-registering a histogram keeps the original bounds.
  obs::Histogram* h1 = reg.NewHistogram("a.hist", {1.0, 2.0});
  obs::Histogram* h2 = reg.NewHistogram("a.hist", {5.0});
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1->bounds(), (std::vector<double>{1.0, 2.0}));

  // Absent names read as zero, matching the back-compat accessor contract.
  EXPECT_EQ(reg.CounterValue("nope"), 0u);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("nope"), 0.0);
}

TEST(MetricRegistry, UniqueScopeMintsPerPrefixSequences) {
  obs::MetricRegistry reg;
  EXPECT_EQ(reg.UniqueScope("quic.conn"), "quic.conn0");
  EXPECT_EQ(reg.UniqueScope("quic.conn"), "quic.conn1");
  EXPECT_EQ(reg.UniqueScope("sfu"), "sfu0");
  EXPECT_EQ(reg.UniqueScope("quic.conn"), "quic.conn2");
}

TEST(MetricRegistry, ProbesEvaluateAtSnapshotTime) {
  obs::MetricRegistry reg;
  double live = 1.0;
  reg.NewProbe("probe.live", [&live] { return live; });
  live = 42.0;
  const obs::Snapshot snap = obs::Snapshot::Capture(reg);
  EXPECT_DOUBLE_EQ(snap.gauge("probe.live"), 42.0);
}

// --- frame-lifecycle tracing -------------------------------------------------

TEST(FrameTracer, CompletesSpansAndCountsOverflow) {
  obs::FrameTracer tracer;
  EXPECT_FALSE(tracer.enabled());
  tracer.StampSource(0, 0, obs::Stage::kCapture, 10);  // disabled: no-op
  tracer.Enable(/*max_spans=*/2, /*ring_slots=*/8);
  ASSERT_TRUE(tracer.enabled());

  tracer.StampSource(0, 7, obs::Stage::kCapture, 100);
  tracer.StampSource(0, 7, obs::Stage::kSend, 150);
  tracer.Complete(0, 1, 7, /*deliver=*/200, /*decode=*/210, /*playout=*/250);
  ASSERT_EQ(tracer.spans().size(), 1u);
  const obs::FrameSpan& span = tracer.spans()[0];
  EXPECT_TRUE(span.has(obs::Stage::kCapture));
  EXPECT_TRUE(span.has(obs::Stage::kSend));
  EXPECT_FALSE(span.has(obs::Stage::kEncode));
  EXPECT_TRUE(span.has(obs::Stage::kPlayout));
  EXPECT_EQ(span.at(obs::Stage::kDeliver), 200);
  // E2E folds capture -> playout: 150 us = 0.00015 s -> 0.15 ms... SimTime is
  // ns here, so 150 ns -> 0.00015 ms; just check it was observed.
  EXPECT_EQ(tracer.e2e_ms().count(), 1u);

  // playout < 0 = decoded but not reconstructed: no playout bit.
  tracer.Complete(0, 1, 8, 300, 310, net::SimTime{-1});
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_FALSE(tracer.spans()[1].has(obs::Stage::kPlayout));
  EXPECT_EQ(tracer.orphan_completions(), 1u);  // seq 8 had no source stamps

  // Past the reservation: counted, not grown.
  tracer.Complete(0, 1, 9, 400, 410, 450);
  EXPECT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.dropped_spans(), 1u);
}

vca::SessionConfig TwoPersonaConfig() {
  vca::SessionConfig config;
  config.participants = {
      {.name = "U1", .metro = "SanFrancisco", .device = vca::DeviceType::kVisionPro},
      {.name = "U2", .metro = "NewYork", .device = vca::DeviceType::kVisionPro}};
  config.duration = net::Seconds(2);
  config.seed = 11;
  config.enable_render = false;
  return config;
}

TEST(FrameTracer, TwoPersonaSessionSpansAreComplete) {
  vca::TelepresenceSession session(TwoPersonaConfig());
  session.Run();
  const obs::FrameTracer& tracer = session.sim().tracer();
  ASSERT_TRUE(tracer.enabled());  // SessionConfig::trace_frames defaults on
  EXPECT_EQ(tracer.dropped_spans(), 0u);
  EXPECT_EQ(tracer.orphan_completions(), 0u);
  ASSERT_GT(tracer.spans().size(), 0u);

  std::size_t with_playout = 0;
  for (const obs::FrameSpan& span : tracer.spans()) {
    // Every delivered frame carries the full sender-side + SFU + receiver-side
    // lifecycle; playout is only present on reconstruction-stride frames.
    EXPECT_TRUE(span.has(obs::Stage::kCapture));
    EXPECT_TRUE(span.has(obs::Stage::kEncode));
    EXPECT_TRUE(span.has(obs::Stage::kSend));
    EXPECT_TRUE(span.has(obs::Stage::kSfuRelay));
    EXPECT_TRUE(span.has(obs::Stage::kDeliver));
    EXPECT_TRUE(span.has(obs::Stage::kDecode));
    EXPECT_LE(span.at(obs::Stage::kCapture), span.at(obs::Stage::kSend));
    EXPECT_LE(span.at(obs::Stage::kSend), span.at(obs::Stage::kSfuRelay));
    EXPECT_LE(span.at(obs::Stage::kSfuRelay), span.at(obs::Stage::kDeliver));
    EXPECT_LT(span.persona, 2);
    EXPECT_LT(span.receiver, 2);
    EXPECT_NE(span.persona, span.receiver);
    if (span.has(obs::Stage::kPlayout)) ++with_playout;
  }
  // The default reconstruct stride reconstructs a strict subset of frames.
  EXPECT_GT(with_playout, 0u);
  EXPECT_LT(with_playout, tracer.spans().size());
  // Every completion folded into the e2e histogram.
  EXPECT_EQ(tracer.e2e_ms().count(), tracer.spans().size());

  // The snapshot's per-stage table covers every span for the e2e series.
  const obs::Snapshot snap = obs::Snapshot::Capture(session.sim().metrics(), &tracer);
  ASSERT_TRUE(snap.traced);
  EXPECT_EQ(snap.spans, tracer.spans().size());
  const obs::Snapshot::StageRow* e2e = snap.stage("e2e");
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->summary.n, tracer.spans().size());
  EXPECT_GT(e2e->summary.p50, 0.0);

  // Every frame a receiver decoded closed one span or was counted as dropped.
  const std::uint64_t frames_decoded = session.spatial_receiver(0)->total_frames_decoded() +
                                       session.spatial_receiver(1)->total_frames_decoded();
  EXPECT_EQ(snap.spans + snap.dropped_spans, frames_decoded);
  // Each stage row is the plain core::Summarize of the tracer's raw series.
  for (const obs::FrameTracer::StageSeries& series : tracer.Breakdown()) {
    const core::Summary expected = core::Summarize(series.ms);
    const obs::Snapshot::StageRow* row = snap.stage(series.label);
    ASSERT_NE(row, nullptr) << series.label;
    EXPECT_EQ(row->summary.n, expected.n) << series.label;
    EXPECT_EQ(row->summary.mean, expected.mean) << series.label;
    EXPECT_EQ(row->summary.p50, expected.p50) << series.label;
    EXPECT_EQ(row->summary.p95, expected.p95) << series.label;
  }
}

TEST(ObsConfig, TraceFramesOffDisarmsTracerOnly) {
  vca::SessionConfig config = TwoPersonaConfig();
  config.trace_frames = false;
  vca::TelepresenceSession session(std::move(config));
  session.Run();
  EXPECT_FALSE(session.sim().tracer().enabled());
  // Metrics are structural and stay on regardless of tracing.
  const obs::Snapshot snap = obs::Snapshot::Capture(session.sim().metrics());
  EXPECT_FALSE(snap.traced);
  EXPECT_GT(snap.counter("sfu0.forwarded"), 0u);

  // Arming the tracer changes nothing but the tracer: the same session armed
  // runs the same events and leaves byte-identical metrics.
  vca::TelepresenceSession armed(TwoPersonaConfig());
  armed.Run();
  ASSERT_TRUE(armed.sim().tracer().enabled());
  EXPECT_EQ(armed.sim().events_executed(), session.sim().events_executed());
  EXPECT_EQ(obs::Snapshot::Capture(armed.sim().metrics()).ToJson(), snap.ToJson());
}

// --- snapshot determinism ----------------------------------------------------

std::string RunSessionSnapshotJson() {
  vca::TelepresenceSession session(TwoPersonaConfig());
  session.Run();
  return obs::Snapshot::Capture(session.sim().metrics(), &session.sim().tracer()).ToJson();
}

TEST(Snapshot, DeterministicAcrossBenchThreadCounts) {
  // One registry + tracer per Simulator: concurrent sessions (the parallel
  // bench runner's layout under VTP_BENCH_THREADS) must produce snapshots
  // byte-identical to a serial run.
  const std::string serial = RunSessionSnapshotJson();
  ASSERT_FALSE(serial.empty());

  std::vector<std::string> parallel(3);
  core::ThreadPool pool(3);
  for (std::string& out : parallel) {
    pool.Submit([&out] { out = RunSessionSnapshotJson(); });
  }
  pool.Wait();
  for (const std::string& json : parallel) EXPECT_EQ(json, serial);
}

// --- core::Config knob catalogue ---------------------------------------------

TEST(Config, CatalogueListsEveryKnob) {
  core::Config& config = core::Config::Instance();
  // Only the bench harness reads the environment; sessions and tools take
  // their behaviour from SessionConfig and flags.
  const char* const knobs[] = {"VTP_FULL", "VTP_BENCH_THREADS", "VTP_BENCH_JSON",
                               "VTP_BENCH_REQUIRE_CLEAN"};
  for (const char* name : knobs) EXPECT_NE(config.Find(name), nullptr) << name;
  EXPECT_EQ(config.List().size(), std::size(knobs));
  const core::Config::KnobInfo* clean = config.Find("VTP_BENCH_REQUIRE_CLEAN");
  ASSERT_NE(clean, nullptr);
  EXPECT_STREQ(clean->type, "bool");
  EXPECT_EQ(clean->def, "0");
  // List() is sorted by name and includes current-value formatters.
  const std::vector<const core::Config::KnobInfo*> all = config.List();
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(std::string(all[i - 1]->name), std::string(all[i]->name));
  }
}

TEST(Config, BoolKnobParsesAndFallsBack) {
  const core::BoolKnob& knob = core::knobs::kBenchRequireClean;

  unsetenv("VTP_BENCH_REQUIRE_CLEAN");
  EXPECT_FALSE(knob.Get());
  EXPECT_FALSE(core::Config::Instance().Find("VTP_BENCH_REQUIRE_CLEAN")->overridden());
  setenv("VTP_BENCH_REQUIRE_CLEAN", "on", 1);
  EXPECT_TRUE(knob.Get());
  EXPECT_TRUE(core::Config::Instance().Find("VTP_BENCH_REQUIRE_CLEAN")->overridden());
  setenv("VTP_BENCH_REQUIRE_CLEAN", "gibberish", 1);
  EXPECT_FALSE(knob.Get());  // unparsable -> default
  setenv("VTP_BENCH_REQUIRE_CLEAN", "true", 1);
  EXPECT_TRUE(knob.Get());
  setenv("VTP_BENCH_REQUIRE_CLEAN", "off", 1);
  EXPECT_FALSE(knob.Get());
  unsetenv("VTP_BENCH_REQUIRE_CLEAN");
}

// --- snapshot merge ----------------------------------------------------------

TEST(SnapshotMerge, CountersSumByName) {
  obs::MetricRegistry a, b;
  a.NewCounter("x")->Inc(3);
  a.NewCounter("only_a")->Inc(1);
  b.NewCounter("x")->Inc(4);
  b.NewCounter("only_b")->Inc(9);
  obs::Snapshot merged = obs::Snapshot::Capture(a);
  merged.Merge(obs::Snapshot::Capture(b));
  EXPECT_EQ(merged.counter("x"), 7u);
  EXPECT_EQ(merged.counter("only_a"), 1u);
  EXPECT_EQ(merged.counter("only_b"), 9u);
  // Sorted-name order is preserved so ToJson stays canonical.
  for (std::size_t i = 1; i < merged.counters.size(); ++i) {
    EXPECT_LT(merged.counters[i - 1].first, merged.counters[i].first);
  }
}

TEST(SnapshotMerge, PeakGaugesMaxCombineOthersSum) {
  obs::MetricRegistry a, b;
  a.NewGauge("queue_peak_bytes")->Set(100);
  b.NewGauge("queue_peak_bytes")->Set(40);
  a.NewGauge("occupancy")->Set(2);
  b.NewGauge("occupancy")->Set(5);
  obs::Snapshot merged = obs::Snapshot::Capture(a);
  merged.Merge(obs::Snapshot::Capture(b));
  EXPECT_DOUBLE_EQ(merged.gauge("queue_peak_bytes"), 100);  // high-water: max
  EXPECT_DOUBLE_EQ(merged.gauge("occupancy"), 7);           // plain gauge: sum
}

TEST(SnapshotMerge, HistogramsBucketAddWhenBoundsMatch) {
  obs::MetricRegistry a, b;
  obs::Histogram* ha = a.NewHistogram("lat", {1.0, 10.0});
  obs::Histogram* hb = b.NewHistogram("lat", {1.0, 10.0});
  ha->Observe(0.5);
  ha->Observe(5);
  hb->Observe(5);
  hb->Observe(50);
  obs::Snapshot merged = obs::Snapshot::Capture(a);
  merged.Merge(obs::Snapshot::Capture(b));
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].buckets, (std::vector<std::uint64_t>{1, 2, 1}));
  EXPECT_EQ(merged.histograms[0].count, 4u);
  EXPECT_DOUBLE_EQ(merged.histograms[0].sum, 60.5);
}

TEST(SnapshotMerge, NewHistogramNamesAppend) {
  obs::MetricRegistry a, b;
  a.NewHistogram("lat", {1.0, 10.0})->Observe(5);
  b.NewHistogram("extra", {1.0})->Observe(0.5);
  obs::Snapshot merged = obs::Snapshot::Capture(a);
  merged.Merge(obs::Snapshot::Capture(b));
  ASSERT_EQ(merged.histograms.size(), 2u);
  EXPECT_EQ(merged.histograms[0].name, "lat");
  EXPECT_EQ(merged.histograms[0].count, 1u);
  EXPECT_EQ(merged.histograms[1].name, "extra");
  EXPECT_EQ(merged.histograms[1].count, 1u);
}

TEST(SnapshotMerge, HistogramBoundsMismatchThrowsAndLeavesTargetUntouched) {
  // Two shards registering the same histogram with different bounds is a
  // registration bug; silently keeping one side would skew every merged
  // quantile, so Merge must reject loudly — and atomically.
  obs::MetricRegistry a, b;
  a.NewCounter("n")->Inc(3);
  b.NewCounter("n")->Inc(4);
  a.NewHistogram("lat", {1.0, 10.0})->Observe(5);
  b.NewHistogram("lat", {2.0, 20.0})->Observe(5);
  obs::Snapshot merged = obs::Snapshot::Capture(a);
  const std::string before = merged.ToJson();
  EXPECT_THROW(merged.Merge(obs::Snapshot::Capture(b)), std::invalid_argument);
  EXPECT_EQ(merged.ToJson(), before);  // strong guarantee: nothing committed
  EXPECT_EQ(merged.counter("n"), 3u);
}

TEST(SnapshotMerge, CounterVsGaugeNameCollisionThrows) {
  // A name that is a counter on one side and a gauge on the other would
  // surface twice in the merged JSON, with each consumer seeing half the
  // data. Reject it whichever side contributes which kind.
  obs::MetricRegistry a, b;
  a.NewCounter("load")->Inc(1);
  b.NewGauge("load")->Set(2.5);
  obs::Snapshot merged = obs::Snapshot::Capture(a);
  const std::string before = merged.ToJson();
  EXPECT_THROW(merged.Merge(obs::Snapshot::Capture(b)), std::invalid_argument);
  EXPECT_EQ(merged.ToJson(), before);

  obs::Snapshot flipped = obs::Snapshot::Capture(b);
  EXPECT_THROW(flipped.Merge(obs::Snapshot::Capture(a)), std::invalid_argument);
  // A collision already present within one side is caught on the next merge.
  obs::MetricRegistry both, clean;
  both.NewCounter("x")->Inc(1);
  both.NewGauge("x")->Set(1);
  obs::Snapshot tainted = obs::Snapshot::Capture(both);
  EXPECT_THROW(tainted.Merge(obs::Snapshot::Capture(clean)), std::invalid_argument);
}

TEST(SnapshotMerge, IsAssociativeAcrossThreeShards) {
  auto make = [](std::uint64_t c, double peak) {
    obs::MetricRegistry reg;
    reg.NewCounter("n")->Inc(c);
    reg.NewGauge("p.peak")->Set(peak);
    return obs::Snapshot::Capture(reg);
  };
  obs::Snapshot left = make(1, 5);
  left.Merge(make(2, 9));
  left.Merge(make(4, 7));
  obs::Snapshot right23 = make(2, 9);
  right23.Merge(make(4, 7));
  obs::Snapshot right = make(1, 5);
  right.Merge(right23);
  EXPECT_EQ(left.ToJson(), right.ToJson());
  EXPECT_EQ(left.counter("n"), 7u);
  EXPECT_DOUBLE_EQ(left.gauge("p.peak"), 9);
}

}  // namespace
}  // namespace vtp
