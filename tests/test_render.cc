// Tests for the render pipeline: visibility, LOD policy/ladder, the
// calibrated cost model, scenarios, and the frame loop.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "render/camera.h"
#include "render/cost_model.h"
#include "render/frame_loop.h"
#include "render/lod.h"
#include "render/scenario.h"
#include "render/viewport_predict.h"
#include "render/visibility.h"

namespace vtp::render {
namespace {

Camera LookingForward() {
  Camera cam;
  cam.position = {0, 0, 0};
  cam.forward = {0, 0, 1};
  cam.gaze = {0, 0, 1};
  return cam;
}

// --- camera / visibility -------------------------------------------------------

TEST(Camera, AnglesAndDistances) {
  const Camera cam = LookingForward();
  EXPECT_NEAR(cam.AngleFromForwardDeg({0, 0, 2}), 0.0, 1e-6);
  EXPECT_NEAR(cam.AngleFromForwardDeg({2, 0, 0}), 90.0, 1e-4);
  EXPECT_NEAR(cam.EccentricityDeg({1, 0, 1}), 45.0, 1e-4);
  EXPECT_NEAR(cam.DistanceTo({0, 3, 4}), 5.0, 1e-5);
}

TEST(Visibility, FrustumMembership) {
  const Camera cam = LookingForward();  // 100 deg horizontal FOV
  const Visibility in = EvaluateVisibility(cam, {{0, 0, 1.5f}, 0.35f}, {});
  EXPECT_TRUE(in.in_viewport);
  const Visibility behind = EvaluateVisibility(cam, {{0, 0, -2.0f}, 0.35f}, {});
  EXPECT_FALSE(behind.in_viewport);
  const Visibility side = EvaluateVisibility(cam, {{3.0f, 0, 0.2f}, 0.35f}, {});
  EXPECT_FALSE(side.in_viewport);
}

TEST(Visibility, EccentricityTracksGazeNotHead) {
  Camera cam = LookingForward();
  cam.gaze = Vec3{1, 0, 1}.Normalized();  // looking 45 degrees right
  const Visibility v = EvaluateVisibility(cam, {{0, 0, 2.0f}, 0.35f}, {});
  EXPECT_TRUE(v.in_viewport);  // head still faces it
  EXPECT_NEAR(v.eccentricity_deg, 45.0, 0.5);
}

TEST(Visibility, OcclusionBySphereOnSightLine) {
  const Camera cam = LookingForward();
  const Placement target{{0, 0, 4.0f}, 0.35f};
  const Placement blocker{{0, 0, 2.0f}, 0.35f};
  const std::vector<Placement> blockers = {blocker};
  EXPECT_TRUE(EvaluateVisibility(cam, target, blockers).occluded);
  const Placement off_axis{{1.5f, 0, 2.0f}, 0.35f};
  const std::vector<Placement> off = {off_axis};
  EXPECT_FALSE(EvaluateVisibility(cam, target, off).occluded);
  // The near object is not occluded by the far one.
  const std::vector<Placement> fars = {target};
  EXPECT_FALSE(EvaluateVisibility(cam, blocker, fars).occluded);
}

TEST(Visibility, CoverageFallsWithSquaredDistance) {
  const Camera cam = LookingForward();
  const double at1 = NormalizedScreenCoverage(cam, {{0, 0, 1.0f}, 0.35f});
  const double at3 = NormalizedScreenCoverage(cam, {{0, 0, 3.0f}, 0.35f});
  EXPECT_NEAR(at1, 1.0, 1e-6);
  EXPECT_NEAR(at3, 1.0 / 9.0, 0.01);
}

// --- LOD policy ---------------------------------------------------------------------

TEST(LodPolicy, SelectsPerPaperRules) {
  const LodPolicy policy;  // FaceTime defaults: occlusion off
  Visibility v;
  v.in_viewport = true;
  v.eccentricity_deg = 3;
  v.distance_m = 1.0;
  EXPECT_EQ(SelectLod(v, policy), LodClass::kFull);

  v.distance_m = 4.0;  // beyond 3 m (§4.4 distance-aware)
  EXPECT_EQ(SelectLod(v, policy), LodClass::kDistance);

  v.distance_m = 1.0;
  v.eccentricity_deg = 40;  // peripheral (§4.4 foveated)
  EXPECT_EQ(SelectLod(v, policy), LodClass::kPeripheral);

  v.in_viewport = false;  // out of viewport (§4.4 viewport adaptation)
  EXPECT_EQ(SelectLod(v, policy), LodClass::kProxy);

  v.in_viewport = true;
  v.eccentricity_deg = 3;
  v.occluded = true;  // FaceTime does NOT cull occluded personas (§4.4)
  EXPECT_EQ(SelectLod(v, policy), LodClass::kFull);

  LodPolicy with_occlusion = policy;
  with_occlusion.occlusion_aware = true;
  EXPECT_EQ(SelectLod(v, with_occlusion), LodClass::kCulledOccluded);
}

TEST(LodPolicy, DisabledOptimizationsFallThrough) {
  LodPolicy none;
  none.viewport_adaptation = false;
  none.foveated_rendering = false;
  none.distance_aware = false;
  Visibility v;
  v.in_viewport = false;
  v.eccentricity_deg = 80;
  v.distance_m = 9;
  EXPECT_EQ(SelectLod(v, none), LodClass::kFull);
}

TEST(LodLadder, TriangleCountsMatchPaperRatios) {
  const LodPolicy policy;
  const PersonaLodLadder ladder(1, policy);
  const auto full = ladder.TriangleCount(LodClass::kFull);
  EXPECT_NEAR(static_cast<double>(full), 78030.0, 120.0);
  // Proxy: 3 components x 12 box triangles = 36 — the paper's exact number.
  EXPECT_EQ(ladder.TriangleCount(LodClass::kProxy), 36u);
  EXPECT_EQ(ladder.TriangleCount(LodClass::kCulledOccluded), 0u);
  // Distance ~58%, peripheral ~27% of full (§4.4), within clustering slack.
  const double distance_ratio =
      static_cast<double>(ladder.TriangleCount(LodClass::kDistance)) / static_cast<double>(full);
  const double peripheral_ratio =
      static_cast<double>(ladder.TriangleCount(LodClass::kPeripheral)) /
      static_cast<double>(full);
  EXPECT_NEAR(distance_ratio, 0.577, 0.2);
  EXPECT_NEAR(peripheral_ratio, 0.27, 0.12);
  EXPECT_LT(peripheral_ratio, distance_ratio);
}

// Pins the exact triangle count of every LOD class for five personas under
// the default (FaceTime) policy, as built by the real simplifier.
TEST(LodLadder, GoldenTriangleCounts) {
  const LodPolicy policy;
  std::vector<std::array<std::size_t, 5>> counts;
  for (std::uint64_t seed = 1000; seed <= 1004; ++seed) {
    const PersonaLodLadder ladder(seed, policy);
    std::array<std::size_t, 5> row{};
    for (std::size_t c = 0; c < row.size(); ++c) {
      row[c] = ladder.TriangleCount(static_cast<LodClass>(c));
    }
    counts.push_back(row);
  }
  // Columns: kFull, kDistance, kPeripheral, kProxy, kCulledOccluded.
  const std::vector<std::array<std::size_t, 5>> expected = {
      {78028, 45076, 21140, 36, 0},
      {78028, 44920, 21160, 36, 0},
      {78028, 44888, 21194, 36, 0},
      {78028, 44982, 20970, 36, 0},
      {78028, 45086, 20888, 36, 0},
  };
  EXPECT_EQ(counts, expected);
}

// --- cost model ----------------------------------------------------------------------

TEST(CostModel, ReproducesFigure5Anchors) {
  CostModelConfig config;
  config.gpu_noise_cv = 0;  // deterministic for the anchor check
  net::Rng rng(1);

  // "V": out of viewport, proxy only -> base cost 2.68 ms.
  const RenderItem proxy{.triangles = 36, .coverage = 0.0, .peripheral_shading = false};
  EXPECT_NEAR(GpuFrameTimeMs(std::vector<RenderItem>{proxy}, config, rng), 2.68, 0.05);

  // "BL": full persona at 1 m -> ~6.55 ms.
  const RenderItem baseline{.triangles = 78030, .coverage = 1.0, .peripheral_shading = false};
  EXPECT_NEAR(GpuFrameTimeMs(std::vector<RenderItem>{baseline}, config, rng), 6.55, 0.25);

  // "F": peripheral LOD at ~1 m -> ~3.97 ms.
  const RenderItem foveated{.triangles = 21036, .coverage = 1.0, .peripheral_shading = true};
  EXPECT_NEAR(GpuFrameTimeMs(std::vector<RenderItem>{foveated}, config, rng), 3.97, 0.25);

  // "D": distance LOD at >3 m -> ~3.91 ms.
  const RenderItem distant{.triangles = 45036, .coverage = 1.0 / 9.0, .peripheral_shading = false};
  EXPECT_NEAR(GpuFrameTimeMs(std::vector<RenderItem>{distant}, config, rng), 3.91, 0.35);
}

TEST(CostModel, CpuScalesPerPersona) {
  CostModelConfig config;
  config.cpu_noise_cv = 0;
  net::Rng rng(1);
  // Fig. 6(b): 5.67 ms at 1 remote persona, 6.76 ms at 4.
  EXPECT_NEAR(CpuFrameTimeMs(1, config, rng), 5.67, 0.1);
  EXPECT_NEAR(CpuFrameTimeMs(4, config, rng), 6.76, 0.1);
}

TEST(CostModel, NoiseIsMultiplicativeAndBounded) {
  CostModelConfig config;
  net::Rng rng(7);
  const RenderItem item{.triangles = 78030, .coverage = 1.0, .peripheral_shading = false};
  double lo = 1e9, hi = 0;
  for (int i = 0; i < 500; ++i) {
    const double ms = GpuFrameTimeMs(std::vector<RenderItem>{item}, config, rng);
    lo = std::min(lo, ms);
    hi = std::max(hi, ms);
  }
  EXPECT_GT(lo, 5.0);
  EXPECT_LT(hi, 8.5);
}

// --- scenario ---------------------------------------------------------------------

TEST(Scenario, PlacementCountAndRanges) {
  ScenarioConfig config;
  config.remote_personas = 4;
  SeatedConversation scenario(config, 3);
  for (int i = 0; i < 90; ++i) {
    const FrameView view = scenario.Next();
    ASSERT_EQ(view.placements.size(), 4u);
    for (const Placement& p : view.placements) {
      const double d = view.camera.DistanceTo(p.position);
      EXPECT_GT(d, 0.5);
      EXPECT_LT(d, 4.0);
    }
  }
}

TEST(Scenario, AttentionSwitchesBetweenPersonas) {
  ScenarioConfig config;
  config.remote_personas = 3;
  config.attention_dwell_s = 0.5;
  SeatedConversation scenario(config, 5);
  std::set<std::size_t> attended;
  for (int i = 0; i < 90 * 20; ++i) {
    scenario.Next();
    attended.insert(scenario.attended_persona());
  }
  EXPECT_GE(attended.size(), 2u);
}

TEST(Scenario, SingleRemoteIsCentredAndMostlyFoveal) {
  ScenarioConfig config;
  config.remote_personas = 1;
  SeatedConversation scenario(config, 7);
  int foveal = 0;
  const int frames = 900;
  for (int i = 0; i < frames; ++i) {
    const FrameView view = scenario.Next();
    const Visibility v = EvaluateVisibility(view.camera, view.placements[0], {});
    foveal += v.eccentricity_deg < 20.0;
  }
  EXPECT_GT(foveal, frames * 8 / 10);
}

// --- frame loop ----------------------------------------------------------------------

TEST(FrameLoop, TicksAtNinetyFpsAndRecordsStats) {
  net::Simulator sim(1);
  CostModelConfig config;
  RenderLoop loop(&sim, config, 90.0);
  loop.Start(net::Seconds(1), [](net::SimTime) {
    FrameSubmission s;
    s.items.push_back({.triangles = 78030, .coverage = 1.0, .peripheral_shading = false});
    s.active_personas = 1;
    return s;
  });
  sim.RunUntil(net::Seconds(2));
  EXPECT_NEAR(static_cast<double>(loop.frames().size()), 90.0, 2.0);
  for (const FrameStats& f : loop.frames()) {
    EXPECT_GT(f.gpu_ms, 0);
    EXPECT_GT(f.cpu_ms, 0);
    EXPECT_EQ(f.triangles, 78030u);
  }
}

TEST(FrameLoop, DeadlineMissesDetected) {
  net::Simulator sim(2);
  CostModelConfig config;
  config.gpu_noise_cv = 0;
  RenderLoop loop(&sim, config, 90.0);
  // 5 personas at full detail blow the 11.1 ms budget deterministically.
  loop.Start(net::Seconds(1), [](net::SimTime) {
    FrameSubmission s;
    for (int i = 0; i < 5; ++i) {
      s.items.push_back({.triangles = 78030, .coverage = 1.0, .peripheral_shading = false});
    }
    s.active_personas = 5;
    return s;
  });
  sim.RunUntil(net::Seconds(2));
  EXPECT_NEAR(loop.MissRate(), 1.0, 1e-9);
}


// --- viewport prediction -------------------------------------------------------

TEST(ViewportPredictor, HoldAndLinearBehaveAsSpecified) {
  ViewportPredictor hold(PredictorKind::kHold);
  ViewportPredictor linear(PredictorKind::kLinear);
  // Constant-velocity yaw: 10 deg/s.
  for (int i = 0; i <= 10; ++i) {
    const PoseSample s{.t_s = i * 0.1, .yaw_deg = i * 1.0, .pitch_deg = 0};
    hold.Observe(s);
    linear.Observe(s);
  }
  EXPECT_NEAR(hold.Predict(0.5).yaw_deg, 10.0, 1e-9);    // holds the last value
  EXPECT_NEAR(linear.Predict(0.5).yaw_deg, 15.0, 1e-9);  // extrapolates 10 deg/s
}

TEST(ViewportPredictor, EmaSmoothsVelocityNoise) {
  ViewportPredictor ema(PredictorKind::kEma, 0.2);
  ViewportPredictor linear(PredictorKind::kLinear);
  net::Rng rng(3);
  double yaw = 0;
  for (int i = 0; i < 200; ++i) {
    yaw += 0.1 + rng.Normal(0, 0.3);  // drift + heavy per-sample noise
    const PoseSample s{.t_s = i * 0.011, .yaw_deg = yaw, .pitch_deg = 0};
    ema.Observe(s);
    linear.Observe(s);
  }
  // The instantaneous velocity is noise-dominated; EMA's estimate must be
  // far closer to the true drift rate (0.1/0.011 ~ 9.1 deg/s).
  const double true_vel = 0.1 / 0.011;
  const double ema_vel = (ema.Predict(1.0).yaw_deg - yaw) / 1.0;
  const double lin_vel = (linear.Predict(1.0).yaw_deg - yaw) / 1.0;
  EXPECT_LT(std::abs(ema_vel - true_vel), std::abs(lin_vel - true_vel));
}

TEST(ViewportPredictor, ErrorGrowsWithHorizonOnNaturalMotion) {
  // Build a natural head-yaw trace from the behavioural scenario.
  ScenarioConfig config;
  config.remote_personas = 3;
  SeatedConversation scenario(config, 9);
  std::vector<PoseSample> trace;
  for (int i = 0; i < 90 * 30; ++i) {
    const FrameView view = scenario.Next();
    const double yaw = std::atan2(view.camera.forward.x, view.camera.forward.z) / kRadPerDeg;
    trace.push_back({.t_s = i / 90.0, .yaw_deg = yaw, .pitch_deg = 0});
  }
  const double at_20ms = EvaluatePredictor(PredictorKind::kEma, trace, 0.020);
  const double at_100ms = EvaluatePredictor(PredictorKind::kEma, trace, 0.100);
  const double at_500ms = EvaluatePredictor(PredictorKind::kEma, trace, 0.500);
  EXPECT_LT(at_20ms, at_100ms);
  EXPECT_LT(at_100ms, at_500ms);
  EXPECT_LT(at_20ms, 1.0);   // a frame ahead is easy
  EXPECT_GT(at_500ms, 1.5);  // half a second ahead is not
}

TEST(ViewportPredictor, EmptyAndShortTracesAreSafe) {
  ViewportPredictor p(PredictorKind::kLinear);
  EXPECT_DOUBLE_EQ(p.Predict(1.0).yaw_deg, 0.0);
  EXPECT_DOUBLE_EQ(EvaluatePredictor(PredictorKind::kHold, {}, 0.1), 0.0);
}

}  // namespace
}  // namespace vtp::render
