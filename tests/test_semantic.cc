// Tests for keypoint schemas, the behavioural track generator, the semantic
// codec, and persona reconstruction.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>

#include "compress/bitstream.h"
#include "mesh/generator.h"
#include "semantic/codec.h"
#include "semantic/generator.h"
#include "semantic/keypoints.h"
#include "semantic/reconstruct.h"

namespace vtp::semantic {
namespace {

// --- schemas -----------------------------------------------------------------

TEST(Keypoints, SemanticSubsetIs74Points) {
  // 32 mouth+eye points + 2 x 21 hand points (§4.3).
  EXPECT_EQ(kSemanticPoints, 74u);
  const auto subset = ExtractSemanticSubset(NeutralLayout());
  EXPECT_EQ(subset.size(), 74u);
}

TEST(Keypoints, DlibIndexRangesAreCorrect) {
  const auto eyes = EyeIndices();
  EXPECT_EQ(eyes.front(), 36u);
  EXPECT_EQ(eyes.back(), 47u);
  const auto mouth = MouthIndices();
  EXPECT_EQ(mouth.front(), 48u);
  EXPECT_EQ(mouth.back(), 67u);
}

TEST(Keypoints, NeutralLayoutIsFaceLike) {
  const KeypointFrame f = NeutralLayout();
  // Eyes above the mouth, on the +z face.
  const Vec3 eye = f.face[40];
  const Vec3 mouth = f.face[51];
  EXPECT_GT(eye.y, mouth.y);
  EXPECT_GT(eye.z, 0.05f);
  // Left/right eyes roughly mirrored in x.
  EXPECT_NEAR(f.face[37].x, -f.face[44].x, 0.02f);
  // Hands placed at the persona's hand offsets.
  EXPECT_LT(f.left_hand[0].x, -0.2f);
  EXPECT_GT(f.right_hand[0].x, 0.2f);
}

// --- track generator ------------------------------------------------------------

TEST(TrackGenerator, DeterministicPerSeed) {
  KeypointTrackGenerator a({}, 5), b({}, 5), c({}, 6);
  const auto fa = a.Next(), fb = b.Next(), fc = c.Next();
  EXPECT_FLOAT_EQ(fa.face[50].x, fb.face[50].x);
  EXPECT_NE(fa.face[50].x, fc.face[50].x);
}

TEST(TrackGenerator, MouthMovesWhenTalkingAndNotOtherwise) {
  TrackConfig talking;
  talking.sensor_noise_m = 0;  // isolate the articulation signal
  TrackConfig silent = talking;
  silent.talking = false;

  const auto mouth_travel = [](TrackConfig config) {
    KeypointTrackGenerator gen(config, 3);
    double travel = 0;
    KeypointFrame prev = gen.Next();
    for (int i = 0; i < 180; ++i) {
      const KeypointFrame f = gen.Next();
      travel += std::abs(f.face[57].y - prev.face[57].y);  // lower lip
      prev = f;
    }
    return travel;
  };
  EXPECT_GT(mouth_travel(talking), mouth_travel(silent) * 3);
}

TEST(TrackGenerator, BlinksCloseTheEyes) {
  TrackConfig config;
  config.sensor_noise_m = 0;
  config.blink_interval_s = 0.5;  // blink often so the test is fast
  KeypointTrackGenerator gen(config, 11);
  double min_gap = 1e9, max_gap = 0;
  for (int i = 0; i < 900; ++i) {  // 10 seconds at 90 fps
    const KeypointFrame f = gen.Next();
    // Vertical gap of the right eye loop (upper vs lower points).
    const double gap = std::abs(f.face[37].y - f.face[41].y);
    min_gap = std::min(min_gap, gap);
    max_gap = std::max(max_gap, gap);
  }
  EXPECT_LT(min_gap, max_gap * 0.35);  // eyelids nearly meet during a blink
}

TEST(TrackGenerator, HandsWanderSmoothlyAndBoundedly) {
  KeypointTrackGenerator gen({}, 17);
  double max_offset = 0, max_step = 0;
  Vec3 prev = gen.Next().left_hand[0];
  const Vec3 start = prev;
  for (int i = 0; i < 900; ++i) {
    const Vec3 now = gen.Next().left_hand[0];
    max_offset = std::max(max_offset, static_cast<double>((now - start).Length()));
    max_step = std::max(max_step, static_cast<double>((now - prev).Length()));
    prev = now;
  }
  EXPECT_GT(max_offset, 0.005);  // it does move
  EXPECT_LT(max_offset, 0.5);    // but stays near the body
  EXPECT_LT(max_step, 0.02);     // no teleporting between frames
}

// --- codec ------------------------------------------------------------------------

TEST(SemanticCodec, RawFloatRoundTripIsExact) {
  KeypointTrackGenerator gen({}, 2);
  SemanticEncoder enc({.quantize_bits = 0, .temporal_delta = false, .lz_compress = true});
  SemanticDecoder dec;
  for (int i = 0; i < 5; ++i) {
    const auto points = ExtractSemanticSubset(gen.Next());
    const auto payload = enc.EncodeFrame(points);
    const auto frame = dec.DecodeFrame(payload);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->frame_index, static_cast<std::uint64_t>(i));
    ASSERT_EQ(frame->points.size(), kSemanticPoints);
    for (std::size_t k = 0; k < kSemanticPoints; ++k) {
      EXPECT_FLOAT_EQ(frame->points[k].x, points[k].x);
      EXPECT_FLOAT_EQ(frame->points[k].y, points[k].y);
      EXPECT_FLOAT_EQ(frame->points[k].z, points[k].z);
    }
  }
}

TEST(SemanticCodec, PaperScaleBandwidth) {
  // §4.3: 74 float keypoints compressed with LZMA at 90 FPS ~ 0.64 Mbps,
  // i.e. ~880-930 bytes per frame.
  KeypointTrackGenerator gen({}, 4);
  SemanticEncoder enc;
  std::size_t total = 0;
  const int frames = 200;
  for (int i = 0; i < frames; ++i) {
    total += enc.EncodeFrame(ExtractSemanticSubset(gen.Next())).size();
  }
  const double mbps = static_cast<double>(total) * 8 * 90 / frames / 1e6;
  EXPECT_GT(mbps, 0.45);
  EXPECT_LT(mbps, 0.75);
}

class QuantizedCodec : public ::testing::TestWithParam<int> {};

TEST_P(QuantizedCodec, RoundTripWithinGridError) {
  const int bits = GetParam();
  KeypointTrackGenerator gen({}, 8);
  SemanticEncoder enc({.quantize_bits = bits, .temporal_delta = false, .lz_compress = false});
  SemanticDecoder dec;
  const float tolerance = 1.0f / static_cast<float>((1 << bits) - 1) + 1e-6f;
  for (int i = 0; i < 3; ++i) {
    const auto points = ExtractSemanticSubset(gen.Next());
    const auto frame = dec.DecodeFrame(enc.EncodeFrame(points));
    ASSERT_TRUE(frame.has_value());
    for (std::size_t k = 0; k < kSemanticPoints; ++k) {
      EXPECT_NEAR(frame->points[k].x, points[k].x, tolerance);
      EXPECT_NEAR(frame->points[k].y, points[k].y, tolerance);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, QuantizedCodec, ::testing::Values(8, 10, 12, 14, 16));

TEST(SemanticCodec, QuantizedModeIsMuchSmallerThanFloatMode) {
  KeypointTrackGenerator gen_a({}, 9), gen_b({}, 9);
  SemanticEncoder float_enc;
  SemanticEncoder quant_enc({.quantize_bits = 12, .temporal_delta = true, .lz_compress = true});
  std::size_t float_bytes = 0, quant_bytes = 0;
  for (int i = 0; i < 50; ++i) {
    float_bytes += float_enc.EncodeFrame(ExtractSemanticSubset(gen_a.Next())).size();
    quant_bytes += quant_enc.EncodeFrame(ExtractSemanticSubset(gen_b.Next())).size();
  }
  // The ablation the paper's discussion implies: quantized deltas would cut
  // the spatial persona's bitrate several-fold.
  EXPECT_LT(quant_bytes * 3, float_bytes);
}

TEST(SemanticCodec, TemporalDeltaFailsWithoutPredecessor) {
  KeypointTrackGenerator gen({}, 10);
  SemanticEncoder enc({.quantize_bits = 12, .temporal_delta = true, .lz_compress = false});
  SemanticDecoder dec;
  const auto f0 = enc.EncodeFrame(ExtractSemanticSubset(gen.Next()));  // keyframe-like
  const auto f1 = enc.EncodeFrame(ExtractSemanticSubset(gen.Next()));  // delta
  const auto f2 = enc.EncodeFrame(ExtractSemanticSubset(gen.Next()));  // delta
  EXPECT_TRUE(dec.DecodeFrame(f0).has_value());
  // Skip f1: the delta chain is broken -> reconstruction impossible.
  EXPECT_FALSE(dec.DecodeFrame(f2).has_value());
}

TEST(SemanticCodec, MalformedPayloadThrows) {
  SemanticDecoder dec;
  EXPECT_THROW(dec.DecodeFrame(std::vector<std::uint8_t>{}), compress::CorruptStream);
  EXPECT_ANY_THROW(dec.DecodeFrame(std::vector<std::uint8_t>{0x04, 0x00, 'b', 'a', 'd'}));
}

TEST(SemanticCodec, WrongPointCountThrows) {
  SemanticEncoder enc;
  const std::vector<Vec3> wrong(10);
  EXPECT_THROW(enc.EncodeFrame(wrong), std::invalid_argument);
}

TEST(SemanticCodec, InvalidConfigThrows) {
  EXPECT_THROW(SemanticEncoder({.quantize_bits = 0, .temporal_delta = true}),
               std::invalid_argument);
  EXPECT_THROW(SemanticEncoder({.quantize_bits = 25}), std::invalid_argument);
}

// --- reconstruction ------------------------------------------------------------------

TEST(Reconstructor, InfluencesCoverTheAnimatedRegions) {
  const mesh::TriangleMesh persona = mesh::GeneratePersona(1, 20000);
  PersonaReconstructor recon(persona);
  EXPECT_GT(recon.influenced_vertex_count(), 100u);
  EXPECT_LT(recon.influenced_vertex_count(), persona.vertex_count());
}

TEST(Reconstructor, MouthKeypointsMoveMouthVerticesOnly) {
  const mesh::TriangleMesh persona = mesh::GeneratePersona(2, 20000);
  PersonaReconstructor recon(persona);

  // Open the mouth: push all mouth keypoints down by 1 cm.
  auto points = ExtractSemanticSubset(NeutralLayout());
  for (std::size_t k = 0; k < kMouthPoints; ++k) points[k].y -= 0.01f;
  const mesh::TriangleMesh& deformed = recon.Apply(points);

  double moved = 0, moved_far_from_face = 0;
  std::size_t count_moved = 0;
  for (std::size_t i = 0; i < persona.vertex_count(); ++i) {
    const float d = (deformed.positions[i] - persona.positions[i]).Length();
    if (d > 1e-5f) {
      ++count_moved;
      moved += d;
      if (persona.positions[i].z < 0) moved_far_from_face += d;  // back of head
    }
  }
  EXPECT_GT(count_moved, 10u);
  EXPECT_GT(moved, 0.0);
  EXPECT_NEAR(moved_far_from_face, 0.0, moved * 0.01);  // back of head is static
}

TEST(Reconstructor, NeutralInputIsIdentity) {
  const mesh::TriangleMesh persona = mesh::GeneratePersona(3, 10000);
  PersonaReconstructor recon(persona);
  const auto neutral = ExtractSemanticSubset(NeutralLayout());
  const mesh::TriangleMesh& out = recon.Apply(neutral);
  for (std::size_t i = 0; i < persona.vertex_count(); ++i) {
    EXPECT_NEAR((out.positions[i] - persona.positions[i]).Length(), 0.0f, 1e-6f);
  }
}

// Pins 200 reconstructions of a full-size persona driven by a behavioural
// track. Recorded while the reconstructor kept a whole copy of the base mesh.
TEST(Reconstructor, GoldenApplyDigest) {
  PersonaReconstructor recon(mesh::GeneratePersona(1000));
  KeypointTrackGenerator track({}, 77);
  std::uint64_t h = 1469598103934665603ull;
  for (int f = 0; f < 200; ++f) {
    const mesh::TriangleMesh& out = recon.Apply(ExtractSemanticSubset(track.Next()));
    const auto* p = reinterpret_cast<const std::uint8_t*>(out.positions.data());
    for (std::size_t i = 0; i < out.positions.size() * sizeof(Vec3); ++i) {
      h = (h ^ p[i]) * 1099511628211ull;
    }
  }
  EXPECT_EQ(recon.influenced_vertex_count(), 11536u);
  EXPECT_EQ(h, 9288102567650967682ull);
}

bool SamePositions(const mesh::TriangleMesh& a, const mesh::TriangleMesh& b) {
  return a.positions.size() == b.positions.size() &&
         std::memcmp(a.positions.data(), b.positions.data(),
                     a.positions.size() * sizeof(Vec3)) == 0;
}

// GoldenApplyDigest's pins, through a rig that two reconstructors share.
// The second one applies other frames in between and must not disturb the
// first.
TEST(Reconstructor, SharedRigHoldsTheGoldenDigestAndKeepsReceiversApart) {
  const auto rig = std::make_shared<const ReconstructorRig>(
      std::make_shared<const mesh::TriangleMesh>(mesh::GeneratePersona(1000)));
  PersonaReconstructor recon(rig);
  PersonaReconstructor other(rig);
  EXPECT_TRUE(SamePositions(other.current(), rig->base()));
  KeypointTrackGenerator track({}, 77);
  KeypointTrackGenerator other_track({}, 78);
  std::uint64_t h = 1469598103934665603ull;
  for (int f = 0; f < 200; ++f) {
    const mesh::TriangleMesh& out = recon.Apply(ExtractSemanticSubset(track.Next()));
    other.Apply(ExtractSemanticSubset(other_track.Next()));
    const auto* p = reinterpret_cast<const std::uint8_t*>(out.positions.data());
    for (std::size_t i = 0; i < out.positions.size() * sizeof(Vec3); ++i) {
      h = (h ^ p[i]) * 1099511628211ull;
    }
  }
  EXPECT_EQ(recon.influenced_vertex_count(), 11536u);
  EXPECT_EQ(h, 9288102567650967682ull);
  EXPECT_FALSE(SamePositions(other.current(), recon.current()));
}

TEST(Reconstructor, LazyRigBuildsOnceOnFirstUse) {
  LazyRig lazy(std::make_shared<const mesh::TriangleMesh>(mesh::GeneratePersona(5, 2000)));
  const std::shared_ptr<const ReconstructorRig> first = lazy.Get();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(lazy.Get(), first);
  PersonaReconstructor a(lazy.Get());
  PersonaReconstructor b(lazy.Get());
  EXPECT_EQ(first.use_count(), 4);  // first, the lazy slot, a and b
}

TEST(Reconstructor, InvalidConfigThrowsFromTheRig) {
  const auto persona = std::make_shared<const mesh::TriangleMesh>(mesh::GeneratePersona(4, 600));
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const float sigma : {0.0f, -0.02f, inf, nan}) {
    EXPECT_THROW(ReconstructorRig(persona, {.influence_sigma_m = sigma}), std::invalid_argument)
        << sigma;
    LazyRig lazy(persona, {.influence_sigma_m = sigma});
    EXPECT_THROW(lazy.Get(), std::invalid_argument) << sigma;
  }
  EXPECT_THROW(ReconstructorRig(persona, {.max_influence_m = -0.01f}), std::invalid_argument);
  EXPECT_EQ(ReconstructorRig(persona, {.max_influence_m = 0}).influenced_vertex_count(), 0u);
}

TEST(Reconstructor, InvalidConfigThrows) {
  const mesh::TriangleMesh persona = mesh::GeneratePersona(4, 600);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const float sigma : {0.0f, -0.02f, inf, nan}) {
    EXPECT_THROW(PersonaReconstructor(persona, {.influence_sigma_m = sigma}),
                 std::invalid_argument)
        << sigma;
  }
  EXPECT_THROW(PersonaReconstructor(persona, {.max_influence_m = -0.01f}),
               std::invalid_argument);
  // The limits themselves are accepted: a zero radius leaves nothing animated.
  EXPECT_EQ(PersonaReconstructor(persona, {.max_influence_m = 0}).influenced_vertex_count(), 0u);
}

TEST(Reconstructor, WrongPointCountThrows) {
  PersonaReconstructor recon(mesh::GeneratePersona(4, 5000));
  EXPECT_THROW(recon.Apply(std::vector<Vec3>(3)), std::invalid_argument);
}

}  // namespace
}  // namespace vtp::semantic
