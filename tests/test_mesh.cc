// Tests for meshes, the procedural generator, the Draco-like codec, and the
// LOD simplifier.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "compress/bitstream.h"
#include "compress/entropy.h"
#include "compress/range_coder.h"
#include "compress/varint.h"
#include "mesh/codec.h"
#include "mesh/generator.h"
#include "mesh/mesh.h"
#include "mesh/simplify.h"

namespace vtp::mesh {
namespace {

// FNV-1a over a mesh's counts, position bytes and triangle bytes: equal
// digests mean the same vertices, the same vertex order and the same
// triangles.
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::uint64_t Fnv1a(std::uint64_t h, const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

std::uint64_t MeshDigest(std::uint64_t h, const TriangleMesh& m) {
  const std::uint64_t counts[2] = {m.vertex_count(), m.triangle_count()};
  h = Fnv1a(h, counts, sizeof(counts));
  h = Fnv1a(h, m.positions.data(), m.positions.size() * sizeof(Vec3));
  return Fnv1a(h, m.triangles.data(), m.triangles.size() * sizeof(m.triangles[0]));
}

bool SameBytes(const TriangleMesh& a, const TriangleMesh& b) {
  return a.vertex_count() == b.vertex_count() && a.triangle_count() == b.triangle_count() &&
         std::memcmp(a.positions.data(), b.positions.data(),
                     a.positions.size() * sizeof(Vec3)) == 0 &&
         std::memcmp(a.triangles.data(), b.triangles.data(),
                     a.triangles.size() * sizeof(a.triangles[0])) == 0;
}

// --- basic mesh type ---------------------------------------------------------

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_FLOAT_EQ((a + b).y, 7);
  EXPECT_FLOAT_EQ((b - a).z, 3);
  EXPECT_FLOAT_EQ(a.Dot(b), 32);
  const Vec3 c = Vec3{1, 0, 0}.Cross(Vec3{0, 1, 0});
  EXPECT_FLOAT_EQ(c.z, 1);
  EXPECT_FLOAT_EQ((Vec3{3, 4, 0}).Length(), 5);
  EXPECT_NEAR((Vec3{10, 0, 0}).Normalized().x, 1.0f, 1e-6);
}

TEST(Aabb, ExtendAndSize) {
  Aabb box;
  box.Extend({1, 2, 3});
  box.Extend({-1, 5, 0});
  EXPECT_FLOAT_EQ(box.Size().x, 2);
  EXPECT_FLOAT_EQ(box.Size().y, 3);
  EXPECT_FLOAT_EQ(box.Center().z, 1.5);
}

TEST(TriangleMesh, ValidityChecks) {
  TriangleMesh m;
  m.positions = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}};
  m.triangles = {{0, 1, 2}};
  EXPECT_TRUE(m.IsValid());
  m.triangles.push_back({0, 0, 1});  // degenerate
  EXPECT_FALSE(m.IsValid());
  m.triangles.back() = {0, 1, 9};  // out of range
  EXPECT_FALSE(m.IsValid());
}

// --- generator -----------------------------------------------------------------

class GeneratorTriangleBudget : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GeneratorTriangleBudget, HitsRequestedCountWithinOnePercent) {
  const std::size_t target = GetParam();
  const TriangleMesh head = GenerateHead(target, 1);
  EXPECT_TRUE(head.IsValid());
  EXPECT_NEAR(static_cast<double>(head.triangle_count()), static_cast<double>(target),
              static_cast<double>(target) * 0.01 + 8);
}

INSTANTIATE_TEST_SUITE_P(Budgets, GeneratorTriangleBudget,
                         ::testing::Values(2000, 10000, 62424, 70000, 78030, 90000));

TEST(Generator, PersonaMatchesRealityKitCount) {
  // The paper's RealityKit tool reports 78,030 triangles per persona (§4.3).
  const TriangleMesh persona = GeneratePersona(7);
  EXPECT_TRUE(persona.IsValid());
  EXPECT_NEAR(static_cast<double>(persona.triangle_count()), 78030.0, 100.0);
}

TEST(Generator, SeedsProduceDistinctGeometry) {
  const TriangleMesh a = GenerateHead(10000, 1);
  const TriangleMesh b = GenerateHead(10000, 2);
  ASSERT_EQ(a.vertex_count(), b.vertex_count());
  double diff = 0;
  for (std::size_t i = 0; i < a.vertex_count(); ++i) {
    diff += static_cast<double>((a.positions[i] - b.positions[i]).Length());
  }
  EXPECT_GT(diff / static_cast<double>(a.vertex_count()), 1e-4);
}

TEST(Generator, SameSeedIsDeterministic) {
  const TriangleMesh a = GenerateHead(5000, 3);
  const TriangleMesh b = GenerateHead(5000, 3);
  ASSERT_EQ(a.vertex_count(), b.vertex_count());
  for (std::size_t i = 0; i < a.vertex_count(); ++i) {
    EXPECT_FLOAT_EQ(a.positions[i].x, b.positions[i].x);
  }
}

TEST(Generator, HeadHasHumanScale) {
  const TriangleMesh head = GenerateHead(20000, 1);
  const Aabb box = head.Bounds();
  EXPECT_GT(box.Size().y, 0.18f);  // ~22 cm tall
  EXPECT_LT(box.Size().y, 0.30f);
  EXPECT_GT(head.SurfaceArea(), 0.05);  // a head is a few hundred cm^2
  EXPECT_LT(head.SurfaceArea(), 0.5);
}

// Pins the generator's output bytes. The digests were recorded from the
// per-vertex evaluation of every sin/cos/pow term; the per-ring and
// per-column factoring must reproduce them exactly.
TEST(Generator, GoldenPersonaDigests) {
  std::uint64_t persona = kFnvBasis;
  for (const std::uint64_t seed : {0ull, 1ull, 1000ull, 1004ull}) {
    for (const std::size_t target : {std::size_t{78030}, std::size_t{20000}, std::size_t{600}}) {
      persona = MeshDigest(persona, GeneratePersona(seed, target));
    }
  }
  EXPECT_EQ(persona, 1156568349348183409ull);
  EXPECT_EQ(MeshDigest(kFnvBasis, GenerateHead(20000, 5)), 16049213134523292411ull);
  EXPECT_EQ(MeshDigest(kFnvBasis, GenerateHand(3000, 5)), 3771780279424765926ull);
}

// --- codec ------------------------------------------------------------------------

TEST(MeshCodec, RoundTripPreservesConnectivityExactly) {
  const TriangleMesh mesh = GenerateHead(8000, 4);
  const auto encoded = EncodeMesh(mesh);
  const TriangleMesh decoded = DecodeMesh(encoded);
  ASSERT_EQ(decoded.triangle_count(), mesh.triangle_count());
  ASSERT_EQ(decoded.vertex_count(), mesh.vertex_count());
  for (std::size_t i = 0; i < mesh.triangle_count(); ++i) {
    EXPECT_EQ(decoded.triangles[i], mesh.triangles[i]);
  }
}

class MeshCodecQuantization : public ::testing::TestWithParam<int> {};

TEST_P(MeshCodecQuantization, PositionsWithinQuantizationError) {
  const MeshCodecConfig config{.position_bits = GetParam()};
  const TriangleMesh mesh = GenerateHead(6000, 5);
  const float tolerance = QuantizationError(mesh, config) * 2.01f;
  const TriangleMesh decoded = DecodeMesh(EncodeMesh(mesh, config));
  for (std::size_t i = 0; i < mesh.vertex_count(); ++i) {
    const Vec3 d = decoded.positions[i] - mesh.positions[i];
    EXPECT_LE(std::abs(d.x), tolerance);
    EXPECT_LE(std::abs(d.y), tolerance);
    EXPECT_LE(std::abs(d.z), tolerance);
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, MeshCodecQuantization, ::testing::Values(8, 10, 12, 14, 16));

TEST(MeshCodec, CompressionBeatsRawAndScalesWithQuantization) {
  const TriangleMesh mesh = GenerateHead(20000, 6);
  const std::size_t raw = mesh.vertex_count() * 12 + mesh.triangle_count() * 12;
  const std::size_t at14 = EncodeMesh(mesh, {.position_bits = 14}).size();
  const std::size_t at10 = EncodeMesh(mesh, {.position_bits = 10}).size();
  EXPECT_LT(at14, raw / 3);
  EXPECT_LT(at10, at14);  // fewer bits -> smaller stream
}

TEST(MeshCodec, DracoClassBytesPerTriangle) {
  // §4.3 math: ~70-90 K-triangle scans at ~1-3 bytes/triangle is what makes
  // direct 3D streaming cost ~100+ Mbps at 90 FPS.
  const TriangleMesh mesh = GeneratePersona(8);
  const std::size_t bytes = EncodeMesh(mesh).size();
  const double per_tri = static_cast<double>(bytes) / static_cast<double>(mesh.triangle_count());
  EXPECT_GT(per_tri, 0.5);
  EXPECT_LT(per_tri, 4.0);
}

TEST(MeshCodec, EmptyMeshRoundTrips) {
  const TriangleMesh decoded = DecodeMesh(EncodeMesh(TriangleMesh{}));
  EXPECT_EQ(decoded.vertex_count(), 0u);
  EXPECT_EQ(decoded.triangle_count(), 0u);
}

TEST(MeshCodec, CorruptInputsThrow) {
  EXPECT_THROW(DecodeMesh(std::vector<std::uint8_t>{1, 2, 3}), compress::CorruptStream);
  auto encoded = EncodeMesh(GenerateHead(2000, 1));
  encoded[0] = 'X';
  EXPECT_THROW(DecodeMesh(encoded), compress::CorruptStream);
  auto truncated = EncodeMesh(GenerateHead(2000, 1));
  truncated.resize(truncated.size() / 3);
  EXPECT_ANY_THROW(DecodeMesh(truncated));
}

/// A hand-built mesh stream: `bits`-bit positions, no triangles, and one
/// residual triple per vertex. kHuge stands for +2^61, a residual no encoder
/// produces: it is coded the way SignedValueCoder lays values out (a 6-bit
/// slot tree, then slot - 1 direct bits) as slot 63 with zero direct bits.
constexpr std::int64_t kHuge = INT64_MIN;
std::vector<std::uint8_t> CraftPositions(int bits,
                                         const std::vector<std::array<std::int64_t, 3>>& vertices) {
  std::vector<std::uint8_t> out = {'V', 'M', 'C', '1', static_cast<std::uint8_t>(bits)};
  compress::PutUleb128(out, vertices.size());
  compress::PutUleb128(out, 0);
  out.resize(out.size() + 6 * 4, 0);  // bounding box, all 0.0f
  compress::RangeEncoder rc(&out);
  std::array<compress::SignedValueCoder, 3> coders;
  std::array<compress::BitTree<6>, 3> slots;  // a fresh coder's slot tree
  for (const auto& v : vertices) {
    for (std::size_t c = 0; c < 3; ++c) {
      if (v[c] == kHuge) {
        slots[c].Encode(rc, 63);
        rc.EncodeDirectBits(0, 31);
        rc.EncodeDirectBits(0, 31);
      } else {
        coders[c].Encode(rc, v[c]);
      }
    }
  }
  rc.Flush();
  return out;
}

TEST(MeshCodec, PositionsOffTheGridThrow) {
  constexpr int kBits = 10;
  constexpr std::int64_t kGrid = (1 << kBits) - 1;
  // Both grid edges are reachable.
  EXPECT_EQ(DecodeMesh(CraftPositions(kBits, {{kGrid, 0, 0}, {-kGrid, 1, 0}})).vertex_count(), 2u);
  EXPECT_THROW(DecodeMesh(CraftPositions(kBits, {{kGrid + 1, 0, 0}})), compress::CorruptStream);
  EXPECT_THROW(DecodeMesh(CraftPositions(kBits, {{0, 0, 0}, {0, -1, 0}})), compress::CorruptStream);
  // Residuals of 2^61 would overflow the running position by the fourth
  // vertex; they must be rejected, not summed.
  const std::array<std::int64_t, 3> huge = {kHuge, 0, 0};
  EXPECT_THROW(DecodeMesh(CraftPositions(kBits, {huge, huge, huge, huge, huge})),
               compress::CorruptStream);
}

TEST(MeshCodec, RejectsBadQuantizationBits) {
  EXPECT_THROW(EncodeMesh(TriangleMesh{}, {.position_bits = 0}), std::invalid_argument);
  EXPECT_THROW(EncodeMesh(TriangleMesh{}, {.position_bits = 22}), std::invalid_argument);
}

// --- simplifier ----------------------------------------------------------------------

TEST(Simplify, GridReducesTrianglesMonotonically) {
  const TriangleMesh mesh = GenerateHead(30000, 9);
  std::size_t prev = mesh.triangle_count() + 1;
  for (const std::size_t cells : {256u, 64u, 16u, 8u}) {
    const TriangleMesh simplified = SimplifyGrid(mesh, cells);
    EXPECT_TRUE(simplified.IsValid());
    EXPECT_LE(simplified.triangle_count(), prev);
    prev = simplified.triangle_count();
  }
}

TEST(Simplify, PreservesOverallShape) {
  const TriangleMesh mesh = GenerateHead(30000, 9);
  const TriangleMesh simplified = SimplifyToFraction(mesh, 0.3);
  const Aabb a = mesh.Bounds(), b = simplified.Bounds();
  EXPECT_NEAR(a.Size().x, b.Size().x, 0.02f);
  EXPECT_NEAR(a.Size().y, b.Size().y, 0.02f);
  EXPECT_NEAR(a.Size().z, b.Size().z, 0.02f);
}

class SimplifyFraction : public ::testing::TestWithParam<double> {};

TEST_P(SimplifyFraction, LandsNearRequestedFraction) {
  const TriangleMesh mesh = GenerateHead(40000, 10);
  const double fraction = GetParam();
  const TriangleMesh simplified = SimplifyToFraction(mesh, fraction);
  const double achieved = static_cast<double>(simplified.triangle_count()) /
                          static_cast<double>(mesh.triangle_count());
  EXPECT_NEAR(achieved, fraction, fraction * 0.35 + 0.02);
}

// The paper's ratios: peripheral 21036/78030 = 0.27, distance 45036/78030 = 0.577.
INSTANTIATE_TEST_SUITE_P(Fractions, SimplifyFraction, ::testing::Values(0.27, 0.577, 0.8, 0.1));

// Pins the LOD meshes the ladder builds (the paper's 45,036 and 21,036
// ratios) plus two further fractions, on two full-size personas. Recorded
// from the bisection that built a full grid mesh at every probe.
TEST(Simplify, GoldenFractionDigest) {
  std::uint64_t h = kFnvBasis;
  for (const std::uint64_t seed : {7ull, 42ull}) {
    const TriangleMesh persona = GeneratePersona(seed);
    for (const double fraction : {45036.0 / 78030.0, 21036.0 / 78030.0, 0.1, 0.8}) {
      h = MeshDigest(h, SimplifyToFraction(persona, fraction));
    }
  }
  EXPECT_EQ(h, 9814652329875187848ull);
}

// The reference bisection: a full SimplifyGrid mesh at every probe, keeping
// the closer of the two bounds. SimplifyToFraction must return the very same
// mesh, byte for byte.
TriangleMesh ReferenceSimplifyToFraction(const TriangleMesh& input, double fraction) {
  fraction = std::clamp(fraction, 1e-6, 1.0);
  const auto target = static_cast<std::size_t>(
      static_cast<double>(input.triangle_count()) * fraction);
  if (fraction >= 0.999) return input;
  std::size_t lo = 2, hi = 4096;
  TriangleMesh best = SimplifyGrid(input, lo);
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    TriangleMesh candidate = SimplifyGrid(input, mid);
    if (candidate.triangle_count() < target) {
      lo = mid;
      best = std::move(candidate);
    } else {
      hi = mid;
      const auto err_hi = candidate.triangle_count() - target;
      const auto err_lo = target > best.triangle_count() ? target - best.triangle_count() : 0;
      if (err_hi < err_lo) best = std::move(candidate);
    }
  }
  return best;
}

TEST(Simplify, FractionMatchesReferenceBisection) {
  for (const std::size_t triangles : {std::size_t{600}, std::size_t{20000}, std::size_t{78030}}) {
    const TriangleMesh persona = GeneratePersona(11, triangles);
    for (const double fraction : {0.05, 0.1, 0.27, 0.577, 0.8, 0.998}) {
      EXPECT_TRUE(SameBytes(SimplifyToFraction(persona, fraction),
                            ReferenceSimplifyToFraction(persona, fraction)))
          << triangles << " triangles at fraction " << fraction;
    }
  }
}

// At 2^22 cells per axis the vertex at z = 0.5 sits in z cell 2^21, one past
// the 21-bit field, and an unclamped key would merge it with the vertex in
// y cell 1. The grid is clamped to 2^21 cells, where the two stay apart and
// the triangle through them survives.
TEST(Simplify, GridFinerThanTheKeyIsClamped) {
  TriangleMesh mesh;
  mesh.positions = {{0, 0, 0}, {1, 1, 1}, {0, 0x1p-22f, 0}, {0, 0, 0.5f}};
  mesh.triangles = {{1, 2, 3}};
  const TriangleMesh fine = SimplifyGrid(mesh, std::size_t{1} << 22);
  EXPECT_TRUE(SameBytes(fine, SimplifyGrid(mesh, kMaxGridCellsPerAxis)));
  ASSERT_EQ(fine.triangle_count(), 1u);
  EXPECT_TRUE(fine.IsValid());
  EXPECT_EQ(fine.vertex_count(), 3u);  // (0,0,0) and (0,2^-22,0) share a cell
  EXPECT_FLOAT_EQ(fine.positions[fine.triangles[0][2]].z, 0.5f);
}

TEST(Simplify, BoundingBoxProxyIsTwelveTriangles) {
  const TriangleMesh mesh = GenerateHead(5000, 2);
  const TriangleMesh proxy = BoundingBoxProxy(mesh);
  EXPECT_EQ(proxy.triangle_count(), 12u);
  EXPECT_EQ(proxy.vertex_count(), 8u);
  EXPECT_TRUE(proxy.IsValid());
  const Aabb a = mesh.Bounds(), b = proxy.Bounds();
  EXPECT_FLOAT_EQ(a.Size().x, b.Size().x);
}

}  // namespace
}  // namespace vtp::mesh
