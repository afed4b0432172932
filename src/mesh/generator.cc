#include "mesh/generator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <vector>

#include "netsim/random.h"

namespace vtp::mesh {

namespace {

constexpr double kPi = std::numbers::pi;

/// Smooth organic pseudo-noise over the sphere: a small sum of seeded
/// sinusoids. Cheap, deterministic, and C1-smooth like scanned surfaces.
/// Each term is weight·sin(θ-phase)·sin(φ-phase), so it is evaluated as a
/// per-ring factor times a per-column factor.
class SphereNoise {
 public:
  using Factors = std::array<double, 6>;

  SphereNoise(std::uint64_t seed, double amplitude) : amplitude_(amplitude) {
    net::Rng rng(seed);
    for (auto& h : harmonics_) {
      h = {rng.Uniform(1.5, 6.0), rng.Uniform(1.5, 6.0), rng.Uniform(0, 2 * kPi),
           rng.Uniform(0, 2 * kPi), rng.Uniform(0.4, 1.0)};
    }
  }

  /// The θ-only factor of each term: weight·sin(f_θ·θ + p_θ).
  Factors Ring(double theta) const {
    Factors f;
    for (std::size_t i = 0; i < f.size(); ++i) {
      const Harmonic& h = harmonics_[i];
      f[i] = h.weight * std::sin(h.f_theta * theta + h.p_theta);
    }
    return f;
  }

  /// The φ-only factor of each term: sin(f_φ·φ + p_φ).
  Factors Column(double phi) const {
    Factors f;
    for (std::size_t i = 0; i < f.size(); ++i) {
      const Harmonic& h = harmonics_[i];
      f[i] = std::sin(h.f_phi * phi + h.p_phi);
    }
    return f;
  }

  /// The noise at the point with these ring and column factors.
  double At(const Factors& ring, const Factors& column) const {
    double n = 0;
    for (std::size_t i = 0; i < ring.size(); ++i) n += ring[i] * column[i];
    return amplitude_ * n / static_cast<double>(harmonics_.size());
  }

 private:
  struct Harmonic {
    double f_theta, f_phi, p_theta, p_phi, weight;
  };
  std::array<Harmonic, 6> harmonics_{};
  double amplitude_;
};

/// UV-sphere with a caller-supplied radius field. `segments` is the
/// longitude count; `rings` the latitude count. Produces exactly
/// 2 * segments * (rings - 1) triangles.
///
/// The field is separable: `field.Ring(θ)` and `field.Column(φ)` hold every
/// term that depends on one angle only, and `field.Radius(ring, column)`
/// combines them per vertex. Each ring and column is evaluated once.
template <typename Field>
TriangleMesh UvSphere(std::size_t segments, std::size_t rings, const Field& field) {
  TriangleMesh m;
  m.positions.reserve(2 + segments * (rings - 1));

  using Column = decltype(field.Column(0.0));
  std::vector<Column> columns;
  std::vector<double> cos_phi, sin_phi;
  columns.reserve(segments);
  cos_phi.reserve(segments);
  sin_phi.reserve(segments);
  for (std::size_t s = 0; s < segments; ++s) {
    const double phi = 2 * kPi * static_cast<double>(s) / static_cast<double>(segments);
    columns.push_back(field.Column(phi));
    cos_phi.push_back(std::cos(phi));
    sin_phi.push_back(std::sin(phi));
  }

  // Poles (at φ = 0, column 0) + interior rings.
  m.positions.push_back(
      Vec3{0, static_cast<float>(field.Radius(field.Ring(0.0), columns[0]).y), 0});
  for (std::size_t r = 1; r < rings; ++r) {
    const double theta = kPi * static_cast<double>(r) / static_cast<double>(rings);
    const auto ring = field.Ring(theta);
    const double sin_theta = std::sin(theta);
    const float cos_theta = static_cast<float>(std::cos(theta));
    for (std::size_t s = 0; s < segments; ++s) {
      const Vec3 scale = field.Radius(ring, columns[s]);
      m.positions.push_back(Vec3{static_cast<float>(sin_theta * cos_phi[s]) * scale.x,
                                 cos_theta * scale.y,
                                 static_cast<float>(sin_theta * sin_phi[s]) * scale.z});
    }
  }
  m.positions.push_back(
      Vec3{0, -static_cast<float>(field.Radius(field.Ring(kPi), columns[0]).y), 0});

  const auto ring_vertex = [&](std::size_t r, std::size_t s) -> std::uint32_t {
    return static_cast<std::uint32_t>(1 + (r - 1) * segments + (s % segments));
  };
  const std::uint32_t south = static_cast<std::uint32_t>(m.positions.size() - 1);

  // Top cap.
  for (std::size_t s = 0; s < segments; ++s) {
    m.triangles.push_back({0, ring_vertex(1, s + 1), ring_vertex(1, s)});
  }
  // Body quads.
  for (std::size_t r = 1; r + 1 < rings; ++r) {
    for (std::size_t s = 0; s < segments; ++s) {
      const std::uint32_t a = ring_vertex(r, s), b = ring_vertex(r, s + 1);
      const std::uint32_t c = ring_vertex(r + 1, s), d = ring_vertex(r + 1, s + 1);
      m.triangles.push_back({a, b, c});
      m.triangles.push_back({b, d, c});
    }
  }
  // Bottom cap.
  for (std::size_t s = 0; s < segments; ++s) {
    m.triangles.push_back({south, ring_vertex(rings - 1, s), ring_vertex(rings - 1, s + 1)});
  }
  return m;
}

/// Picks (segments, rings) so 2*segments*(rings-1) lands as close to
/// `target` as possible (searching segment counts near sqrt(target)).
std::pair<std::size_t, std::size_t> SphereDims(std::size_t target) {
  const auto u0 = static_cast<std::size_t>(std::lround(std::sqrt(static_cast<double>(target))));
  std::size_t best_segments = std::max<std::size_t>(8, u0);
  std::size_t best_rings = 3;
  std::size_t best_err = static_cast<std::size_t>(-1);
  const std::size_t lo = u0 > 48 ? u0 - 40 : 8;
  for (std::size_t segments = lo; segments <= u0 + 40; ++segments) {
    const std::size_t rings = std::max<std::size_t>(
        3, static_cast<std::size_t>(std::lround(static_cast<double>(target) /
                                                (2.0 * static_cast<double>(segments)))) + 1);
    const std::size_t count = 2 * segments * (rings - 1);
    const std::size_t err = count > target ? count - target : target - count;
    if (err < best_err) {
      best_err = err;
      best_segments = segments;
      best_rings = rings;
      if (err == 0) break;
    }
  }
  return {best_segments, best_rings};
}

/// Head half-extents ~8 x 11 x 9.5 cm, noised, with a nose and a chin taper.
struct HeadField {
  SphereNoise noise;

  struct RingTerms {
    SphereNoise::Factors noise;
    double nose;   // θ part of the nose exponent
    double taper;  // chin taper
  };
  struct ColumnTerms {
    SphereNoise::Factors noise;
    double nose;  // φ part of the nose exponent
  };

  RingTerms Ring(double theta) const {
    return {noise.Ring(theta), std::pow((theta - kPi * 0.52) / 0.14, 2.0),
            1.0 - 0.18 * std::pow(std::max(0.0, theta / kPi - 0.55), 1.5)};
  }
  ColumnTerms Column(double phi) const {
    return {noise.Column(phi), std::pow((phi - kPi / 2) / 0.18, 2.0)};
  }
  Vec3 Radius(const RingTerms& ring, const ColumnTerms& column) const {
    double bump = noise.At(ring.noise, column.noise);
    // Nose: a localized bump facing +z at eye-ish height.
    const double face = std::exp(-ring.nose - column.nose);
    bump += 0.02 * face;
    const float s = static_cast<float>(1.0 + bump / 0.09);
    return Vec3{0.080f * s * static_cast<float>(ring.taper), 0.110f * s,
                0.095f * s * static_cast<float>(ring.taper)};
  }
};

/// Flattened palm, with finger-like ridges along one edge (small θ).
struct HandField {
  SphereNoise noise;

  struct RingTerms {
    SphereNoise::Factors noise;
    double finger_zone;  // ridge weight, fading away from the edge
  };
  struct ColumnTerms {
    SphereNoise::Factors noise;
    double ridge;  // five ridges around the edge
  };

  RingTerms Ring(double theta) const {
    return {noise.Ring(theta), 0.012 * std::exp(-std::pow(theta / 0.55, 2.0))};
  }
  ColumnTerms Column(double phi) const {
    return {noise.Column(phi), std::pow(std::sin(5.0 * phi), 8.0)};
  }
  Vec3 Radius(const RingTerms& ring, const ColumnTerms& column) const {
    double bump = noise.At(ring.noise, column.noise);
    bump += ring.finger_zone * column.ridge;
    const float s = static_cast<float>(1.0 + bump / 0.05);
    return Vec3{0.045f * s, 0.085f * s, 0.015f * s};
  }
};

}  // namespace

TriangleMesh GenerateHead(std::size_t target_triangles, std::uint64_t seed) {
  const auto [segments, rings] = SphereDims(target_triangles);
  return UvSphere(segments, rings, HeadField{SphereNoise(seed, 0.004)});  // ~4 mm relief
}

TriangleMesh GenerateHand(std::size_t target_triangles, std::uint64_t seed) {
  const auto [segments, rings] = SphereDims(target_triangles);
  return UvSphere(segments, rings,
                  HandField{SphereNoise(seed ^ 0x9E3779B97F4A7C15ull, 0.002)});
}

TriangleMesh GeneratePersona(std::uint64_t seed, std::size_t target) {
  // Budget split: the persona is mostly head (§2 Figure 1 shows head+hands).
  const std::size_t head_budget = target * 8 / 10;
  const std::size_t hand_budget = target / 10;

  TriangleMesh persona = GenerateHead(head_budget, seed);

  const auto append = [&persona](TriangleMesh part, Vec3 offset) {
    const auto base = static_cast<std::uint32_t>(persona.positions.size());
    for (Vec3& p : part.positions) persona.positions.push_back(p + offset);
    for (const auto& t : part.triangles) {
      persona.triangles.push_back({t[0] + base, t[1] + base, t[2] + base});
    }
  };
  append(GenerateHand(hand_budget, seed + 1), Vec3{-0.28f, -0.35f, 0.18f});
  append(GenerateHand(hand_budget, seed + 2), Vec3{0.28f, -0.35f, 0.18f});
  return persona;
}

}  // namespace vtp::mesh
