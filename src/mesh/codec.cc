#include "mesh/codec.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>

#include "compress/bitstream.h"
#include "compress/entropy.h"
#include "compress/range_coder.h"
#include "compress/varint.h"

namespace vtp::mesh {

namespace {

constexpr std::array<std::uint8_t, 4> kMagic = {'V', 'M', 'C', '1'};

using ResidualCoder = compress::SignedValueCoder;

void PutFloat(std::vector<std::uint8_t>& out, float f) {
  std::uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  out.push_back(static_cast<std::uint8_t>(bits >> 24));
  out.push_back(static_cast<std::uint8_t>(bits >> 16));
  out.push_back(static_cast<std::uint8_t>(bits >> 8));
  out.push_back(static_cast<std::uint8_t>(bits));
}

float GetFloat(std::span<const std::uint8_t> d, std::size_t* pos) {
  if (*pos + 4 > d.size()) throw compress::CorruptStream("mesh: truncated float");
  std::uint32_t bits = 0;
  for (int i = 0; i < 4; ++i) bits = (bits << 8) | d[(*pos)++];
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

/// Entropy-codes positions + connectivity into `rc`.
void EncodeMeshBody(const TriangleMesh& mesh, MeshCodecConfig config, const Aabb& box,
                    compress::RangeEncoder& rc) {
  const std::uint32_t grid = (1u << config.position_bits) - 1;
  const Vec3 size = box.Size();
  const auto quantize = [&](float v, float lo, float extent) -> std::int64_t {
    if (extent <= 0) return 0;
    return std::llround((v - lo) / extent * static_cast<float>(grid));
  };

  std::array<ResidualCoder, 3> pos_coder;
  std::array<std::int64_t, 3> prev = {0, 0, 0};
  for (const Vec3& p : mesh.positions) {
    const std::array<std::int64_t, 3> q = {
        quantize(p.x, box.min.x, size.x),
        quantize(p.y, box.min.y, size.y),
        quantize(p.z, box.min.z, size.z)};
    for (int c = 0; c < 3; ++c) {
      pos_coder[static_cast<std::size_t>(c)].Encode(rc, q[static_cast<std::size_t>(c)] -
                                                            prev[static_cast<std::size_t>(c)]);
      prev[static_cast<std::size_t>(c)] = q[static_cast<std::size_t>(c)];
    }
  }

  // Connectivity: strip-style prediction. Each corner is coded as a delta
  // against the same corner of the triangle two back — for the quad-grid
  // topology of scan-like meshes these deltas are near-constant, giving
  // edgebreaker-class rates out of a far simpler scheme.
  std::array<ResidualCoder, 3> index_coder;
  std::array<std::array<std::int64_t, 3>, 2> history{};  // [i-2, i-1] corners
  for (std::size_t i = 0; i < mesh.triangle_count(); ++i) {
    const auto& t = mesh.triangles[i];
    const auto& reference = history[i % 2];  // triangle i-2 (zeros initially)
    std::array<std::int64_t, 3> current{};
    for (int c = 0; c < 3; ++c) {
      const auto sc = static_cast<std::size_t>(c);
      current[sc] = static_cast<std::int64_t>(t[sc]);
      index_coder[sc].Encode(rc, current[sc] - reference[sc]);
    }
    history[i % 2] = current;
  }
  rc.Flush();
}

}  // namespace

void EncodeMeshInto(const TriangleMesh& mesh, MeshCodecConfig config,
                    std::vector<std::uint8_t>& out) {
  if (config.position_bits < 1 || config.position_bits > 21) {
    throw std::invalid_argument("position_bits out of range");
  }
  out.clear();
  for (const std::uint8_t b : kMagic) out.push_back(b);
  out.push_back(static_cast<std::uint8_t>(config.position_bits));
  compress::PutUleb128(out, mesh.vertex_count());
  compress::PutUleb128(out, mesh.triangle_count());

  const Aabb box = mesh.Bounds();
  PutFloat(out, box.min.x);
  PutFloat(out, box.min.y);
  PutFloat(out, box.min.z);
  PutFloat(out, box.max.x);
  PutFloat(out, box.max.y);
  PutFloat(out, box.max.z);
  if (mesh.vertex_count() == 0) return;

  compress::RangeEncoder rc(&out);
  EncodeMeshBody(mesh, config, box, rc);
}

std::vector<std::uint8_t> EncodeMesh(const TriangleMesh& mesh, MeshCodecConfig config) {
  std::vector<std::uint8_t> out;
  EncodeMeshInto(mesh, config, out);
  return out;
}

TriangleMesh DecodeMesh(std::span<const std::uint8_t> data) {
  if (data.size() < kMagic.size() + 1 ||
      !std::equal(kMagic.begin(), kMagic.end(), data.begin())) {
    throw compress::CorruptStream("mesh: bad magic");
  }
  std::size_t pos = kMagic.size();
  const int position_bits = data[pos++];
  if (position_bits < 1 || position_bits > 21) throw compress::CorruptStream("mesh: bad qbits");
  const std::uint64_t vertices = compress::GetUleb128(data, &pos);
  const std::uint64_t triangles = compress::GetUleb128(data, &pos);

  Aabb box;
  box.min.x = GetFloat(data, &pos);
  box.min.y = GetFloat(data, &pos);
  box.min.z = GetFloat(data, &pos);
  box.max.x = GetFloat(data, &pos);
  box.max.y = GetFloat(data, &pos);
  box.max.z = GetFloat(data, &pos);

  TriangleMesh mesh;
  if (vertices == 0) return mesh;
  // Plausibility bound: each vertex/index costs at least ~2 bits in the
  // entropy stream, so counts cannot exceed a few times the input bits.
  // Protects against huge allocations from corrupt headers.
  const std::uint64_t max_plausible = static_cast<std::uint64_t>(data.size()) * 8;
  if (vertices > max_plausible || triangles > max_plausible) {
    throw compress::CorruptStream("mesh: implausible element count");
  }
  mesh.positions.reserve(vertices);
  mesh.triangles.reserve(triangles);

  const std::uint32_t grid = (1u << position_bits) - 1;
  const Vec3 size = box.Size();
  const auto dequantize = [&](std::int64_t q, float lo, float extent) -> float {
    return lo + static_cast<float>(q) / static_cast<float>(grid) * extent;
  };

  compress::RangeDecoder rc(data.subspan(pos));
  std::array<ResidualCoder, 3> pos_coder;
  std::array<std::int64_t, 3> prev = {0, 0, 0};
  for (std::uint64_t i = 0; i < vertices; ++i) {
    Vec3 p;
    for (int c = 0; c < 3; ++c) {
      const auto sc = static_cast<std::size_t>(c);
      // Valid streams stay on the grid, so a residual never exceeds it;
      // bounding it first keeps a hostile one from overflowing the sum.
      const std::int64_t residual = pos_coder[sc].Decode(rc);
      if (residual < -std::int64_t{grid} || residual > std::int64_t{grid}) {
        throw compress::CorruptStream("mesh: position residual out of range");
      }
      prev[sc] += residual;
      if (prev[sc] < 0 || prev[sc] > std::int64_t{grid}) {
        throw compress::CorruptStream("mesh: position off the grid");
      }
    }
    p.x = dequantize(prev[0], box.min.x, size.x);
    p.y = dequantize(prev[1], box.min.y, size.y);
    p.z = dequantize(prev[2], box.min.z, size.z);
    mesh.positions.push_back(p);
  }

  std::array<ResidualCoder, 3> index_coder;
  std::array<std::array<std::int64_t, 3>, 2> history{};
  for (std::uint64_t i = 0; i < triangles; ++i) {
    std::array<std::uint32_t, 3> t{};
    auto& reference = history[i % 2];
    for (int c = 0; c < 3; ++c) {
      const auto sc = static_cast<std::size_t>(c);
      const std::int64_t value = reference[sc] + index_coder[sc].Decode(rc);
      if (value < 0 || static_cast<std::uint64_t>(value) >= vertices) {
        throw compress::CorruptStream("mesh: index out of range");
      }
      reference[sc] = value;
      t[sc] = static_cast<std::uint32_t>(value);
    }
    mesh.triangles.push_back(t);
  }
  return mesh;
}

float QuantizationError(const TriangleMesh& mesh, MeshCodecConfig config) {
  const Aabb box = mesh.Bounds();
  const Vec3 size = box.Size();
  const float step = std::max({size.x, size.y, size.z}) /
                     static_cast<float>((1u << config.position_bits) - 1);
  return step * 0.5f;
}

}  // namespace vtp::mesh
