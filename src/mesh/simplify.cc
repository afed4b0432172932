#include "mesh/simplify.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

namespace vtp::mesh {

namespace {

/// 21 bits per axis; kMaxGridCellsPerAxis keeps every index inside its field.
std::uint64_t CellKey(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return (static_cast<std::uint64_t>(x) << 42) | (static_cast<std::uint64_t>(y) << 21) | z;
}

/// The grid cell key of every vertex of `input` at `cells_per_axis`, over
/// `box`, the bounds of `input`.
void CellKeys(const TriangleMesh& input, const Aabb& box, std::size_t cells_per_axis,
              std::vector<std::uint64_t>& keys) {
  cells_per_axis = std::clamp<std::size_t>(cells_per_axis, 1, kMaxGridCellsPerAxis);
  const Vec3 size = box.Size();
  const float n = static_cast<float>(cells_per_axis);
  const auto axis = [n](float v, float lo, float extent) -> std::uint32_t {
    if (extent <= 0) return 0;
    const float t = (v - lo) / extent * n;
    return static_cast<std::uint32_t>(std::clamp(t, 0.0f, n - 1.0f));
  };
  keys.resize(input.vertex_count());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Vec3 p = input.positions[i];
    keys[i] = CellKey(axis(p.x, box.min.x, size.x), axis(p.y, box.min.y, size.y),
                      axis(p.z, box.min.z, size.z));
  }
}

/// Triangles SimplifyGrid keeps: those whose three vertices land in three
/// distinct cells.
std::size_t SurvivingTriangles(const TriangleMesh& input, const std::vector<std::uint64_t>& keys) {
  std::size_t count = 0;
  for (const auto& t : input.triangles) {
    const std::uint64_t a = keys[t[0]], b = keys[t[1]], c = keys[t[2]];
    count += (a != b && b != c && a != c) ? 1 : 0;
  }
  return count;
}

/// The grid SimplifyToFraction builds, and the triangles it keeps.
struct GridChoice {
  std::size_t cells_per_axis;  ///< 0: the fraction keeps the input whole
  std::size_t triangles;
};

/// Bisects the grid resolution for `fraction` of the input's triangles.
GridChoice ChooseGrid(const TriangleMesh& input, double fraction) {
  fraction = std::clamp(fraction, 1e-6, 1.0);
  const auto target = static_cast<std::size_t>(
      static_cast<double>(input.triangle_count()) * fraction);
  if (fraction >= 0.999) return {0, input.triangle_count()};

  // Triangle yield grows with grid resolution; bisect on cells_per_axis.
  // A probe needs only the count SimplifyGrid would keep, so no probe
  // builds a mesh.
  const Aabb box = input.Bounds();
  std::vector<std::uint64_t> keys;
  const auto yield = [&](std::size_t cells) {
    CellKeys(input, box, cells, keys);
    return SurvivingTriangles(input, keys);
  };
  std::size_t lo = 2, hi = 4096;
  std::size_t best = lo, best_count = yield(lo);
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    const std::size_t count = yield(mid);
    if (count < target) {
      lo = mid;
      best = mid;
      best_count = count;
    } else {
      hi = mid;
      // Keep the closer of the two bounds.
      const auto err_hi = count - target;
      const auto err_lo = target > best_count ? target - best_count : 0;
      if (err_hi < err_lo) {
        best = mid;
        best_count = count;
      }
    }
  }
  return {best, best_count};
}

}  // namespace

TriangleMesh SimplifyGrid(const TriangleMesh& input, std::size_t cells_per_axis) {
  std::vector<std::uint64_t> keys;
  CellKeys(input, input.Bounds(), cells_per_axis, keys);

  // First pass: centroid per occupied cell, hashing each vertex once.
  struct Accum {
    Vec3 sum;
    std::uint32_t count = 0;
    std::uint32_t index = 0;
  };
  std::unordered_map<std::uint64_t, Accum> cells;
  cells.reserve(input.vertex_count());
  std::vector<const Accum*> cell_of(input.vertex_count());  // map nodes never move
  for (std::size_t i = 0; i < keys.size(); ++i) {
    Accum& a = cells[keys[i]];
    a.sum = a.sum + input.positions[i];
    ++a.count;
    cell_of[i] = &a;
  }

  TriangleMesh out;
  out.positions.reserve(cells.size());
  for (auto& [key, a] : cells) {
    a.index = static_cast<std::uint32_t>(out.positions.size());
    out.positions.push_back(a.sum * (1.0f / static_cast<float>(a.count)));
  }

  // Second pass: remap triangles, dropping collapsed ones.
  out.triangles.reserve(SurvivingTriangles(input, keys));
  for (const auto& t : input.triangles) {
    const std::uint32_t a = cell_of[t[0]]->index;
    const std::uint32_t b = cell_of[t[1]]->index;
    const std::uint32_t c = cell_of[t[2]]->index;
    if (a == b || b == c || a == c) continue;
    out.triangles.push_back({a, b, c});
  }
  return out;
}

TriangleMesh SimplifyToFraction(const TriangleMesh& input, double fraction) {
  const GridChoice choice = ChooseGrid(input, fraction);
  return choice.cells_per_axis == 0 ? input : SimplifyGrid(input, choice.cells_per_axis);
}

std::size_t SimplifiedTriangleCount(const TriangleMesh& input, double fraction) {
  return ChooseGrid(input, fraction).triangles;
}

}  // namespace vtp::mesh
