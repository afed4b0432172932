// Mesh simplification for LOD ladders.
//
// Vision Pro's visibility-aware optimizations swap spatial personas to
// lower-triangle meshes (§4.4: 21,036 triangles in peripheral vision,
// 45,036 beyond 3 m, 36 when out of the viewport). The render module builds
// those LODs with this simplifier (uniform vertex clustering) plus the
// 12-triangle-per-component bounding-box proxy.
#pragma once

#include <cstddef>

#include "mesh/mesh.h"

namespace vtp::mesh {

/// Finest grid SimplifyGrid builds. A cell key packs 21 bits per axis, so a
/// finer grid would let one axis index spill into the next and merge
/// distinct cells; larger `cells_per_axis` values are clamped to this.
inline constexpr std::size_t kMaxGridCellsPerAxis = std::size_t{1} << 21;

/// Clusters vertices onto a `cells_per_axis`^3 grid over the mesh bounds,
/// merging each cell's vertices at their centroid and dropping triangles
/// that collapse. Preserves overall shape; output triangle count decreases
/// monotonically as the grid coarsens. `cells_per_axis` is clamped to
/// [1, kMaxGridCellsPerAxis].
TriangleMesh SimplifyGrid(const TriangleMesh& input, std::size_t cells_per_axis);

/// Binary-searches the grid resolution so the output has approximately
/// `fraction` of the input's triangles (within ~10%, clamped by what
/// clustering can achieve). `fraction` in (0, 1].
TriangleMesh SimplifyToFraction(const TriangleMesh& input, double fraction);

/// The 12-triangle bounding-box proxy of a mesh (used when content is
/// outside the viewport: a persona of 3 components becomes 36 triangles).
TriangleMesh BoundingBoxProxy(const TriangleMesh& input);

}  // namespace vtp::mesh
