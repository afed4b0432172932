// Level-of-detail ladder and the visibility-aware selection policy.
//
// Reproduces §4.4's observed behaviour on Vision Pro, as triangle counts:
//   * full persona mesh (78,030 triangles at the 1 m baseline);
//   * a distance LOD (~58% of triangles, used beyond 3 m);
//   * a peripheral LOD (~27%, used when the persona sits outside the
//     foveal region of the tracked gaze);
//   * a 36-triangle proxy when out of the viewport — exactly three
//     12-triangle bounding boxes (head + two hands), which is where the
//     paper's mysterious "36" comes from in this reproduction;
//   * occlusion-aware selection exists but defaults OFF, matching the
//     paper's finding that FaceTime does not use it.
#pragma once

#include <array>
#include <cstdint>

#include "mesh/generator.h"
#include "render/visibility.h"

namespace vtp::render {

/// Which mesh variant a persona renders with this frame.
enum class LodClass : std::uint8_t { kFull, kDistance, kPeripheral, kProxy, kCulledOccluded };

/// Policy knobs. Fractions are the paper's measured triangle ratios.
struct LodPolicy {
  bool viewport_adaptation = true;
  bool foveated_rendering = true;
  bool distance_aware = true;
  bool occlusion_aware = false;  ///< not adopted by FaceTime (§4.4)

  double foveal_radius_deg = 20.0;    ///< eccentricity beyond which peripheral LOD applies
  double distance_threshold_m = 3.0;  ///< beyond this, distance LOD applies
  double distance_fraction = 45036.0 / 78030.0;
  double peripheral_fraction = 21036.0 / 78030.0;
};

/// Selects the LOD class for one persona this frame.
LodClass SelectLod(const Visibility& visibility, const LodPolicy& policy);

/// A persona's enrollment mesh and the triangle count of each LOD class.
/// Construction runs the real simplifier, so the counts are what clustering
/// actually achieves for the requested fractions. Only the counts feed the
/// cost model, so the simplified meshes and the proxy are never kept.
class PersonaLodLadder {
 public:
  /// Builds a ladder from scratch for persona `seed`: generates the base
  /// mesh and counts the triangles of its two simplified levels per
  /// `policy` and of its 36-triangle proxy.
  PersonaLodLadder(std::uint64_t seed, const LodPolicy& policy,
                   std::size_t base_triangles = mesh::kPersonaTriangles);

  /// Triangles rendered when the persona is drawn at `lod`.
  std::size_t TriangleCount(LodClass lod) const {
    return triangles_[static_cast<std::size_t>(lod)];
  }

  const mesh::TriangleMesh& base() const { return full_; }

 private:
  mesh::TriangleMesh full_;
  std::array<std::size_t, 5> triangles_;  ///< indexed by LodClass
};

}  // namespace vtp::render
