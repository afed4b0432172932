// Receiver-side persona reconstruction from semantic keypoints.
//
// Vision Pro pre-captures a persona (the enrollment scan); at call time the
// receiver deforms that base mesh from the delivered mouth/eye/hand
// keypoints (§4.3: "the receiver reconstructs the 3D representation using
// the received data"). Blendshape-style: each vertex near a keypoint
// follows a distance-weighted blend of keypoint displacements from the
// neutral pose. If semantics stop arriving there is nothing to deform with
// — the "poor connection" failure mode the paper triggers below 700 Kbps.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mesh/mesh.h"
#include "semantic/keypoints.h"

namespace vtp::semantic {

/// Deformation tunables. PersonaReconstructor throws std::invalid_argument
/// unless `influence_sigma_m` is finite and positive and `max_influence_m`
/// is non-negative.
struct ReconstructorConfig {
  float influence_sigma_m = 0.02f;  ///< Gaussian falloff of keypoint pull
  float max_influence_m = 0.05f;    ///< vertices farther than this are static
  std::size_t max_influences = 4;   ///< keypoints blended per vertex
};

/// Deforms a pre-captured base persona from incoming semantic frames.
class PersonaReconstructor {
 public:
  /// `base` is the enrollment mesh in persona-local coordinates (as from
  /// mesh::GeneratePersona); influence weights are precomputed against the
  /// neutral keypoint layout.
  explicit PersonaReconstructor(mesh::TriangleMesh base, ReconstructorConfig config = {});

  /// Applies one semantic frame (exactly kSemanticPoints points, in
  /// ExtractSemanticSubset order). Returns the deformed mesh; the reference
  /// stays valid until the next Apply call.
  const mesh::TriangleMesh& Apply(std::span<const Vec3> points);

  /// The most recent reconstruction (base pose before any Apply).
  const mesh::TriangleMesh& current() const { return current_; }

  /// Number of vertices that move with the keypoints (animated region).
  std::size_t influenced_vertex_count() const { return influences_.size(); }

 private:
  struct VertexInfluence {
    std::uint32_t vertex;
    std::array<std::uint16_t, 4> keypoint;
    std::array<float, 4> weight;  // normalized; unused slots zero
    Vec3 base;                    // the vertex's enrollment position
  };

  // Starts as the base mesh; Apply rewrites only the influenced vertices,
  // whose base positions live in `influences_`.
  mesh::TriangleMesh current_;
  std::vector<Vec3> neutral_points_;
  std::vector<VertexInfluence> influences_;
};

}  // namespace vtp::semantic
