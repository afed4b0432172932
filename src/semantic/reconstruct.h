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

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mesh/mesh.h"
#include "semantic/keypoints.h"

namespace vtp::semantic {

/// Deformation tunables. ReconstructorRig throws std::invalid_argument
/// unless `influence_sigma_m` is finite and positive and `max_influence_m`
/// is non-negative.
struct ReconstructorConfig {
  float influence_sigma_m = 0.02f;  ///< Gaussian falloff of keypoint pull
  float max_influence_m = 0.05f;    ///< vertices farther than this are static
  std::size_t max_influences = 4;   ///< keypoints blended per vertex
};

/// The immutable half of a reconstructor: the enrollment mesh, the neutral
/// keypoint layout and the per-vertex influence table precomputed against
/// it. Building one walks every vertex against every keypoint, so a
/// session builds one per persona and shares it among that persona's
/// receivers; each receiver keeps only its own deformed mesh.
class ReconstructorRig {
 public:
  /// `base` is the enrollment mesh in persona-local coordinates (as from
  /// mesh::GeneratePersona). The rig shares ownership of it.
  explicit ReconstructorRig(std::shared_ptr<const mesh::TriangleMesh> base,
                            ReconstructorConfig config = {});

  const mesh::TriangleMesh& base() const { return *base_; }

  /// Number of vertices that move with the keypoints (animated region).
  std::size_t influenced_vertex_count() const { return influences_.size(); }

 private:
  friend class PersonaReconstructor;

  struct VertexInfluence {
    std::uint32_t vertex;
    std::array<std::uint16_t, 4> keypoint;
    std::array<float, 4> weight;  // normalized; unused slots zero
    Vec3 base;                    // the vertex's enrollment position
  };

  std::shared_ptr<const mesh::TriangleMesh> base_;
  std::vector<Vec3> neutral_points_;
  std::vector<VertexInfluence> influences_;
};

/// A persona's rig, built on first use. Every receiver of one persona
/// holds the same LazyRig, so the rig is built once per persona, and only
/// if some receiver reconstructs that persona.
class LazyRig {
 public:
  explicit LazyRig(std::shared_ptr<const mesh::TriangleMesh> base,
                   ReconstructorConfig config = {})
      : base_(std::move(base)), config_(config) {}

  /// The rig, built on the first call.
  const std::shared_ptr<const ReconstructorRig>& Get();

 private:
  std::shared_ptr<const mesh::TriangleMesh> base_;
  ReconstructorConfig config_;
  std::shared_ptr<const ReconstructorRig> rig_;
};

/// Deforms a pre-captured base persona from incoming semantic frames.
class PersonaReconstructor {
 public:
  /// Builds a rig of its own for `base` (see ReconstructorRig).
  explicit PersonaReconstructor(mesh::TriangleMesh base, ReconstructorConfig config = {});

  /// Deforms a copy of `rig`'s base mesh; the rig may be shared with other
  /// reconstructors.
  explicit PersonaReconstructor(std::shared_ptr<const ReconstructorRig> rig);

  /// Applies one semantic frame (exactly kSemanticPoints points, in
  /// ExtractSemanticSubset order). Returns the deformed mesh; the reference
  /// stays valid until the next Apply call.
  const mesh::TriangleMesh& Apply(std::span<const Vec3> points);

  /// The most recent reconstruction (base pose before any Apply).
  const mesh::TriangleMesh& current() const { return current_; }

  /// Number of vertices that move with the keypoints (animated region).
  std::size_t influenced_vertex_count() const { return rig_->influenced_vertex_count(); }

 private:
  std::shared_ptr<const ReconstructorRig> rig_;
  // Starts as the base mesh; Apply rewrites only the influenced vertices,
  // whose base positions live in the rig.
  mesh::TriangleMesh current_;
};

}  // namespace vtp::semantic
