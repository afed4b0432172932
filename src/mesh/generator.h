// Procedural persona meshes.
//
// The paper measures meshes of human heads from Sketchfab (~70-90 K
// triangles) and personas of 78,030 triangles (§4.3). We cannot ship scans,
// so this generator produces organic head-like meshes (noised ellipsoid with
// facial features) and simple hand meshes at a requested triangle budget;
// the codec and rendering experiments only depend on triangle count and on
// smooth, scan-like geometry, both of which the generator controls.
#pragma once

#include <cstdint>

#include "mesh/mesh.h"

namespace vtp::mesh {

/// Triangle count a Vision Pro spatial persona reports in RealityKit (§4.3).
inline constexpr std::size_t kPersonaTriangles = 78030;

/// Generates a head-like mesh with approximately `target_triangles`
/// triangles (exact count within ~1%). `seed` varies the organic detail so
/// distinct "users"/"scans" differ.
TriangleMesh GenerateHead(std::size_t target_triangles, std::uint64_t seed);

/// Generates a hand-like mesh: a flattened, noised ellipsoid (the palm) with
/// five finger-like ridges raised along one edge.
TriangleMesh GenerateHand(std::size_t target_triangles, std::uint64_t seed);

/// A full spatial persona: head plus two hands, budgeted to `target`
/// triangles overall (defaults to the RealityKit-reported count).
TriangleMesh GeneratePersona(std::uint64_t seed, std::size_t target = kPersonaTriangles);

}  // namespace vtp::mesh
