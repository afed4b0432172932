#include "render/lod.h"

#include "mesh/simplify.h"

namespace vtp::render {

LodClass SelectLod(const Visibility& v, const LodPolicy& policy) {
  if (policy.occlusion_aware && v.occluded) return LodClass::kCulledOccluded;
  if (policy.viewport_adaptation && !v.in_viewport) return LodClass::kProxy;
  if (policy.foveated_rendering && v.eccentricity_deg > policy.foveal_radius_deg) {
    return LodClass::kPeripheral;
  }
  if (policy.distance_aware && v.distance_m > policy.distance_threshold_m) {
    return LodClass::kDistance;
  }
  return LodClass::kFull;
}

namespace {

/// Triangles of the out-of-viewport proxy: one bounding box (12 triangles)
/// per persona component, head + two hands = 3 x 12 = 36. We approximate
/// component separation by splitting the persona at the hand offsets' x
/// extent.
std::size_t ProxyTriangleCount(const mesh::TriangleMesh& persona) {
  constexpr std::size_t kBoxTriangles = 12;
  bool head = false, left = false, right = false;
  for (const mesh::Vec3& p : persona.positions) {
    if (p.x < -0.15f) {
      left = true;
    } else if (p.x > 0.15f) {
      right = true;
    } else {
      head = true;
    }
  }
  return kBoxTriangles * (std::size_t{head} + std::size_t{left} + std::size_t{right});
}

}  // namespace

PersonaLodLadder::PersonaLodLadder(std::uint64_t seed, const LodPolicy& policy,
                                   std::size_t base_triangles)
    : full_(mesh::GeneratePersona(seed, base_triangles)),
      triangles_{full_.triangle_count(),
                 mesh::SimplifiedTriangleCount(full_, policy.distance_fraction),
                 mesh::SimplifiedTriangleCount(full_, policy.peripheral_fraction),
                 ProxyTriangleCount(full_), 0} {}

}  // namespace vtp::render
