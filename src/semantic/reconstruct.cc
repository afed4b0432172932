#include "semantic/reconstruct.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vtp::semantic {

ReconstructorRig::ReconstructorRig(std::shared_ptr<const mesh::TriangleMesh> base,
                                   ReconstructorConfig config)
    : base_(std::move(base)) {
  if (!(std::isfinite(config.influence_sigma_m) && config.influence_sigma_m > 0)) {
    throw std::invalid_argument("influence_sigma_m must be finite and positive");
  }
  if (!(config.max_influence_m >= 0)) {
    throw std::invalid_argument("max_influence_m must be non-negative");
  }
  neutral_points_ = ExtractSemanticSubset(NeutralLayout());
  const float sigma2 = 2.0f * config.influence_sigma_m * config.influence_sigma_m;
  const float max_d2 = config.max_influence_m * config.max_influence_m;
  const std::size_t max_inf = std::min<std::size_t>(config.max_influences, 4);

  struct Candidate {
    float weight;
    std::uint16_t keypoint;
  };
  std::vector<Candidate> candidates;
  for (std::uint32_t vi = 0; vi < base_->positions.size(); ++vi) {
    candidates.clear();
    const Vec3 v = base_->positions[vi];
    for (std::size_t k = 0; k < neutral_points_.size(); ++k) {
      const Vec3 d = v - neutral_points_[k];
      const float d2 = d.Dot(d);
      if (d2 > max_d2) continue;
      candidates.push_back({std::exp(-d2 / sigma2), static_cast<std::uint16_t>(k)});
    }
    if (candidates.empty()) continue;
    std::partial_sort(candidates.begin(),
                      candidates.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(max_inf, candidates.size())),
                      candidates.end(),
                      [](const Candidate& a, const Candidate& b) { return a.weight > b.weight; });
    candidates.resize(std::min(max_inf, candidates.size()));

    float total = 0;
    for (const Candidate& c : candidates) total += c.weight;
    VertexInfluence inf{};
    inf.vertex = vi;
    inf.base = v;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      inf.keypoint[i] = candidates[i].keypoint;
      inf.weight[i] = candidates[i].weight / total;
    }
    influences_.push_back(inf);
  }
}

const std::shared_ptr<const ReconstructorRig>& LazyRig::Get() {
  if (!rig_) rig_ = std::make_shared<const ReconstructorRig>(base_, config_);
  return rig_;
}

PersonaReconstructor::PersonaReconstructor(mesh::TriangleMesh base, ReconstructorConfig config)
    : PersonaReconstructor(std::make_shared<const ReconstructorRig>(
          std::make_shared<const mesh::TriangleMesh>(std::move(base)), config)) {}

PersonaReconstructor::PersonaReconstructor(std::shared_ptr<const ReconstructorRig> rig)
    : rig_(std::move(rig)) {
  deformed_.reserve(rig_->influences_.size());
  for (const ReconstructorRig::VertexInfluence& inf : rig_->influences_) {
    deformed_.push_back(inf.base);
  }
}

std::span<const Vec3> PersonaReconstructor::Apply(std::span<const Vec3> points) {
  if (points.size() != kSemanticPoints) {
    throw std::invalid_argument("reconstruction requires all 74 semantic points");
  }
  const ReconstructorRig& rig = *rig_;
  // Displacements of each keypoint from its neutral position.
  std::array<Vec3, kSemanticPoints> delta;
  for (std::size_t k = 0; k < kSemanticPoints; ++k) {
    delta[k] = points[k] - rig.neutral_points_[k];
  }
  // Only influenced vertices move; everything else keeps the base pose.
  for (std::size_t j = 0; j < rig.influences_.size(); ++j) {
    const ReconstructorRig::VertexInfluence& inf = rig.influences_[j];
    Vec3 offset{};
    for (std::size_t i = 0; i < inf.weight.size(); ++i) {
      if (inf.weight[i] == 0) break;
      offset = offset + delta[inf.keypoint[i]] * inf.weight[i];
    }
    deformed_[j] = inf.base + offset;
  }
  return deformed_;
}

void PersonaReconstructor::PositionsInto(std::vector<Vec3>& out) const {
  out = rig_->base().positions;
  for (std::size_t j = 0; j < deformed_.size(); ++j) {
    out[rig_->influences_[j].vertex] = deformed_[j];
  }
}

}  // namespace vtp::semantic
