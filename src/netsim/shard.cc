#include "netsim/shard.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "netsim/geo.h"
#include "netsim/random.h"

namespace vtp::net {
namespace {

constexpr SimTime kUnreachable = std::numeric_limits<SimTime>::max() / 4;

int FindRoot(std::vector<int>& parent, int x) {
  while (parent[static_cast<std::size_t>(x)] != x) {
    parent[static_cast<std::size_t>(x)] =
        parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
    x = parent[static_cast<std::size_t>(x)];
  }
  return x;
}

}  // namespace

FabricTopology::FabricTopology(std::size_t metro_count, std::vector<FabricEdge> edges)
    : metro_count_(metro_count), edges_(std::move(edges)) {
  for (const FabricEdge& e : edges_) {
    if (e.a < 0 || e.b < 0 || static_cast<std::size_t>(e.a) >= metro_count_ ||
        static_cast<std::size_t>(e.b) >= metro_count_ || e.a == e.b) {
      throw std::invalid_argument("FabricTopology: edge endpoints out of range");
    }
    if (e.config.prop_delay < 0) {
      throw std::invalid_argument("FabricTopology: negative propagation delay");
    }
  }
  const std::size_t n = metro_count_;
  dist_.assign(n, std::vector<SimTime>(n, kUnreachable));
  next_hop_.assign(n, std::vector<int>(n, -1));
  for (std::size_t i = 0; i < n; ++i) {
    dist_[i][i] = 0;
    next_hop_[i][i] = static_cast<int>(i);
  }
  for (const FabricEdge& e : edges_) {
    const auto a = static_cast<std::size_t>(e.a);
    const auto b = static_cast<std::size_t>(e.b);
    if (e.config.prop_delay < dist_[a][b]) {
      dist_[a][b] = dist_[b][a] = e.config.prop_delay;
      next_hop_[a][b] = e.b;
      next_hop_[b][a] = e.a;
    }
  }
  // Floyd–Warshall with strict improvement: ties resolve to the first route
  // found in deterministic iteration order, so every shard (and every run)
  // computes the identical route table.
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (dist_[i][k] >= kUnreachable) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (dist_[k][j] >= kUnreachable) continue;
        const SimTime through = dist_[i][k] + dist_[k][j];
        if (through < dist_[i][j]) {
          dist_[i][j] = through;
          next_hop_[i][j] = next_hop_[i][k];
        }
      }
    }
  }
}

FabricTopology FabricTopology::Backbone(double rate_bps) {
  const std::vector<Metro>& metros = MetroDb();
  std::vector<FabricEdge> edges;
  edges.reserve(BackboneEdges().size());
  for (const auto& [a, b] : BackboneEdges()) {
    LinkConfig config;
    config.rate_bps = rate_bps;
    config.prop_delay = FiberDelay(metros[a].location, metros[b].location);
    config.queue_limit_bytes = 8 * 1024 * 1024;
    edges.push_back({static_cast<int>(a), static_cast<int>(b), config});
  }
  return FabricTopology(metros.size(), std::move(edges));
}

std::vector<int> FabricTopology::Partition(int shards,
                                           const std::vector<double>* weights) const {
  if (shards < 1) throw std::invalid_argument("FabricTopology::Partition: shards < 1");
  if (weights != nullptr && weights->size() != metro_count_) {
    throw std::invalid_argument("FabricTopology::Partition: weights size mismatch");
  }
  const std::size_t n = metro_count_;
  // Metros bridged by a zero-propagation-delay edge have no lookahead between
  // them; union them so they always land in one shard.
  std::vector<int> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  for (const FabricEdge& e : edges_) {
    if (e.config.prop_delay != 0) continue;
    const int ra = FindRoot(parent, e.a);
    const int rb = FindRoot(parent, e.b);
    if (ra != rb) parent[static_cast<std::size_t>(std::max(ra, rb))] = std::min(ra, rb);
  }
  double total = 0;
  for (std::size_t m = 0; m < n; ++m) total += weights != nullptr ? (*weights)[m] : 1.0;

  // Contiguous chunks of roughly equal weight: walk metros in index order,
  // assign each union-find group when its first member appears, and advance
  // to the next shard once the running weight passes the next equal cut.
  std::vector<int> owner(n, -1);
  int shard = 0;
  double acc = 0;
  for (std::size_t m = 0; m < n; ++m) {
    const int root = FindRoot(parent, static_cast<int>(m));
    if (owner[static_cast<std::size_t>(root)] >= 0) {
      owner[m] = owner[static_cast<std::size_t>(root)];
      continue;
    }
    owner[static_cast<std::size_t>(root)] = shard;
    owner[m] = shard;
    acc += weights != nullptr ? (*weights)[m] : 1.0;
    while (shard < shards - 1 && acc >= total * (shard + 1) / shards) ++shard;
  }
  ValidatePartition(owner);
  return owner;
}

void FabricTopology::ValidatePartition(const std::vector<int>& owner) const {
  if (owner.size() != metro_count_) {
    throw std::invalid_argument("FabricTopology: owner map size != metro count");
  }
  for (std::size_t m = 0; m < metro_count_; ++m) {
    if (owner[m] < 0) {
      throw std::invalid_argument("FabricTopology: metro " + std::to_string(m) + " unassigned");
    }
  }
  for (const FabricEdge& e : edges_) {
    if (e.config.prop_delay == 0 &&
        owner[static_cast<std::size_t>(e.a)] != owner[static_cast<std::size_t>(e.b)]) {
      throw std::invalid_argument(
          "FabricTopology: zero-propagation-delay edge " + std::to_string(e.a) + "<->" +
          std::to_string(e.b) +
          " crosses shards; co-locate both metros (Partition() does this automatically)");
    }
  }
}

SimTime FabricTopology::Lookahead(const std::vector<int>& owner, SimTime horizon) const {
  ValidatePartition(owner);
  SimTime lookahead = horizon;
  for (const FabricEdge& e : edges_) {
    if (owner[static_cast<std::size_t>(e.a)] == owner[static_cast<std::size_t>(e.b)]) continue;
    lookahead = std::min(lookahead, e.config.prop_delay);
  }
  if (lookahead <= 0) {
    throw std::invalid_argument("FabricTopology: partition has zero lookahead");
  }
  return lookahead;
}

FabricShard::FabricShard(const FabricTopology* topo, const std::vector<int>* owner, int shard_id,
                         std::uint64_t seed)
    : topo_(topo),
      owner_(owner),
      shard_id_(shard_id),
      sim_(DeriveSeed(seed, RngDomain::kShardCore, static_cast<std::uint64_t>(shard_id))) {
  topo_->ValidatePartition(*owner_);
  const std::size_t n = topo_->metro_count();
  link_index_.assign(n * n, -1);
  links_.reserve(topo_->edges().size() * 2);
  link_rngs_.reserve(topo_->edges().size() * 2);
  // Every shard instantiates the FULL backbone in identical order with
  // explicit scopes: metric names line up across all per-shard registries
  // (non-owned links just stay at zero), so merged snapshots are independent
  // of the shard count. Each directed link draws faults from a stream seeded
  // by its logical id for the same reason.
  for (std::size_t i = 0; i < topo_->edges().size(); ++i) {
    const FabricEdge& e = topo_->edges()[i];
    const std::string base = "fabric.e" + std::to_string(i);
    for (int dir = 0; dir < 2; ++dir) {
      const int from = dir == 0 ? e.a : e.b;
      const int to = dir == 0 ? e.b : e.a;
      links_.push_back(std::make_unique<DirectedLink>(&sim_, e.config,
                                                      base + (dir == 0 ? ".f" : ".r")));
      link_rngs_.push_back(std::make_unique<Rng>(
          DeriveSeed(seed, RngDomain::kLinkFaults, static_cast<std::uint64_t>(2 * i + dir))));
      links_.back()->set_fault_rng(link_rngs_.back().get());
      link_index_[static_cast<std::size_t>(from) * n + static_cast<std::size_t>(to)] =
          static_cast<int>(links_.size()) - 1;
    }
  }
  flap_transitions_ = sim_.metrics().NewCounter("fabric.flap_transitions");
  fault_transitions_ = sim_.metrics().NewCounter("fabric.fault_transitions");
}

DirectedLink& FabricShard::link(int a, int b) {
  const std::size_t n = topo_->metro_count();
  const int idx = link_index_[static_cast<std::size_t>(a) * n + static_cast<std::size_t>(b)];
  if (idx < 0) {
    throw std::invalid_argument("FabricShard: no edge " + std::to_string(a) + "->" +
                                std::to_string(b));
  }
  return *links_[static_cast<std::size_t>(idx)];
}

void FabricShard::PushHop(const FleetHop& hop) {
  hops_.push_back(hop);
  std::push_heap(hops_.begin(), hops_.end(), HopLater{});
}

void FabricShard::DrainUpTo(SimTime bound) {
  while (!hops_.empty() && hops_.front().arrive <= bound) {
    std::pop_heap(hops_.begin(), hops_.end(), HopLater{});
    const FleetHop due = hops_.back();
    hops_.pop_back();
    ProcessHop(due);
  }
}

void FabricShard::ProcessHop(const FleetHop& hop) {
  ++hops_processed_;
  if (hop.at == hop.dst) {
    if (deliver_) deliver_(hop);
    return;
  }
  const int next = topo_->next_hop(hop.at, hop.dst);
  if (next < 0) return;  // unreachable: drop
  // Offer the frame to the link at the hop's logical instant. The clock may
  // be ahead of it, but offers happen in global (arrive, key) order, so the
  // link sees the same offer sequence at any shard count.
  const DirectedLink::TxPlan plan =
      link(hop.at, next).PlanTransmitAt(hop.arrive, hop.bytes + kIpUdpOverheadBytes);
  if (plan.dropped) return;
  FleetHop cont = hop;
  cont.at = static_cast<std::uint8_t>(next);
  if (plan.duplicated) {
    FleetHop dup = cont;
    dup.arrive = plan.dup_arrive + kFabricHopDelay;
    Route(dup);
  }
  cont.arrive = plan.arrive + kFabricHopDelay;
  Route(cont);
}

void FabricShard::Route(const FleetHop& hop) {
  const int dst_shard = owner_of(hop.at);
  if (dst_shard == shard_id_) {
    PushHop(hop);
    return;
  }
  ++handoffs_posted_;
  post_(dst_shard, hop);
}

bool FabricShard::ScheduleFlap(int a, int b, SimTime at, SimTime duration) {
  DirectedLink& flapped = link(a, b);  // validates the edge in every shard
  if (!owns(a)) return false;
  // Drain strictly below the transition instant before mutating: hops due
  // exactly at the instant then see the post-transition state.
  sim_.At(at, [this, &flapped] {
    DrainUpTo(sim_.now() - 1);
    flapped.set_extra_loss(1.0);
    flap_transitions_->Inc();
  });
  sim_.At(at + duration, [this, &flapped] {
    DrainUpTo(sim_.now() - 1);
    flapped.set_extra_loss(0.0);
    flap_transitions_->Inc();
  });
  return true;
}

bool FabricShard::ScheduleBurstLoss(int a, int b, SimTime at, SimTime duration,
                                    const BurstLossConfig& config) {
  DirectedLink& lossy = link(a, b);
  if (!owns(a)) return false;
  sim_.At(at, [this, &lossy, config] {
    DrainUpTo(sim_.now() - 1);
    lossy.set_burst_loss(config);
    fault_transitions_->Inc();
  });
  sim_.At(at + duration, [this, &lossy] {
    DrainUpTo(sim_.now() - 1);
    lossy.set_burst_loss(std::nullopt);
    fault_transitions_->Inc();
  });
  return true;
}

bool FabricShard::ScheduleRateRamp(int a, int b, SimTime at, SimTime duration, double from_bps,
                                   double to_bps, int steps) {
  if (steps < 1) throw std::invalid_argument("FabricShard::ScheduleRateRamp: steps < 1");
  DirectedLink& ramped = link(a, b);
  if (!owns(a)) return false;
  for (int i = 0; i < steps; ++i) {
    const SimTime when = at + duration * i / steps;
    const double cap =
        steps == 1 ? from_bps : from_bps + (to_bps - from_bps) * i / (steps - 1);
    sim_.At(when, [this, &ramped, cap] {
      DrainUpTo(sim_.now() - 1);
      ramped.set_rate_cap_bps(cap);
      fault_transitions_->Inc();
    });
  }
  sim_.At(at + duration, [this, &ramped] {
    DrainUpTo(sim_.now() - 1);
    ramped.set_rate_cap_bps(std::nullopt);
    fault_transitions_->Inc();
  });
  return true;
}

}  // namespace vtp::net
