// Sharded conservative-lookahead simulation fabric.
//
// The fleet-scale benches partition the backbone's metros across N shards,
// each a plain single-threaded net::Simulator (timer wheel + slab event pool
// + its own metric registry) running on its own thread. Shards advance in
// lockstep windows of the *lookahead* — the minimum propagation delay over
// all cross-shard links — because a packet transmitted during one window
// cannot arrive anywhere off-shard before the next window starts. Cross-
// shard hops ride per-shard-pair SPSC mailboxes as plain FleetHop records
// (the fleet model carries sizes and timestamps, not payload bytes, so a
// handoff is a 40-byte copy — no allocation, no shared blocks) and are
// ingested at window boundaries in a deterministic total order.
//
// Delivery runs without per-hop Simulator events (DESIGN §13). Hops
// accumulate in the (arrive, key) heap and DrainUpTo(bound) executes them in
// that exact order, offering each to its link at the hop's *logical* instant
// (DirectedLink::PlanTransmitAt). Drains happen at model bin ticks, at window
// boundaries (before the mailbox exchange), at the start of every
// fault-transition event (so state mutations never reorder against in-flight
// hops), and at the end of the run.
//
// Every shard count executes the identical hop sequence against identical
// link state, so every counter, histogram observation, and RNG draw — and
// therefore the merged obs::Snapshot digest — is bit-identical across shard
// counts (pinned by test_fleet.cc and the bench_fleet smoke).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/spsc.h"
#include "netsim/event_queue.h"
#include "netsim/link.h"
#include "netsim/packet.h"

namespace vtp::net {

/// Forwarding delay a fabric hop adds at each metro router (matches
/// Network::kHopProcessingDelay).
inline constexpr SimTime kFabricHopDelay = Micros(50);

/// Addressing and ordering metadata for one frame copy traversing the
/// fabric. `key` is a model-assigned flow key, unique per in-flight copy; it
/// breaks ties between hops due at the same instant, which is what keeps
/// execution order independent of the shard count. The fleet model is
/// metrics-only, so the record carries the wire size and the send timestamp
/// instead of payload bytes — hops cross shard boundaries by value.
struct FleetHop {
  SimTime arrive = 0;     ///< when this copy is due at metro `at`
  std::uint64_t key = 0;  ///< deterministic total-order tiebreak
  SimTime send_ts = 0;    ///< sender-side capture instant (e2e latency)
  std::uint32_t session = 0;
  std::uint32_t seq = 0;
  std::uint32_t bytes = 0;  ///< payload size; wire adds kIpUdpOverheadBytes
  std::uint8_t at = 0;      ///< metro currently holding the packet
  std::uint8_t dst = 0;     ///< destination metro
  std::uint8_t leg = 0;     ///< model tag (fleet: 0 = uplink, 1 = SFU fan-out)
  std::uint8_t part = 0;    ///< model tag (sending participant)
};

/// One directed shard-pair mailbox: an SPSC ring with a mutex-guarded spill
/// lane so a burst larger than the ring loses nothing (spills are counted;
/// they cost a lock, not correctness). Producers push during run windows;
/// the consumer drains between window barriers, while every producer is
/// parked — so a drain observes exactly the records of the closed window.
class ShardMailbox {
 public:
  explicit ShardMailbox(std::size_t capacity = 1 << 14) : ring_(capacity) {}

  void Push(const FleetHop& hop) {
    if (ring_.TryPush(FleetHop(hop))) return;
    std::lock_guard<std::mutex> lock(spill_mutex_);
    spill_.push_back(hop);
    spilled_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Consumer side; requires the producer to be quiescent (between
  /// barriers). Appends in push order.
  void DrainInto(std::vector<FleetHop>* out) {
    FleetHop hop;
    while (ring_.TryPop(&hop)) out->push_back(hop);
    std::lock_guard<std::mutex> lock(spill_mutex_);
    for (const FleetHop& h : spill_) out->push_back(h);
    spill_.clear();
  }

  std::uint64_t spilled() const { return spilled_.load(std::memory_order_relaxed); }

 private:
  core::SpscRing<FleetHop> ring_;
  std::mutex spill_mutex_;
  std::vector<FleetHop> spill_;
  std::atomic<std::uint64_t> spilled_{0};
};

/// A duplex fabric edge between two metros. `config.prop_delay` must be the
/// one-way propagation delay; it doubles as the conservative-lookahead bound
/// when the edge crosses shards.
struct FabricEdge {
  int a = 0;
  int b = 0;
  LinkConfig config;
};

/// The static description of a sharded backbone: metros, duplex edges,
/// shortest-path routes, and the partitioning / lookahead rules. Immutable
/// after construction and shared (const) by every shard.
class FabricTopology {
 public:
  FabricTopology(std::size_t metro_count, std::vector<FabricEdge> edges);

  /// The built-in 19-metro backbone (geo::MetroDb + BackboneEdges), with
  /// per-edge propagation from FiberDelay.
  static FabricTopology Backbone(double rate_bps = 100e9);

  std::size_t metro_count() const { return metro_count_; }
  const std::vector<FabricEdge>& edges() const { return edges_; }

  /// Next metro on the shortest-propagation-delay path (-1 if unreachable).
  int next_hop(int from, int to) const {
    return next_hop_[static_cast<std::size_t>(from)][static_cast<std::size_t>(to)];
  }
  SimTime path_delay(int from, int to) const {
    return dist_[static_cast<std::size_t>(from)][static_cast<std::size_t>(to)];
  }

  /// Splits the metros into `shards` contiguous groups of roughly equal
  /// weight (default weight 1 per metro; the fleet passes 0 for metros that
  /// host no sessions so idle metros don't claim a shard). Metros joined by
  /// a zero-propagation-delay edge are auto-assigned to one shard first —
  /// such an edge has no lookahead and must never cross shards. Returns
  /// owner[metro] in [0, shards).
  std::vector<int> Partition(int shards, const std::vector<double>* weights = nullptr) const;

  /// Validates an explicit owner map: every metro assigned, and no
  /// zero-propagation-delay edge crossing shards. Throws
  /// std::invalid_argument with the offending edge otherwise.
  void ValidatePartition(const std::vector<int>& owner) const;

  /// The conservative lookahead of a partition: the minimum propagation
  /// delay over all cross-shard edges, i.e. how far every shard may run
  /// ahead of its neighbours between mailbox exchanges. Returns `horizon`
  /// when no edge crosses shards (single shard: one window).
  SimTime Lookahead(const std::vector<int>& owner, SimTime horizon) const;

 private:
  std::size_t metro_count_;
  std::vector<FabricEdge> edges_;
  std::vector<std::vector<int>> next_hop_;
  std::vector<std::vector<SimTime>> dist_;
};

/// One shard: a Simulator owning the *entire* backbone's DirectedLinks
/// (built in identical order in every shard so metric scopes align; only the
/// owned partition ever carries traffic) plus the hop heap that orders
/// metro-to-metro continuations. The model layers on top via set_deliver
/// (hops reaching their destination metro) and drives traffic in with
/// PushHop; the parallel runner wires set_post to the mailboxes and pushes
/// their records at window boundaries.
class FabricShard {
 public:
  using DeliverFn = std::function<void(const FleetHop&)>;
  using PostFn = std::function<void(int dst_shard, const FleetHop&)>;

  /// Queued hops run only when the owner calls DrainUpTo at its drain
  /// points (see the file comment).
  FabricShard(const FabricTopology* topo, const std::vector<int>* owner, int shard_id,
              std::uint64_t seed);

  Simulator& sim() { return sim_; }
  int shard_id() const { return shard_id_; }
  bool owns(int metro) const { return (*owner_)[static_cast<std::size_t>(metro)] == shard_id_; }
  int owner_of(int metro) const { return (*owner_)[static_cast<std::size_t>(metro)]; }

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void set_post(PostFn fn) { post_ = std::move(fn); }

  /// Queues a hop due at `hop.arrive` at a metro this shard owns: the
  /// model's traffic entry point, and where the runner adopts mailbox
  /// records at window boundaries (consumer thread only).
  void PushHop(const FleetHop& hop);

  /// Executes every queued hop with arrive <= `bound` in (arrive, key)
  /// order, offering each to its link at the hop's logical instant;
  /// continuations landing inside the bound run in the same call. Exact for
  /// any bound <= sim().now(): every hop with arrive <= bound is already
  /// queued (pushes are strictly future-dated from their cause).
  void DrainUpTo(SimTime bound);

  /// The directed link `a`->`b` (owned by whichever shard owns `a`; every
  /// shard holds an identically-scoped instance). Throws on a non-edge.
  DirectedLink& link(int a, int b);

  /// Schedules a netem-style flap (100% loss during [at, at+duration)) on
  /// the directed boundary link a->b. Only the shard owning `a` — the
  /// transmitting side, where the link's queue lives — arms anything, so
  /// the flap fires exactly once regardless of shard count. Returns whether
  /// this shard armed it. Every fault transition drains the hop heap
  /// strictly below its instant first, so hops due exactly at the
  /// transition see the post-transition state.
  bool ScheduleFlap(int a, int b, SimTime at, SimTime duration);

  /// Arms a Gilbert–Elliott burst-loss episode on the directed link a->b
  /// during [at, at+duration). Owner-armed like ScheduleFlap.
  bool ScheduleBurstLoss(int a, int b, SimTime at, SimTime duration,
                         const BurstLossConfig& config);

  /// Arms a stepped rate-cap ramp on the directed link a->b: `steps` equal
  /// intervals across [at, at+duration) interpolating from_bps -> to_bps,
  /// with the cap cleared at at+duration. Owner-armed like ScheduleFlap.
  bool ScheduleRateRamp(int a, int b, SimTime at, SimTime duration, double from_bps,
                        double to_bps, int steps);

  /// Hops executed by this shard (local + ingested); shard-count invariant
  /// in aggregate.
  std::uint64_t hops_processed() const { return hops_processed_; }
  /// Records posted to other shards' mailboxes (0 for a single shard).
  std::uint64_t handoffs_posted() const { return handoffs_posted_; }
  /// Hops still queued (nonzero after a run means the drain horizon was too
  /// short for in-flight traffic).
  std::size_t hops_pending() const { return hops_.size(); }

 private:
  /// Min-first over (arrive, key) — the fabric's deterministic total order.
  struct HopLater {
    bool operator()(const FleetHop& x, const FleetHop& y) const {
      return x.arrive != y.arrive ? x.arrive > y.arrive : x.key > y.key;
    }
  };

  /// Delivers one hop, or forwards it over its next link and routes the
  /// copies that survive.
  void ProcessHop(const FleetHop& hop);
  /// Heap-queues a forwarded copy, or mails it to the shard owning its metro.
  void Route(const FleetHop& hop);

  const FabricTopology* topo_;
  const std::vector<int>* owner_;
  int shard_id_;
  Simulator sim_;
  std::vector<std::unique_ptr<DirectedLink>> links_;  ///< 2 per edge, [2i]=a->b, [2i+1]=b->a
  std::vector<std::unique_ptr<Rng>> link_rngs_;       ///< per directed link, logical-id seeded
  std::vector<int> link_index_;                       ///< [a * metros + b] -> links_ index
  std::vector<FleetHop> hops_;                        ///< binary heap under HopLater
  DeliverFn deliver_;
  PostFn post_;
  obs::Counter* flap_transitions_ = nullptr;
  obs::Counter* fault_transitions_ = nullptr;
  std::uint64_t hops_processed_ = 0;
  std::uint64_t handoffs_posted_ = 0;
};

}  // namespace vtp::net
