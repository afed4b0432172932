// Frame-lifecycle tracing: one span per (persona, receiver, frame_seq)
// stamping capture -> encode -> send -> SFU relay -> deliver -> decode ->
// playout in net::SimTime, so Figure-4/6-style per-stage latency breakdowns
// fall out of one query instead of bench-side bookkeeping.
//
// Memory model (zero steady-state allocation, matching PRs 1-3):
//   * sender-side stamps land in a pooled per-persona ring keyed by
//     seq % ring_slots — capture/encode/send happen before the frame fans
//     out, and one sent frame completes once per receiver, so the ring is
//     written once and read N-1 times;
//   * the SFU stamps the relay instant into the same ring by parsing the
//     frame index that the semantic codec already puts in the clear
//     (tag byte + uleb128 — no wire-format change);
//   * the receiver's decode path completes the span, copying the ring entry
//     plus deliver/decode/playout stamps into a vector reserved at Enable();
//     past capacity, spans are counted as dropped rather than reallocating.
//
// The tracer is owned by the Simulator next to the MetricRegistry and is off
// by default: every stamp site checks `enabled()` first (one predictable
// branch), so idle cost is negligible. Sessions enable it from
// SessionConfig::trace_frames.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "netsim/time.h"
#include "obs/metrics.h"

namespace vtp::obs {

/// Lifecycle stages, in pipeline order. In sim time, capture/encode/send
/// share the sender's tick instant and deliver/decode/playout share the
/// receiver's delivery instant; the stages that separate them (uplink to the
/// SFU, SFU to receiver) carry the simulated network latency.
enum class Stage : std::uint8_t {
  kCapture = 0,
  kEncode,
  kSend,
  kSfuRelay,
  kDeliver,
  kDecode,
  kPlayout,
};
inline constexpr int kStageCount = 7;

const char* StageName(Stage s);

/// One completed frame journey from a sender persona to one receiver.
/// `mask` has bit (1 << stage) set for every stamped stage; `t[stage]` is
/// only meaningful when the bit is set.
struct FrameSpan {
  std::uint64_t seq = 0;
  std::uint8_t persona = 0;
  std::uint8_t receiver = 0;
  std::uint8_t mask = 0;
  net::SimTime t[kStageCount] = {};

  bool has(Stage s) const { return (mask >> static_cast<int>(s)) & 1; }
  net::SimTime at(Stage s) const { return t[static_cast<int>(s)]; }
};

class FrameTracer {
 public:
  static constexpr std::size_t kMaxPersonas = 16;
  static constexpr std::size_t kDefaultRingSlots = 512;

  /// Arms the tracer: pre-allocates the source rings and reserves room for
  /// `max_spans` completed spans (~80 B each). Idempotent; a second call
  /// only grows the reservation.
  void Enable(std::size_t max_spans, std::size_t ring_slots = kDefaultRingSlots);
  bool enabled() const { return enabled_; }

  /// Sender-side (receiver-independent) stamp: capture/encode/send from the
  /// sending pipeline, kSfuRelay from the SFU. Stamps for a seq lazily
  /// recycle the ring slot of seq - ring_slots.
  void StampSource(std::uint8_t persona, std::uint64_t seq, Stage stage, net::SimTime t);

  /// Receiver-side completion: folds the source stamps for (persona, seq)
  /// together with the delivery-instant stamps into one FrameSpan.
  /// `playout` < 0 means the frame was decoded but not reconstructed this
  /// stride (no playout stamp).
  void Complete(std::uint8_t persona, std::uint8_t receiver, std::uint64_t seq,
                net::SimTime deliver, net::SimTime decode, net::SimTime playout);

  const std::vector<FrameSpan>& spans() const { return spans_; }
  /// Completions past the Enable() reservation (dropped, not recorded).
  std::uint64_t dropped_spans() const { return dropped_; }
  /// Completions whose source stamps were already recycled (span recorded
  /// with receiver-side stamps only).
  std::uint64_t orphan_completions() const { return orphans_; }

  /// End-to-end latency histogram (capture -> playout/decode), milliseconds,
  /// folded on every completion.
  const Histogram& e2e_ms() const { return e2e_ms_; }

  /// Per-stage-pair latency series in milliseconds, computed on demand from
  /// the recorded spans. A span contributes to a series only when both of
  /// its stamps are present.
  struct StageSeries {
    std::string label;
    Stage from;
    Stage to;
    std::vector<double> ms;
  };
  std::vector<StageSeries> Breakdown() const;

 private:
  struct SourceSlot {
    std::uint64_t seq = ~std::uint64_t{0};
    std::uint8_t mask = 0;
    net::SimTime t[kStageCount] = {};
  };

  bool enabled_ = false;
  std::size_t ring_slots_ = 0;
  std::vector<SourceSlot> rings_;  // kMaxPersonas * ring_slots_
  std::vector<FrameSpan> spans_;
  std::uint64_t dropped_ = 0;
  std::uint64_t orphans_ = 0;
  Histogram e2e_ms_;
};

}  // namespace vtp::obs
