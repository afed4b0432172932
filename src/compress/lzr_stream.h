// Streaming "lzr" encoder: the per-frame compression hot path.
//
// LzrEncoder fuses LZ77 parsing and range coding: MatchFinder emits each
// token straight into the adaptive range encoder through a sink, so the
// intermediate std::vector<LzToken> of the free-function path never exists.
// The encoder owns its match-finder arena and output scratch for its whole
// lifetime — in steady state (same-sized frames, warm buffers) a Compress
// call performs **zero heap allocations**. Per-frame callers
// (SemanticEncoder, the vca pipelines, benches) hold one of these; the
// LzrCompress free functions remain as thin wrappers for tests and tools.
//
// Output is bit-identical to LzrCompress for the same data and params: the
// LZR1 container (magic | uleb128 size | range-coded tokens) and the
// adaptive models reset per frame, so streams stay self-contained.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "compress/match_finder.h"
#include "compress/range_coder.h"
#include "compress/varint.h"

namespace vtp::compress {

namespace detail {

inline constexpr std::array<std::uint8_t, 4> kLzrMagic = {'L', 'Z', 'R', '1'};

// Distance encoding: a 6-bit "slot" bit tree selects a power-of-two bucket,
// then (slot/2 - 1) direct bits give the offset within the bucket.
inline constexpr int kDistSlotBits = 6;

inline std::uint32_t DistanceToSlot(std::uint32_t dist) {
  // dist >= 1. Slots 0..3 encode distances 1..4 exactly.
  if (dist <= 4) return dist - 1;
  const int log = 31 - std::countl_zero(dist - 1);
  return static_cast<std::uint32_t>((log << 1) + (((dist - 1) >> (log - 1)) & 1));
}

/// The adaptive model set of one lzr stream (reset per frame).
struct LzrModels {
  BitModel is_match;
  BitTree<8> literal;
  BitTree<9> length;  // encodes length - kMinMatch, range [0, 270] fits 9 bits
  BitTree<kDistSlotBits> dist_slot;
};

/// Parse sink that entropy-codes tokens as they are found (the fusion
/// point). Codes through a RangeEncoder::Hot session, so low/range stay in
/// registers across the parse.
struct LzrTokenCoder {
  RangeEncoder::Hot& rc;
  LzrModels& m;
  std::uint64_t* literals;  ///< token tally (match-finder hit-rate metric)
  std::uint64_t* matches;

  void Literal(std::uint8_t byte) {
    ++*literals;
    rc.EncodeBit(m.is_match, 0);
    m.literal.Encode(rc, byte);
  }
  void Match(std::uint32_t length, std::uint32_t distance) {
    ++*matches;
    rc.EncodeBit(m.is_match, 1);
    m.length.Encode(rc, length - LzParams::kMinMatch);
    const std::uint32_t slot = DistanceToSlot(distance);
    m.dist_slot.Encode(rc, slot);
    if (slot >= 4) {
      const int direct = static_cast<int>(slot / 2 - 1);
      const std::uint32_t base = (2u | (slot & 1u)) << direct;
      rc.EncodeDirectBits((distance - 1) - base, direct);
    }
  }
};

}  // namespace detail

/// Stateful lzr compressor; see file comment. Not thread-safe — one per
/// encoder/thread, like the codecs that embed it.
class LzrEncoder {
 public:
  /// Appends the compressed stream for `data` to `out`. Allocation-free in
  /// steady state apart from `out` growth the caller controls.
  void CompressInto(std::span<const std::uint8_t> data, std::vector<std::uint8_t>& out,
                    const LzParams& params = {});

  /// Compresses into the internal scratch buffer; the returned view is valid
  /// until the next call on this encoder.
  std::span<const std::uint8_t> Compress(std::span<const std::uint8_t> data,
                                         const LzParams& params = {});

  /// Compressed size in bytes without storing a single output byte: the
  /// range coder runs in counting-sink mode (satellite of the same model
  /// adaptation, so the count is exact).
  std::size_t CompressedSize(std::span<const std::uint8_t> data, const LzParams& params = {});

  /// Frames compressed by this encoder (CompressInto/Compress calls).
  std::uint64_t frames() const { return frames_; }

  /// Cumulative I/O and token tallies for the real compress paths
  /// (CompressedSize's counting-sink satellite is excluded). The match
  /// hit rate — matches / (matches + literals) — is the fraction of parse
  /// decisions the match finder converted into back-references.
  struct IoStats {
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t literals = 0;
    std::uint64_t matches = 0;
  };
  const IoStats& io_stats() const { return io_; }

  /// Match-finder arena behaviour — arena_grows stops moving once warm.
  const MatchFinder::Stats& finder_stats() const { return finder_.stats(); }

  /// Capacity of the internal scratch buffer used by Compress().
  std::size_t scratch_capacity() const { return scratch_.capacity(); }

 private:
  MatchFinder finder_;
  std::vector<std::uint8_t> scratch_;
  std::uint64_t frames_ = 0;
  IoStats io_;
};

}  // namespace vtp::compress
