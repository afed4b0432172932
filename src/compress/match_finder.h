// Reusable LZ77 match finder: the allocation-free heart of the lzr hot path.
//
// The seed tokenizer allocated (and cleared) a 512 KB hash-head table plus
// a full prev-chain array on every call — for a 900-byte keypoint frame the
// memset alone dwarfed the actual matching. MatchFinder instead owns its
// arrays for the lifetime of the encoder and rebinds to a new input in O(1):
//
//   * head slots are generation-stamped (stamp and position packed into one
//     64-bit word) — Reset() bumps a counter instead of clearing the table,
//     and a stale slot reads as empty;
//   * prev chains need no stamping: a chain is only entered through a
//     current-generation head slot, and every link reached that way was
//     written during the current generation;
//   * match extension compares 8 bytes at a time (memcpy loads + countr_zero
//     on the XOR), falling back to bytes near the tail.
//
// The greedy parse driver on top, LzParse, is byte-for-byte the seed
// algorithm (same probe order, same tie-breaks, same chain insertions), so
// its streams stay bit-identical to the pre-arena compressor (pinned by the
// goldens in test_compress_stream.cc). It emits
// through a Sink (Literal/Match callbacks), which is what lets LzrEncoder
// fuse tokenization straight into range coding with no intermediate token
// vector.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "compress/lz77.h"
#include "core/simd.h"

namespace vtp::compress {

/// Shared 3-byte multiplicative hash (the minimum match length).
inline std::uint32_t LzHash3(const std::uint8_t* p, std::uint32_t hash_bits) {
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - hash_bits);
}

/// Length of the common prefix of `a` and `b`, up to `max_len`.
/// 16 bytes per probe through the SIMD wrapper (cmpeq + movemask + ctz on
/// SSE2), then word-at-a-time, then bytes near the tail. Exact-prefix
/// semantics are identical across paths, so which build's ISA ran never
/// changes a parse decision — greedy streams stay seed-byte-identical.
inline std::uint32_t LzMatchLength(const std::uint8_t* a, const std::uint8_t* b,
                                   std::uint32_t max_len) {
  std::uint32_t len = 0;
  while (len + 16 <= max_len) {
    const std::uint32_t p = simd::CommonPrefix16(a + len, b + len);
    len += p;
    if (p < 16) return len;
  }
  while (len + 8 <= max_len) {
    std::uint64_t va, vb;
    std::memcpy(&va, a + len, 8);
    std::memcpy(&vb, b + len, 8);
    const std::uint64_t x = va ^ vb;
    if (x != 0) {
      const int bit = std::endian::native == std::endian::little ? std::countr_zero(x)
                                                                 : std::countl_zero(x);
      return len + static_cast<std::uint32_t>(bit >> 3);
    }
    len += 8;
  }
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

/// Persistent hash-chain match finder. Create once, Reset() per input.
class MatchFinder {
 public:
  static constexpr std::uint32_t kHashBits = 16;
  static constexpr std::uint32_t kHashSize = 1u << kHashBits;
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  struct Match {
    std::uint32_t length = 0;
    std::uint32_t distance = 0;
  };

  /// Observability for the zero-allocation claim: how often the arena grew.
  struct Stats {
    std::uint64_t resets = 0;        ///< inputs bound
    std::uint64_t arena_grows = 0;   ///< allocations (first use + prev growth)
    std::size_t arena_bytes = 0;     ///< current footprint of the arrays
  };

  /// Rebinds to `data`. O(1) unless the prev array must grow (input larger
  /// than any seen before) or the generation counter wraps (once per 2^32
  /// resets). Inputs are limited to < 4 GiB, far above any frame here.
  void Reset(std::span<const std::uint8_t> data);

  /// Best match at `pos` under the seed probe/tie-break rules: walk the
  /// chain newest-first for at most max_chain_length probes, keep the first
  /// strictly-longer candidate, stop at the window edge or a full-length
  /// match. Returns length 0 when no kMinMatch-or-longer match exists.
  /// Header-inline: called once per input position from the parse loop, and
  /// an opaque cross-TU call here costs more than the probe itself on
  /// short-chain (noisy) data.
  Match FindBest(std::size_t pos, const LzParams& params) const {
    if (pos + LzParams::kMinMatch > size_) return {};
    return FindBest(pos, LzHash3(data_ + pos, kHashBits), params);
  }

  /// As above with the position's hash precomputed by the caller (the parse
  /// loop shares one hash between FindBest and Insert). Requires
  /// pos < last_hashable().
  Match FindBest(std::size_t pos, std::uint32_t h, const LzParams& params) const {
    Match best;
    const std::uint64_t entry = head_[h];
    if ((entry >> 32) != generation_) return best;

    const std::uint32_t max_len =
        static_cast<std::uint32_t>(std::min<std::size_t>(LzParams::kMaxMatch, size_ - pos));
    std::uint32_t candidate = static_cast<std::uint32_t>(entry);
    int probes = params.max_chain_length;
    while (candidate != kNone && probes-- > 0) {
      const std::size_t dist = pos - candidate;
      if (dist > params.window_size) break;
      // One-byte early reject: a candidate that differs at offset
      // best.length has a common prefix of at most best.length, so it can
      // never be *strictly* longer — the full extension is skipped without
      // changing which match wins. (In-bounds: best.length < max_len here,
      // since a max_len match breaks out below.)
      if (data_[candidate + best.length] == data_[pos + best.length]) {
        const std::uint32_t len = LzMatchLength(data_ + candidate, data_ + pos, max_len);
        if (len > best.length) {
          best.length = len;
          best.distance = static_cast<std::uint32_t>(dist);
          if (len == max_len) break;
        }
      }
      candidate = prev_[candidate];
    }
    if (best.length < LzParams::kMinMatch) return {};
    return best;
  }

  /// Inserts `pos` into its hash chain (requires pos + kMinMatch <= size).
  void Insert(std::size_t pos) { Insert(pos, LzHash3(data_ + pos, kHashBits)); }

  /// As above with the position's hash precomputed.
  void Insert(std::size_t pos, std::uint32_t h) {
    const std::uint64_t entry = head_[h];
    prev_[pos] = (entry >> 32) == generation_ ? static_cast<std::uint32_t>(entry) : kNone;
    head_[h] = (static_cast<std::uint64_t>(generation_) << 32) | static_cast<std::uint64_t>(pos);
  }

  /// Inserts every hashable position in [begin, end) — the interior of an
  /// emitted match, clamped to the last position with a full hash window.
  void InsertRange(std::size_t begin, std::size_t end) {
    const std::size_t stop = end < last_hashable_ ? end : last_hashable_;
    for (std::size_t i = begin; i < stop; ++i) Insert(i);
  }

  std::size_t size() const { return size_; }
  std::size_t last_hashable() const { return last_hashable_; }
  const Stats& stats() const { return stats_; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t last_hashable_ = 0;
  std::uint32_t generation_ = 0;
  // head_[h] packs (generation << 32) | position: one load tells both
  // whether the slot is current and where the chain starts, and one store
  // refreshes both. Slots from older generations read as empty.
  std::vector<std::uint64_t> head_;
  std::vector<std::uint32_t> prev_;
  Stats stats_;
};

/// Drives `finder` over `data` and emits tokens into `sink`, which must
/// provide `Literal(std::uint8_t)` and `Match(std::uint32_t length,
/// std::uint32_t distance)`. Greedy: takes the longest match at every
/// position, reproducing the seed token stream exactly.
template <class Sink>
void LzParse(MatchFinder& finder, std::span<const std::uint8_t> data, const LzParams& params,
             Sink&& sink) {
  finder.Reset(data);
  const std::size_t n = data.size();
  std::size_t pos = 0;

  // Each position is hashed once and the hash shared between FindBest and
  // Insert. A position is hashable iff pos < last_hashable(), which is also
  // exactly when a match could start there.
  while (pos < n) {
    MatchFinder::Match m;
    std::uint32_t h = 0;
    const bool hashable = pos < finder.last_hashable();
    if (hashable) {
      h = LzHash3(data.data() + pos, MatchFinder::kHashBits);
      m = finder.FindBest(pos, h, params);
    }
    if (m.length >= LzParams::kMinMatch) {
      sink.Match(m.length, m.distance);
      const std::size_t end = pos + m.length;
      finder.InsertRange(pos, end);
      pos = end;
    } else {
      sink.Literal(data[pos]);
      if (hashable) finder.Insert(pos, h);
      ++pos;
    }
  }
}

}  // namespace vtp::compress
