// LZ77 vocabulary shared by the "lzr" encoder and decoder: the match-finder
// tunables and the decoder's match copy.
//
// The parser (match_finder.h: a persistent, allocation-free MatchFinder plus
// the greedy LzParse driver) takes the longest match at every position; its
// output is frozen for format stability, and the greedy streams are pinned
// byte for byte by the goldens in test_compress_stream.cc.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace vtp::compress {

/// Tunables for the match finder.
struct LzParams {
  static constexpr std::uint32_t kMinMatch = 3;
  static constexpr std::uint32_t kMaxMatch = 273;

  std::uint32_t window_size = 1u << 20;  ///< max back-reference distance
  int max_chain_length = 64;             ///< hash-chain probes per position
};

/// The lzr decoder's match copy: writes the `length` bytes of a match at
/// out[wr..wr+length) from distance `distance` back. Non-overlapping ranges
/// block-copy; overlapping (RLE-like) matches replicate their period,
/// doubling the copied span each pass. The caller must have validated
/// 1 <= distance <= wr and that the destination fits.
inline void LzCopyMatch(std::uint8_t* out, std::size_t wr, std::uint32_t length,
                        std::uint32_t distance) {
  std::uint8_t* dst = out + wr;
  const std::uint8_t* src = dst - distance;
  if (distance >= length) {
    std::memcpy(dst, src, length);
    return;
  }
  std::memcpy(dst, src, distance);
  std::size_t done = distance;  // dst[0..done) now holds whole periods
  while (done < length) {
    const std::size_t chunk = done < length - done ? done : length - done;
    std::memcpy(dst + done, dst, chunk);
    done += chunk;
  }
}

}  // namespace vtp::compress
