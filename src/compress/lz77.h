// LZ77 tokenization: match finding over a sliding window with hash chains.
//
// Produces a token stream (literals and back-references) that the "lzr"
// container entropy-codes. Kept separate from the container so other codecs
// can reuse the matcher (e.g. for byte-plane compression experiments).
//
// The parser is greedy: it takes the longest match at every position, and
// its output is frozen for format stability.
//
// The implementation lives in match_finder.h (a persistent, allocation-free
// MatchFinder plus a template parse driver); the free functions here are
// convenience wrappers that allocate per call. The greedy streams are
// pinned byte for byte by the goldens in test_compress_stream.cc.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace vtp::compress {

/// One LZ77 token: either a literal byte or a (length, distance) match.
struct LzToken {
  bool is_match = false;
  std::uint8_t literal = 0;     // valid when !is_match
  std::uint32_t length = 0;     // valid when is_match; >= kMinMatch
  std::uint32_t distance = 0;   // valid when is_match; >= 1
};

/// Tunables for the match finder.
struct LzParams {
  static constexpr std::uint32_t kMinMatch = 3;
  static constexpr std::uint32_t kMaxMatch = 273;

  std::uint32_t window_size = 1u << 20;  ///< max back-reference distance
  int max_chain_length = 64;             ///< hash-chain probes per position
};

/// Tokenises `data` with the greedy parser. Deterministic for identical
/// inputs and params. Convenience wrapper over MatchFinder; allocates the
/// finder per call — per-frame callers should hold an LzrEncoder instead.
std::vector<LzToken> LzTokenize(std::span<const std::uint8_t> data, const LzParams& params = {});

/// Reconstructs the original bytes from a token stream.
/// Throws CorruptStream if a token references data before the start.
std::vector<std::uint8_t> LzReconstruct(std::span<const LzToken> tokens);

/// Decoder fast path shared by LzReconstruct and LzrDecompress: writes the
/// `length` bytes of a match at out[wr..wr+length) from distance `distance`
/// back. Non-overlapping ranges block-copy; overlapping (RLE-like) matches
/// replicate their period, doubling the copied span each pass. The caller
/// must have validated 1 <= distance <= wr and that the destination fits.
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
