#include "compress/lz77.h"

#include <algorithm>

#include "compress/bitstream.h"
#include "compress/match_finder.h"

namespace vtp::compress {

namespace {

/// Sink collecting tokens into a vector (the free-function API).
struct TokenSink {
  std::vector<LzToken>* tokens;
  void Literal(std::uint8_t byte) {
    tokens->push_back({.is_match = false, .literal = byte, .length = 0, .distance = 0});
  }
  void Match(std::uint32_t length, std::uint32_t distance) {
    tokens->push_back({.is_match = true, .literal = 0, .length = length, .distance = distance});
  }
};

}  // namespace

std::vector<LzToken> LzTokenize(std::span<const std::uint8_t> data, const LzParams& params) {
  std::vector<LzToken> tokens;
  tokens.reserve(data.size() / 2 + 8);
  MatchFinder finder;
  LzParse(finder, data, params, TokenSink{&tokens});
  return tokens;
}

std::vector<std::uint8_t> LzReconstruct(std::span<const LzToken> tokens) {
  // Pass 1: total output size, so the buffer is sized exactly once and
  // matches can block-copy instead of push_back'ing a byte at a time.
  std::size_t total = 0;
  for (const LzToken& t : tokens) total += t.is_match ? t.length : 1;

  std::vector<std::uint8_t> out(total);
  std::size_t wr = 0;
  for (const LzToken& t : tokens) {
    if (!t.is_match) {
      out[wr++] = t.literal;
      continue;
    }
    if (t.distance == 0 || t.distance > wr) {
      throw CorruptStream("lz token distance out of range");
    }
    LzCopyMatch(out.data(), wr, t.length, t.distance);
    wr += t.length;
  }
  return out;
}

}  // namespace vtp::compress
