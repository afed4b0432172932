// Byte-level I/O shared by the codecs and wire formats in this repository:
// the CorruptStream error every decoder throws on malformed input, and
// little-endian scalar helpers.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace vtp::compress {

/// Thrown by readers/decoders when the input stream is truncated or
/// structurally invalid.
class CorruptStream : public std::runtime_error {
 public:
  explicit CorruptStream(const std::string& what) : std::runtime_error(what) {}
};

// --- little-endian scalar helpers -------------------------------------------
// Shared by the byte-oriented wire formats (semantic codec, tools) so each
// doesn't hand-roll its own shuffling. Floats go through std::bit_cast.

/// Appends `v` to `out` in little-endian byte order.
inline void PutU32Le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

/// Reads a little-endian u32 at `*pos`, advancing it.
/// Throws CorruptStream on truncation.
inline std::uint32_t GetU32Le(std::span<const std::uint8_t> d, std::size_t* pos) {
  if (*pos + 4 > d.size()) throw CorruptStream("truncated le32");
  const std::uint32_t v = static_cast<std::uint32_t>(d[*pos]) |
                          (static_cast<std::uint32_t>(d[*pos + 1]) << 8) |
                          (static_cast<std::uint32_t>(d[*pos + 2]) << 16) |
                          (static_cast<std::uint32_t>(d[*pos + 3]) << 24);
  *pos += 4;
  return v;
}

/// Appends an IEEE-754 float in little-endian byte order.
inline void PutFloatLe(std::vector<std::uint8_t>& out, float f) {
  PutU32Le(out, std::bit_cast<std::uint32_t>(f));
}

/// Reads a little-endian float at `*pos`, advancing it.
/// Throws CorruptStream on truncation.
inline float GetFloatLe(std::span<const std::uint8_t> d, std::size_t* pos) {
  return std::bit_cast<float>(GetU32Le(d, pos));
}

}  // namespace vtp::compress
