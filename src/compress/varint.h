// Variable-length integer codecs used across the on-wire formats:
//  * ULEB128 — unsigned little-endian base-128, as in protobuf/DWARF.
//  * ZigZag  — maps signed integers to unsigned so small magnitudes stay small.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace vtp::compress {

/// Appends the ULEB128 encoding of `value` to `out`.
void PutUleb128(std::vector<std::uint8_t>& out, std::uint64_t value);

/// Decodes a ULEB128 value from `data` starting at `*pos`; advances `*pos`.
/// Throws CorruptStream on truncation or >64-bit values.
std::uint64_t GetUleb128(std::span<const std::uint8_t> data, std::size_t* pos);

/// Maps a signed value into an unsigned one with small absolute values first.
constexpr std::uint64_t ZigZagEncode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

/// Inverse of ZigZagEncode.
constexpr std::int64_t ZigZagDecode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

}  // namespace vtp::compress
