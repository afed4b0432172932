#include "compress/lzr.h"

#include <algorithm>

#include "compress/bitstream.h"
#include "compress/lzr_stream.h"
#include "compress/range_coder.h"
#include "compress/varint.h"

namespace vtp::compress {

namespace {

/// The token decode loop. The output is sized once, literals write in place
/// and matches block-copy (LzCopyMatch handles overlapping RLE-style ones).
void DecodeTokens(RangeDecoder& rc, std::uint64_t original_size, std::vector<std::uint8_t>& out) {
  out.resize(original_size);
  std::size_t wr = 0;

  detail::LzrModels m;
  while (wr < original_size) {
    if (rc.DecodeBit(m.is_match) == 0) {
      out[wr++] = static_cast<std::uint8_t>(m.literal.Decode(rc));
      continue;
    }
    const std::uint32_t length = m.length.Decode(rc) + LzParams::kMinMatch;
    const std::uint32_t slot = m.dist_slot.Decode(rc);
    std::uint32_t dist;
    if (slot < 4) {
      dist = slot + 1;
    } else {
      const int direct = static_cast<int>(slot / 2 - 1);
      const std::uint32_t base = (2u | (slot & 1u)) << direct;
      dist = base + rc.DecodeDirectBits(direct) + 1;
    }
    if (dist > wr) throw CorruptStream("lzr: distance out of range");
    if (length > original_size - wr) throw CorruptStream("lzr: output overrun");
    LzCopyMatch(out.data(), wr, length, dist);
    wr += length;
  }
}

}  // namespace

void LzrDecompressInto(std::span<const std::uint8_t> data, std::vector<std::uint8_t>& out) {
  out.clear();
  if (data.size() < detail::kLzrMagic.size() ||
      !std::equal(detail::kLzrMagic.begin(), detail::kLzrMagic.end(), data.begin())) {
    throw CorruptStream("lzr: bad magic");
  }
  std::size_t pos = detail::kLzrMagic.size();
  const std::uint64_t original_size = GetUleb128(data, &pos);
  // Plausibility bound: adaptive coding of a fully repetitive stream can
  // spend well under a bit per max-length match, but not less than ~1/60 of
  // one. Protects decoders of attacker-controlled headers from huge
  // allocations while admitting any stream the encoder can produce.
  const std::uint64_t max_plausible = static_cast<std::uint64_t>(data.size()) * 16384 + 4096;
  if (original_size > max_plausible) throw CorruptStream("lzr: implausible original size");
  if (original_size == 0) return;

  RangeDecoder rc(data.subspan(pos));
  DecodeTokens(rc, original_size, out);
}

}  // namespace vtp::compress
