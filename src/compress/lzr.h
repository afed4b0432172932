// "lzr" — a general-purpose LZ77 + adaptive-range-coder compressor.
//
// This is the repository's stand-in for LZMA (the paper compresses keypoint
// streams with LZMA in §4.3). The container is
//
//   magic "LZR1" | uleb128 original_size | range-coded token stream
//
// Tokens are entropy-coded with adaptive bit models: a match/literal flag,
// order-0 context literals, a length bit tree, and distance slots with direct
// bits (the LZMA distance scheme, simplified), all through the serial
// adaptive range coder.
//
// The functions here are convenience wrappers for tests and tools. Per-frame
// callers (semantic codec, pipelines, benches) hold a compress::LzrEncoder
// (lzr_stream.h), which reuses its match-finder arena and scratch across
// frames; the wrappers delegate to a thread-local LzrEncoder so even ad-hoc
// calls skip the per-call table setup. Output bytes are identical either way.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "compress/lz77.h"

namespace vtp::compress {

/// Compresses `data`. Never fails; output is at worst slightly larger than
/// the input (incompressible data costs ~1.05x + 16 bytes).
std::vector<std::uint8_t> LzrCompress(std::span<const std::uint8_t> data, const LzParams& params = {});

/// Decompresses an LzrCompress stream.
/// Throws CorruptStream on bad magic (anything but LZR1), truncation, or
/// invalid tokens.
std::vector<std::uint8_t> LzrDecompress(std::span<const std::uint8_t> data);

/// Decompresses into `out` (replacing its contents), reusing its capacity —
/// the decoder sizes the buffer once and block-copies matches, so a warm
/// caller-held buffer makes decode allocation-free.
void LzrDecompressInto(std::span<const std::uint8_t> data, std::vector<std::uint8_t>& out);

/// Convenience: compressed size in bytes without materializing the output
/// (counting range-coder sink; see RangeEncoder).
std::size_t LzrCompressedSize(std::span<const std::uint8_t> data);

}  // namespace vtp::compress
