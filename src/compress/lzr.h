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
// The encoder is compress::LzrEncoder (lzr_stream.h), which per-frame
// callers (semantic codec, pipelines, benches) hold so its match-finder
// arena stays warm across frames. This header declares the decoder.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace vtp::compress {

/// Decompresses an LZR1 stream into `out` (replacing its contents), reusing
/// its capacity — the decoder sizes the buffer once and block-copies
/// matches, so a warm caller-held buffer makes decode allocation-free.
/// Throws CorruptStream on bad magic (anything but LZR1), truncation, or
/// invalid tokens.
void LzrDecompressInto(std::span<const std::uint8_t> data, std::vector<std::uint8_t>& out);

}  // namespace vtp::compress
