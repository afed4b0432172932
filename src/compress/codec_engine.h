// Shared codec engine: one lzr hot path for a whole session.
//
// Every spatial persona sender used to embed its own LzrEncoder, so an
// 8-party call carried eight match-finder arenas (8 x 512 KB head tables)
// and touched a cold one on every frame. CodecEngine owns a single
// LzrEncoder and fans every persona's payload through it; the match
// finder's generation-stamped Reset() makes interleaved inputs free (no
// clearing between personas) and byte-identical to per-sender encoding,
// which tests pin via ReuseAcrossInputsMatchesFreshEncoder.
//
// The engine is also where the session-level counters live: frames and
// bytes in/out. The vca session exposes these through the metric registry
// under the "codec.engine" scope.
//
// Not thread-safe — one engine per session/thread, like the encoders it
// replaces.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "compress/lzr_stream.h"

namespace vtp::compress {

class CodecEngine {
 public:
  /// Compresses one payload through the shared arena, appending to `out`.
  void CompressInto(std::span<const std::uint8_t> data, std::vector<std::uint8_t>& out);

  /// Engine-level tallies (the "codec.engine" metric scope).
  struct Stats {
    std::uint64_t frames = 0;    ///< payloads compressed through the engine
    std::uint64_t bytes_in = 0;  ///< raw payload bytes in
    std::uint64_t bytes_out = 0; ///< compressed bytes out
  };
  const Stats& stats() const { return stats_; }

  /// The shared hot path (arena/token stats for benches and probes).
  LzrEncoder& lzr() { return lzr_; }
  const LzrEncoder& lzr() const { return lzr_; }

 private:
  LzrEncoder lzr_;
  Stats stats_;
};

}  // namespace vtp::compress
