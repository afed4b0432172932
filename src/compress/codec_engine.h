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
// The engine also does the receive side's shared work. An SFU relays each
// sender's stream unchanged to every other participant, so in a simulated
// five-user call four receivers decode the same LZR1 body. DecompressInto
// keeps the last few bodies of each stream with their output and serves an
// identical body from there: the LZ layer is a pure function of its input
// bytes, so the result is the one a fresh decode would give. This removes
// work the simulation repeats; it does not make the decoder faster.
//
// The engine is also where the session-level counters live: frames and
// bytes in/out, decode hits and misses. The vca session exposes these
// through the metric registry under the "codec.engine" scope.
//
// Not thread-safe — one engine per session/thread, like the encoders it
// replaces.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "compress/lzr_stream.h"

namespace vtp::compress {

class CodecEngine {
 public:
  /// Compresses one payload through the shared arena, appending to `out`.
  void CompressInto(std::span<const std::uint8_t> data, std::vector<std::uint8_t>& out);

  /// Memo slots per stream. Hits out of 13,880 decodes (3,470 sender
  /// frames x 4 receivers, so 10,410 at most) in 8 s five-user calls,
  /// `vtp run --app=facetime --seed=1`:
  ///
  ///   memo             NewYork,Chicago,       Seattle,Miami,London,
  ///                    Dallas,Seattle,Miami   Tokyo,Singapore
  ///   one ring of 8     4,202                     37
  ///   one ring of 32   10,410                  2,163
  ///   8 per stream     10,410                  6,348
  ///   16 per stream    10,410                 10,410
  ///
  /// In a shared ring other senders' frames push a frame out before its
  /// farthest receiver has it. 16 slots hold about 180 ms of a 90 fps
  /// stream, enough for the spread of delivery delays in both calls; with
  /// 5% loss on user 0's uplink the second call gets 10,332 hits to 3,444
  /// misses.
  static constexpr std::size_t kDecodeSlotsPerStream = 16;

  /// Decodes one LZR1 body into `out` (replaced), as LzrDecompressInto
  /// does. `stream` names the body's source (the sender id). A body equal
  /// byte for byte to one of the stream's last kDecodeSlotsPerStream
  /// distinct bodies is copied from the memo; any other body is decoded
  /// and stored over the stream's oldest slot. A body that throws
  /// CorruptStream is never stored. Allocation-free once the slots' and
  /// `out`'s capacities are warm.
  void DecompressInto(std::uint8_t stream, std::span<const std::uint8_t> packed,
                      std::vector<std::uint8_t>& out);

  /// Engine-level tallies (the "codec.engine" metric scope).
  struct Stats {
    std::uint64_t frames = 0;    ///< payloads compressed through the engine
    std::uint64_t bytes_in = 0;  ///< raw payload bytes in
    std::uint64_t bytes_out = 0; ///< compressed bytes out
    std::uint64_t decode_hits = 0;    ///< DecompressInto calls served by the memo
    std::uint64_t decode_misses = 0;  ///< DecompressInto calls that decoded
  };
  const Stats& stats() const { return stats_; }

  /// The shared hot path (arena/token stats for benches and probes).
  LzrEncoder& lzr() { return lzr_; }
  const LzrEncoder& lzr() const { return lzr_; }

 private:
  struct DecodeSlot {
    std::vector<std::uint8_t> packed;  ///< compressed body (empty = unused)
    std::vector<std::uint8_t> body;    ///< its decoded output
  };
  struct DecodeRing {
    std::array<DecodeSlot, kDecodeSlotsPerStream> slots;
    std::size_t next = 0;  ///< the oldest slot, overwritten by the next miss
  };

  LzrEncoder lzr_;
  std::vector<DecodeRing> rings_;  ///< indexed by stream, grown on first use
  Stats stats_;
};

}  // namespace vtp::compress
