// The semantic persona codec.
//
// Encodes the 74-point semantic subset per frame. The default configuration
// matches the scheme the paper measures in §4.3: raw float32 coordinates
// compressed with a general-purpose LZ compressor (their LZMA, our lzr) —
// which is why the spatial persona's ~0.67 Mbps is NOT rate-adaptable: the
// stream has no quality ladder, only "all semantics" or "reconstruction
// fails". A quantized/delta mode is provided as the ablation the paper's
// discussion suggests.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "compress/lzr_stream.h"
#include "semantic/keypoints.h"

namespace vtp::compress {
class CodecEngine;
}  // namespace vtp::compress

namespace vtp::semantic {

/// Encoder configuration.
struct SemanticCodecConfig {
  /// 0 = raw float32 (the paper's measured scheme); otherwise quantization
  /// bits per axis over the persona's local bounding volume.
  int quantize_bits = 0;
  /// Delta-code against the previous frame (only with quantization).
  bool temporal_delta = false;
  /// Run the serialized payload through lzr (LZMA stand-in).
  bool lz_compress = true;
};

/// Stateful encoder (keeps the previous frame for temporal delta).
///
/// Holds the lzr hot-path state for its lifetime: the embedded LzrEncoder's
/// match-finder arena plus the serialization scratch buffers are reused
/// across EncodeFrame calls, so steady-state encoding via EncodeFrameInto
/// performs no heap allocation.
class SemanticEncoder {
 public:
  explicit SemanticEncoder(SemanticCodecConfig config = {});

  /// Encodes one frame of exactly kSemanticPoints points.
  /// The payload starts with a 1-byte mode tag and a uleb128 frame index.
  std::vector<std::uint8_t> EncodeFrame(std::span<const Vec3> points);

  /// Same, into `out` (replaced) — the allocation-free per-frame path once
  /// `out`'s capacity is warm.
  void EncodeFrameInto(std::span<const Vec3> points, std::vector<std::uint8_t>& out);

  /// Resets temporal state (e.g. after a receiver resync).
  void Reset();

  /// Switches to a different ladder rung mid-stream. Keeps the frame-index
  /// sequence but clears temporal state, so the next frame is encoded
  /// standalone (a keyframe) and any decoder can pick up the new rung
  /// without resync. Validates `config` like the constructor.
  void Reconfigure(SemanticCodecConfig config);

  /// Forces the next frame to encode standalone (no temporal reference) —
  /// the periodic-keyframe hook that bounds loss desync on temporal rungs.
  void ForceKeyframe() { prev_quantized_.clear(); }

  /// Advances the frame index without emitting a frame (freeze mode ships
  /// only every Nth frame; the skipped indices must still burn so receivers
  /// keep measuring content lag against the live pace). Clears temporal
  /// state: the next emitted frame cannot reference an unshipped one.
  void SkipFrame() {
    ++frame_;
    prev_quantized_.clear();
  }

  /// Frame index the next EncodeFrame call will carry. The coarse-rung
  /// simulcast encoder is kept in lockstep with the primary through this.
  std::uint64_t next_frame_index() const { return frame_; }
  void set_next_frame_index(std::uint64_t index) { frame_ = index; }

  const SemanticCodecConfig& config() const { return config_; }

  /// Routes the LZ stage through a session-shared CodecEngine instead of
  /// the embedded LzrEncoder. The engine's arena is generation-stamped, so
  /// interleaving many encoders' frames through it is free and the bytes
  /// stay identical to per-encoder compression. Pass nullptr to detach.
  /// The engine must outlive this encoder.
  void AttachEngine(compress::CodecEngine* engine) { engine_ = engine; }
  bool engine_attached() const { return engine_ != nullptr; }

  /// The active lzr hot path (arena stats for benches/tests): the shared
  /// engine's when attached, else the embedded one.
  const compress::LzrEncoder& lzr() const;

 private:
  SemanticCodecConfig config_;
  std::uint64_t frame_ = 0;
  std::vector<std::int32_t> prev_quantized_;
  // Reused per-frame scratch: serialized body, quantized coords, lzr state.
  std::vector<std::uint8_t> body_;
  std::vector<std::int32_t> quantized_scratch_;
  compress::LzrEncoder lzr_;
  compress::CodecEngine* engine_ = nullptr;  ///< optional shared LZ stage
};

/// Decoded frame.
struct SemanticFrame {
  std::uint64_t frame_index = 0;
  std::vector<Vec3> points;  // kSemanticPoints entries
};

/// Stateful decoder. Throws compress::CorruptStream on malformed payloads;
/// temporal-delta streams additionally fail when frames are missing — the
/// mechanism behind the paper's "poor connection" observation.
class SemanticDecoder {
 public:
  SemanticDecoder();

  /// Decodes one payload. Returns nullopt if a temporal-delta frame arrives
  /// without its predecessor (reconstruction impossible until a keyframe).
  std::optional<SemanticFrame> DecodeFrame(std::span<const std::uint8_t> payload);

  /// Routes the LZ stage through a session-shared CodecEngine, whose memo
  /// serves a body that another decoder of the same `stream` (the sender
  /// id) already decoded. Dequantisation and temporal delta stay in this
  /// decoder. Pass nullptr to detach. The engine must outlive this decoder.
  void AttachEngine(compress::CodecEngine* engine, std::uint8_t stream) {
    engine_ = engine;
    stream_ = stream;
  }

 private:
  compress::CodecEngine* engine_ = nullptr;  ///< optional shared LZ stage
  std::uint8_t stream_ = 0;
  std::optional<std::uint64_t> last_frame_;
  std::vector<std::int32_t> prev_quantized_;
  // Reused decode scratch (lz body, quantized coords).
  std::vector<std::uint8_t> body_;
  std::vector<std::int32_t> quantized_scratch_;
};

}  // namespace vtp::semantic
