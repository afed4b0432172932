// Block-transform video codec (the 2D-persona workhorse).
//
// An H.26x-class intra/inter codec reduced to its essentials: 8x8 DCT,
// frequency-weighted quantization with an H.264-style QP scale (step doubles
// every 6 QP), zigzag scanning, and adaptive range coding of coefficients.
// P-frames use zero-motion temporal prediction against the reconstructed
// reference — adequate for videoconferencing content, whose motion is small
// (a swaying head over a static background, Figure 1b).
//
// The hot path is vectorized through core/simd.h: float DCT passes as
// broadcast-madd sweeps over a shared basis table, quant/dequant as packed
// multiplies against per-QP step tables (hoisted — rebuilt only when QP
// changes), SAD-based motion probes 8 bytes a row. Coefficients go through
// the serial adaptive range coder. All per-frame buffers (reconstruction
// frame, coefficient blocks) persist across calls — steady-state
// EncodeInto/DecodeInto perform no heap allocation.
//
// The encoder is a real codec (decodable, tested for rate/distortion
// monotonicity); the VCA session layer uses it through CalibratedRateModel
// so 120-second simulations don't pay per-pixel costs in the event loop.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "video/frame.h"

namespace vtp::video {

/// Codec parameters.
struct VideoCodecConfig {
  int gop_length = 30;  ///< distance between keyframes
};

/// One encoded access unit.
struct EncodedFrame {
  std::vector<std::uint8_t> bytes;
  bool keyframe = false;
  int qp = 0;
};

namespace detail {

/// Per-QP quantization tables in block (raster) order, so quant/dequant are
/// straight packed multiplies. Rebuilt only when the QP changes.
struct QuantLut {
  alignas(16) std::array<float, 64> step{};      // qstep * FreqWeight, per position
  alignas(16) std::array<float, 64> inv_step{};  // reciprocals for the encoder
  int qp = -1;                                   // QP the tables were built for
};

/// Per-instance coefficient scratch shared by every block of a frame.
struct CodecScratch {
  alignas(16) std::array<float, 64> pixels;
  alignas(16) std::array<float, 64> coeffs;
  alignas(16) std::array<float, 64> deq;
  alignas(16) std::array<float, 64> rec;
  alignas(16) std::array<std::int32_t, 64> qblock;
};

}  // namespace detail

/// Stateful encoder (keeps the reconstructed reference frame).
class VideoEncoder {
 public:
  explicit VideoEncoder(Resolution resolution, VideoCodecConfig config = {});

  /// Encodes the next frame at quantization parameter `qp` (1..51; step
  /// doubles every +6). Frame must match the configured resolution.
  EncodedFrame Encode(const VideoFrame& frame, int qp);

  /// Same, reusing `out` (bytes replaced) — the allocation-free per-frame
  /// path once `out.bytes` and the internal buffers are warm.
  void EncodeInto(const VideoFrame& frame, int qp, EncodedFrame& out);

  /// Forces the next frame to be a keyframe (e.g. after receiver feedback).
  void RequestKeyframe() { force_keyframe_ = true; }

  const VideoCodecConfig& config() const { return config_; }

 private:
  Resolution resolution_;
  VideoCodecConfig config_;
  std::uint64_t frame_index_ = 0;
  bool force_keyframe_ = false;
  VideoFrame reference_;
  bool have_reference_ = false;
  // Persistent hot-path state: the reconstruction target swaps with
  // reference_ each frame and quant tables persist across same-QP frames.
  VideoFrame recon_;
  detail::QuantLut lut_;
  detail::CodecScratch scratch_;
};

/// Stateful decoder.
class VideoDecoder {
 public:
  explicit VideoDecoder(Resolution resolution);

  /// Decodes one access unit. Returns nullopt for a P-frame without a
  /// reference (e.g. after joining mid-stream before a keyframe).
  /// Throws compress::CorruptStream on malformed data, including a header
  /// flag bit other than the keyframe bit.
  std::optional<VideoFrame> Decode(std::span<const std::uint8_t> bytes);

  /// Same, into `out` (replaced; resized to the stream's resolution).
  /// Returns false for an undecodable P-frame. Allocation-free once warm.
  bool DecodeInto(std::span<const std::uint8_t> bytes, VideoFrame& out);

 private:
  Resolution resolution_;
  VideoFrame reference_;
  bool have_reference_ = false;
  detail::QuantLut lut_;
  detail::CodecScratch scratch_;
};

}  // namespace vtp::video
