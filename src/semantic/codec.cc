#include "semantic/codec.h"

#include <algorithm>
#include <cmath>

#include "compress/bitstream.h"
#include "compress/codec_engine.h"
#include "compress/lzr.h"
#include "compress/varint.h"

namespace vtp::semantic {

namespace {

constexpr std::uint8_t kFlagQuantized = 0x01;
constexpr std::uint8_t kFlagTemporal = 0x02;
constexpr std::uint8_t kFlagLz = 0x04;

/// Persona-local coordinates fit comfortably in this cube (metres).
constexpr float kVolumeHalfExtent = 0.5f;

std::int32_t Quantize(float v, int bits) {
  const float grid = static_cast<float>((1 << bits) - 1);
  const float t = std::clamp((v + kVolumeHalfExtent) / (2 * kVolumeHalfExtent), 0.0f, 1.0f);
  return static_cast<std::int32_t>(std::lround(t * grid));
}

float Dequantize(std::int32_t q, int bits) {
  const float grid = static_cast<float>((1 << bits) - 1);
  return static_cast<float>(q) / grid * (2 * kVolumeHalfExtent) - kVolumeHalfExtent;
}

}  // namespace

SemanticEncoder::SemanticEncoder(SemanticCodecConfig config) : config_(config) {
  if (config_.temporal_delta && config_.quantize_bits == 0) {
    throw std::invalid_argument("temporal delta requires quantization");
  }
  if (config_.quantize_bits < 0 || config_.quantize_bits > 21) {
    throw std::invalid_argument("quantize_bits out of range");
  }
}

void SemanticEncoder::Reset() {
  prev_quantized_.clear();
}

void SemanticEncoder::Reconfigure(SemanticCodecConfig config) {
  if (config.temporal_delta && config.quantize_bits == 0) {
    throw std::invalid_argument("temporal delta requires quantization");
  }
  if (config.quantize_bits < 0 || config.quantize_bits > 21) {
    throw std::invalid_argument("quantize_bits out of range");
  }
  config_ = config;
  prev_quantized_.clear();
}

std::vector<std::uint8_t> SemanticEncoder::EncodeFrame(std::span<const Vec3> points) {
  std::vector<std::uint8_t> out;
  EncodeFrameInto(points, out);
  return out;
}

void SemanticEncoder::EncodeFrameInto(std::span<const Vec3> points,
                                      std::vector<std::uint8_t>& out) {
  if (points.size() != kSemanticPoints) {
    throw std::invalid_argument("semantic frame must contain 74 points");
  }
  std::uint8_t tag = 0;
  if (config_.quantize_bits > 0) tag |= kFlagQuantized;
  const bool temporal = config_.temporal_delta && !prev_quantized_.empty();
  if (temporal) tag |= kFlagTemporal;
  if (config_.lz_compress) tag |= kFlagLz;

  out.clear();
  out.push_back(tag);
  compress::PutUleb128(out, frame_++);

  body_.clear();
  if (config_.quantize_bits == 0) {
    for (const Vec3& p : points) {
      compress::PutFloatLe(body_, p.x);
      compress::PutFloatLe(body_, p.y);
      compress::PutFloatLe(body_, p.z);
    }
  } else {
    out.push_back(static_cast<std::uint8_t>(config_.quantize_bits));
    std::vector<std::int32_t>& q = quantized_scratch_;
    q.clear();
    for (const Vec3& p : points) {
      q.push_back(Quantize(p.x, config_.quantize_bits));
      q.push_back(Quantize(p.y, config_.quantize_bits));
      q.push_back(Quantize(p.z, config_.quantize_bits));
    }
    std::int64_t prev_in_frame = 0;
    for (std::size_t i = 0; i < q.size(); ++i) {
      std::int64_t reference = temporal ? prev_quantized_[i] : prev_in_frame;
      compress::PutUleb128(body_, compress::ZigZagEncode(q[i] - reference));
      prev_in_frame = q[i];
    }
    // Swap, not copy: q becomes next frame's scratch, no allocation.
    std::swap(prev_quantized_, q);
  }

  if (config_.lz_compress) {
    if (engine_ != nullptr) {
      engine_->CompressInto(body_, out);
    } else {
      lzr_.CompressInto(body_, out);
    }
  } else {
    out.insert(out.end(), body_.begin(), body_.end());
  }
}

const compress::LzrEncoder& SemanticEncoder::lzr() const {
  return engine_ != nullptr ? engine_->lzr() : lzr_;
}

SemanticDecoder::SemanticDecoder() = default;

std::optional<SemanticFrame> SemanticDecoder::DecodeFrame(std::span<const std::uint8_t> payload) {
  std::size_t pos = 0;
  if (payload.empty()) throw compress::CorruptStream("semantic: empty payload");
  const std::uint8_t tag = payload[pos++];
  const std::uint64_t frame_index = compress::GetUleb128(payload, &pos);
  int qbits = 0;
  if (tag & kFlagQuantized) {
    if (pos >= payload.size()) throw compress::CorruptStream("semantic: missing qbits");
    qbits = payload[pos++];
    if (qbits < 1 || qbits > 21) throw compress::CorruptStream("semantic: bad qbits");
  }

  std::span<const std::uint8_t> body_view = payload.subspan(pos);
  if (tag & kFlagLz) {
    if (engine_ != nullptr) {
      engine_->DecompressInto(stream_, body_view, body_);
    } else {
      compress::LzrDecompressInto(body_view, body_);
    }
    body_view = body_;
  }

  SemanticFrame out;
  out.frame_index = frame_index;
  out.points.reserve(kSemanticPoints);

  if (!(tag & kFlagQuantized)) {
    std::size_t bpos = 0;
    for (std::size_t i = 0; i < kSemanticPoints; ++i) {
      Vec3 p;
      p.x = compress::GetFloatLe(body_view, &bpos);
      p.y = compress::GetFloatLe(body_view, &bpos);
      p.z = compress::GetFloatLe(body_view, &bpos);
      out.points.push_back(p);
    }
    last_frame_ = frame_index;
    prev_quantized_.clear();
    return out;
  }

  const bool temporal = (tag & kFlagTemporal) != 0;
  if (temporal) {
    // A delta frame is only decodable against its immediate predecessor.
    if (!last_frame_ || frame_index != *last_frame_ + 1 ||
        prev_quantized_.size() != kSemanticPoints * 3) {
      return std::nullopt;
    }
  }

  std::vector<std::int32_t>& q = quantized_scratch_;
  q.clear();
  std::size_t bpos = 0;
  std::int64_t prev_in_frame = 0;
  for (std::size_t i = 0; i < kSemanticPoints * 3; ++i) {
    const std::int64_t delta = compress::ZigZagDecode(compress::GetUleb128(body_view, &bpos));
    const std::int64_t reference = temporal ? prev_quantized_[i] : prev_in_frame;
    const std::int64_t value = reference + delta;
    q.push_back(static_cast<std::int32_t>(value));
    prev_in_frame = value;
  }
  for (std::size_t i = 0; i < kSemanticPoints; ++i) {
    out.points.push_back(Vec3{Dequantize(q[i * 3], qbits), Dequantize(q[i * 3 + 1], qbits),
                              Dequantize(q[i * 3 + 2], qbits)});
  }
  std::swap(prev_quantized_, q);
  last_frame_ = frame_index;
  return out;
}

}  // namespace vtp::semantic
