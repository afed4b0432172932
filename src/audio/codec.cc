#include "audio/codec.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "compress/bitstream.h"
#include "compress/entropy.h"
#include "compress/range_coder.h"
#include "core/simd.h"

namespace vtp::audio {

namespace {

constexpr int kBlock = 120;                          // 2.5 ms sub-blocks
constexpr int kBlocksPerFrame = kFrameSamples / kBlock;  // 8

constexpr std::uint8_t kFlagDtx = 0x01;

/// Orthonormal DCT-II basis of length 120, built once, in both orientations:
/// `c[u][x]` (rows are basis functions) and its transpose `ct[x][u]`.
struct Basis {
  using Matrix = std::array<std::array<float, kBlock>, kBlock>;
  Matrix c{};
  Matrix ct{};
  Basis() {
    for (int u = 0; u < kBlock; ++u) {
      const float alpha = u == 0 ? std::sqrt(1.0f / kBlock) : std::sqrt(2.0f / kBlock);
      for (int x = 0; x < kBlock; ++x) {
        c[u][x] = alpha * std::cos((2 * x + 1) * u * std::numbers::pi_v<float> /
                                   (2.0f * kBlock));
        ct[x][u] = c[u][x];
      }
    }
  }
};

const Basis& TheBasis() {
  static const Basis basis;
  return basis;
}

/// Quantization steps per quality and coefficient: quality sets the floor,
/// and steps grow toward high frequencies (where speech energy and hearing
/// acuity both fall off).
struct StepTable {
  std::array<std::array<float, kBlock>, 11> step{};
  StepTable() {
    for (int quality = 0; quality <= 10; ++quality) {
      const float base = 24.0f * std::exp2(static_cast<float>(10 - quality) * 0.5f);
      for (int u = 0; u < kBlock; ++u) {
        step[quality][u] = base * (1.0f + 0.03f * static_cast<float>(u));
      }
    }
  }
};

const std::array<float, kBlock>& StepsFor(int quality) {
  static const StepTable table;
  return table.step[static_cast<std::size_t>(quality)];
}

/// out[j] = sum over i of in[i] * m[i][j], for all 120 j. Lanes run over j,
/// and each lane sums i = 0..119 in order with an unfused multiply-add, so
/// every output is the float the plain `acc += in[i] * m[i][j]` loop gives.
/// Six vectors (24 outputs) stay in registers across the whole i loop.
void Transform(const float* in, const Basis::Matrix& m, float* out) {
  constexpr int kWidth = 4, kVectors = 6, kSpan = kWidth * kVectors;
  static_assert(kBlock % kSpan == 0);
  for (int j = 0; j < kBlock; j += kSpan) {
    simd::F32x4 acc[kVectors];
    for (auto& a : acc) a = simd::Zero();
    for (int i = 0; i < kBlock; ++i) {
      const simd::F32x4 s = simd::Broadcast(in[i]);
      const float* row = &m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      for (int v = 0; v < kVectors; ++v) {
        acc[v] = simd::Madd(s, simd::Load(row + kWidth * v), acc[v]);
      }
    }
    for (int v = 0; v < kVectors; ++v) simd::Store(out + j + kWidth * v, acc[v]);
  }
}

}  // namespace

AudioEncoder::AudioEncoder(AudioCodecConfig config) : config_(config) {
  if (config_.quality < 0 || config_.quality > 10) {
    throw std::invalid_argument("audio quality out of range");
  }
}

std::vector<std::uint8_t> AudioEncoder::EncodeFrame(const AudioFrame& frame) {
  std::vector<std::uint8_t> out;
  if (config_.dtx && frame.IsSilence()) {
    out.push_back(kFlagDtx);
    out.push_back(static_cast<std::uint8_t>(config_.quality));
    return out;
  }
  out.push_back(0);
  out.push_back(static_cast<std::uint8_t>(config_.quality));

  const auto& basis = TheBasis().ct;
  const auto& steps = StepsFor(config_.quality);
  compress::RangeEncoder rc(&out);
  {  // the session writes its coder state back when it closes, before Flush
    compress::RangeEncoder::Hot hot(rc);
    compress::SignedValueCoder low, high;
    std::array<float, kBlock> samples, coeffs;
    for (int b = 0; b < kBlocksPerFrame; ++b) {
      for (int x = 0; x < kBlock; ++x) {
        samples[static_cast<std::size_t>(x)] =
            static_cast<float>(frame.samples[static_cast<std::size_t>(b * kBlock + x)]);
      }
      Transform(samples.data(), basis, coeffs.data());
      for (int u = 0; u < kBlock; ++u) {
        const auto i = static_cast<std::size_t>(u);
        const auto level = static_cast<std::int32_t>(std::lround(coeffs[i] / steps[i]));
        (u < 24 ? low : high).Encode(hot, level);
      }
    }
  }
  rc.Flush();
  return out;
}

AudioFrame AudioDecoder::DecodeFrame(std::span<const std::uint8_t> payload) {
  if (payload.size() < 2) throw compress::CorruptStream("audio: truncated header");
  const std::uint8_t flags = payload[0];
  const int quality = payload[1];
  if (quality > 10) throw compress::CorruptStream("audio: bad quality");

  AudioFrame frame;  // zero-initialized: exactly what DTX means
  if (flags & kFlagDtx) return frame;

  const auto& basis = TheBasis().c;
  const auto& steps = StepsFor(quality);
  compress::RangeDecoder rc(payload.subspan(2));
  compress::SignedValueCoder low, high;
  std::array<float, kBlock> coeffs, samples;
  for (int b = 0; b < kBlocksPerFrame; ++b) {
    for (int u = 0; u < kBlock; ++u) {
      const std::int64_t level = (u < 24 ? low : high).Decode(rc);
      coeffs[static_cast<std::size_t>(u)] =
          static_cast<float>(level) * steps[static_cast<std::size_t>(u)];
    }
    Transform(coeffs.data(), basis, samples.data());
    for (int x = 0; x < kBlock; ++x) {
      frame.samples[static_cast<std::size_t>(b * kBlock + x)] = static_cast<std::int16_t>(
          std::clamp(samples[static_cast<std::size_t>(x)], -32767.0f, 32767.0f));
    }
  }
  return frame;
}

}  // namespace vtp::audio
