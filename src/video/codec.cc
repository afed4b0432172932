#include "video/codec.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numbers>

#include "compress/bitstream.h"
#include "compress/entropy.h"
#include "compress/range_coder.h"
#include "compress/varint.h"
#include "core/simd.h"

namespace vtp::video {

namespace {

constexpr int kBlock = 8;
constexpr std::uint8_t kFlagKeyframe = 0x01;  ///< the only defined header flag bit

/// Orthonormal 8x8 DCT-II basis plus its transpose, computed once and shared
/// by encode and decode. Both layouts are kept so each DCT pass streams a
/// basis row as two packed vectors (no per-block transposition).
struct DctTables {
  alignas(16) float c[kBlock][kBlock];   // c[u][x]
  alignas(16) float ct[kBlock][kBlock];  // ct[x][u] == c[u][x]
  DctTables() {
    for (int u = 0; u < kBlock; ++u) {
      const float alpha = u == 0 ? std::sqrt(1.0f / kBlock) : std::sqrt(2.0f / kBlock);
      for (int x = 0; x < kBlock; ++x) {
        c[u][x] = alpha * std::cos((2 * x + 1) * u * std::numbers::pi_v<float> / (2 * kBlock));
        ct[x][u] = c[u][x];
      }
    }
  }
};
const DctTables& Tables() {
  static const DctTables tables;
  return tables;
}

/// out = C * in * C^T. Each pass accumulates broadcast(scalar) * basis-row
/// with explicit multiply+add (simd::Madd never fuses), in the same
/// summation order as the scalar reference — the scalar simd fallback
/// produces bit-identical coefficients.
void ForwardDct(const float* in, float* out) {
  const DctTables& t = Tables();
  alignas(16) float tmp[kBlock * kBlock];
  for (int y = 0; y < kBlock; ++y) {
    simd::F32x4 lo = simd::Zero(), hi = simd::Zero();
    for (int x = 0; x < kBlock; ++x) {
      const simd::F32x4 s = simd::Broadcast(in[y * kBlock + x]);
      lo = simd::Madd(s, simd::Load(&t.ct[x][0]), lo);
      hi = simd::Madd(s, simd::Load(&t.ct[x][4]), hi);
    }
    simd::Store(&tmp[y * kBlock], lo);
    simd::Store(&tmp[y * kBlock + 4], hi);
  }
  for (int v = 0; v < kBlock; ++v) {
    simd::F32x4 lo = simd::Zero(), hi = simd::Zero();
    for (int y = 0; y < kBlock; ++y) {
      const simd::F32x4 s = simd::Broadcast(t.c[v][y]);
      lo = simd::Madd(s, simd::Load(&tmp[y * kBlock]), lo);
      hi = simd::Madd(s, simd::Load(&tmp[y * kBlock + 4]), hi);
    }
    simd::Store(&out[v * kBlock], lo);
    simd::Store(&out[v * kBlock + 4], hi);
  }
}

/// out = C^T * in * C (exact mirror of ForwardDct's structure).
void InverseDct(const float* in, float* out) {
  const DctTables& t = Tables();
  alignas(16) float tmp[kBlock * kBlock];
  for (int y = 0; y < kBlock; ++y) {
    simd::F32x4 lo = simd::Zero(), hi = simd::Zero();
    for (int v = 0; v < kBlock; ++v) {
      const simd::F32x4 s = simd::Broadcast(t.c[v][y]);
      lo = simd::Madd(s, simd::Load(&in[v * kBlock]), lo);
      hi = simd::Madd(s, simd::Load(&in[v * kBlock + 4]), hi);
    }
    simd::Store(&tmp[y * kBlock], lo);
    simd::Store(&tmp[y * kBlock + 4], hi);
  }
  for (int y = 0; y < kBlock; ++y) {
    simd::F32x4 lo = simd::Zero(), hi = simd::Zero();
    for (int u = 0; u < kBlock; ++u) {
      const simd::F32x4 s = simd::Broadcast(tmp[y * kBlock + u]);
      lo = simd::Madd(s, simd::Load(&t.c[u][0]), lo);
      hi = simd::Madd(s, simd::Load(&t.c[u][4]), hi);
    }
    simd::Store(&out[y * kBlock], lo);
    simd::Store(&out[y * kBlock + 4], hi);
  }
}

/// Zigzag scan order for 8x8 blocks.
constexpr std::array<int, 64> MakeZigzag() {
  std::array<int, 64> order{};
  int idx = 0;
  for (int s = 0; s < 2 * kBlock - 1; ++s) {
    if (s % 2 == 0) {
      for (int y = std::min(s, kBlock - 1); y >= 0 && s - y < kBlock; --y) {
        order[idx++] = y * kBlock + (s - y);
      }
    } else {
      for (int x = std::min(s, kBlock - 1); x >= 0 && s - x < kBlock; --x) {
        order[idx++] = (s - x) * kBlock + x;
      }
    }
  }
  return order;
}
constexpr auto kZigzag = MakeZigzag();

/// Inverse permutation: block position -> zigzag scan index.
constexpr std::array<int, 64> MakeInvZigzag() {
  std::array<int, 64> inv{};
  for (int i = 0; i < 64; ++i) inv[static_cast<std::size_t>(kZigzag[i])] = i;
  return inv;
}
constexpr auto kInvZigzag = MakeInvZigzag();

/// H.264-style step size: doubles every 6 QP; ~1.0 at QP 8.
float QStep(int qp) { return 0.625f * std::exp2(static_cast<float>(qp) / 6.0f); }

/// Frequency weighting (coarser quantization at high frequencies).
float FreqWeight(int zigzag_index) {
  return 1.0f + 0.06f * static_cast<float>(zigzag_index);
}

/// Rebuilds the per-QP step tables when the QP changes (at a steady QP this
/// is a single compare per frame). Both sides derive dequant from the same
/// table, so encoder reconstruction and decoder output stay in lockstep.
void BuildQuantLut(detail::QuantLut& lut, int qp) {
  if (lut.qp == qp) return;
  lut.qp = qp;
  for (int i = 0; i < 64; ++i) {
    const float step = QStep(qp) * FreqWeight(i);
    const auto block_pos = static_cast<std::size_t>(kZigzag[i]);
    lut.step[block_pos] = step;
    lut.inv_step[block_pos] = 1.0f / step;
  }
}

/// Per-frame entropy contexts. The sig/zero flags exist to keep the serial
/// bit count down: an adaptive bit costs the coder the same ~9-cycle chain
/// step whether it carries 0.05 or 1.0 bits of information, so flagging the
/// common cases (zero AC coefficient, unchanged motion vector) with one
/// model bit is far cheaper than running them through the 6-bit slot tree.
struct CoeffModels {
  compress::SignedValueCoder dc;
  compress::SignedValueCoder ac_low;   // zigzag 1..15
  compress::SignedValueCoder ac_high;  // zigzag 16..63
  compress::BitModel ac_sig_low;       // "coefficient nonzero?" per zone
  compress::BitModel ac_sig_high;
  compress::BitTree<7> last_index;     // number of coded coefficients, 0..64
  compress::BitModel mv_skip;          // "mv delta == (0,0)?" (P frames)
  compress::SignedValueCoder mv_x;     // motion vectors (P frames)
  compress::SignedValueCoder mv_y;
};

constexpr int kMotionRange = 7;  // max |mv| component, pixels

/// Zero-motion SAD at or below this skips the diamond refine entirely: two
/// grey levels per pixel on average is sensor grain (independent per-frame
/// noise at stddev ~1.2 differs by ~1.4 per pixel), and the search would
/// converge to (0,0) anyway. On static-background content (every 2D
/// persona) this removes most probe SADs. Encoder-side heuristic only — the
/// decoder is mv-agnostic.
constexpr std::uint32_t kSkipSearchSad = 2 * 64;

/// Clamped reference fetch for motion compensation.
float RefPixel(const VideoFrame& ref, int x, int y) {
  x = std::clamp(x, 0, ref.width - 1);
  y = std::clamp(y, 0, ref.height - 1);
  return static_cast<float>(ref.at(x, y));
}

/// True when the 8x8 window at (x0 + mvx, y0 + mvy) lies fully inside the
/// frame, i.e. no per-pixel clamping is needed.
bool WindowInterior(int w, int h, int x0, int y0, int mvx, int mvy) {
  return x0 + mvx >= 0 && y0 + mvy >= 0 && x0 + mvx + kBlock <= w && y0 + mvy + kBlock <= h;
}

/// Sum of absolute differences between the source block at (bx,by) and the
/// reference displaced by (mvx,mvy). Pixels are integers, so integer SAD is
/// exact; interior blocks take the packed-SAD row path.
std::uint32_t BlockSad(const VideoFrame& frame, const VideoFrame& ref, int bx, int by, int mvx,
                       int mvy) {
  const int x0 = bx * kBlock, y0 = by * kBlock;
  const int w = frame.width, h = frame.height;
  if (WindowInterior(w, h, x0, y0, 0, 0) && WindowInterior(w, h, x0, y0, mvx, mvy)) {
    const std::uint8_t* src = frame.luma.data() + static_cast<std::size_t>(y0) * w + x0;
    const std::uint8_t* rp =
        ref.luma.data() + static_cast<std::size_t>(y0 + mvy) * w + (x0 + mvx);
    std::uint32_t sad = 0;
    for (int y = 0; y < kBlock; ++y) {
      sad += simd::Sad8(src, rp);
      src += w;
      rp += w;
    }
    return sad;
  }
  std::uint32_t sad = 0;
  for (int y = 0; y < kBlock; ++y) {
    for (int x = 0; x < kBlock; ++x) {
      const int px = std::min(x0 + x, w - 1);
      const int py = std::min(y0 + y, h - 1);
      const int d = static_cast<int>(frame.at(px, py)) -
                    static_cast<int>(RefPixel(ref, px + mvx, py + mvy));
      sad += static_cast<std::uint32_t>(d < 0 ? -d : d);
    }
  }
  return sad;
}

/// Diamond motion search seeded with (0,0) and the left-neighbour predictor.
std::pair<int, int> SearchMotion(const VideoFrame& frame, const VideoFrame& ref, int bx,
                                 int by, std::pair<int, int> predicted) {
  std::pair<int, int> best{0, 0};
  std::uint32_t best_cost = BlockSad(frame, ref, bx, by, 0, 0);
  if (best_cost <= kSkipSearchSad) return best;
  const auto consider = [&](int mvx, int mvy) {
    if (std::abs(mvx) > kMotionRange || std::abs(mvy) > kMotionRange) return;
    const std::uint32_t cost = BlockSad(frame, ref, bx, by, mvx, mvy);
    if (cost < best_cost) {
      best_cost = cost;
      best = {mvx, mvy};
    }
  };
  consider(predicted.first, predicted.second);
  for (int step = 0; step < 4; ++step) {
    const auto [cx, cy] = best;
    consider(cx + 1, cy);
    consider(cx - 1, cy);
    consider(cx, cy + 1);
    consider(cx, cy - 1);
    if (best.first == cx && best.second == cy) break;  // converged
  }
  return best;
}

compress::SignedValueCoder& AcCoder(CoeffModels& m, int zz) {
  return zz < 16 ? m.ac_low : m.ac_high;
}

/// The per-frame encode loop, coding through a RangeEncoder::Hot session.
/// Fills `recon` with the decoder-identical reconstruction.
void EncodeBlocks(const VideoFrame& frame, const VideoFrame& reference, VideoFrame& recon,
                  bool keyframe, const detail::QuantLut& lut, detail::CodecScratch& s,
                  compress::RangeEncoder::Hot& rc) {
  const int w = frame.width, h = frame.height;
  const int bw = (w + kBlock - 1) / kBlock;
  const int bh = (h + kBlock - 1) / kBlock;
  CoeffModels models;
  std::int64_t prev_dc = 0;

  for (int by = 0; by < bh; ++by) {
    std::pair<int, int> mv_predictor{0, 0};
    for (int bx = 0; bx < bw; ++bx) {
      // Motion search (P frames): zero-motion fallback plus diamond refine.
      std::pair<int, int> mv{0, 0};
      if (!keyframe) {
        mv = SearchMotion(frame, reference, bx, by, mv_predictor);
      }
      const int x0 = bx * kBlock, y0 = by * kBlock;
      const bool interior = WindowInterior(w, h, x0, y0, 0, 0);
      const bool ref_interior =
          keyframe || WindowInterior(w, h, x0, y0, mv.first, mv.second);

      // Gather the (residual) block; edge blocks clamp per pixel.
      if (interior && ref_interior) {
        const std::uint8_t* src = frame.luma.data() + static_cast<std::size_t>(y0) * w + x0;
        if (keyframe) {
          for (int y = 0; y < kBlock; ++y, src += w) {
            simd::F32x4 lo, hi;
            simd::LoadU8x8(src, &lo, &hi);
            simd::Store(&s.pixels[static_cast<std::size_t>(y * kBlock)], lo);
            simd::Store(&s.pixels[static_cast<std::size_t>(y * kBlock + 4)], hi);
          }
        } else {
          const std::uint8_t* rp = reference.luma.data() +
                                   static_cast<std::size_t>(y0 + mv.second) * w +
                                   (x0 + mv.first);
          for (int y = 0; y < kBlock; ++y, src += w, rp += w) {
            simd::F32x4 slo, shi, rlo, rhi;
            simd::LoadU8x8(src, &slo, &shi);
            simd::LoadU8x8(rp, &rlo, &rhi);
            simd::Store(&s.pixels[static_cast<std::size_t>(y * kBlock)], simd::Sub(slo, rlo));
            simd::Store(&s.pixels[static_cast<std::size_t>(y * kBlock + 4)],
                        simd::Sub(shi, rhi));
          }
        }
      } else {
        for (int y = 0; y < kBlock; ++y) {
          for (int x = 0; x < kBlock; ++x) {
            const int px = std::min(x0 + x, w - 1);
            const int py = std::min(y0 + y, h - 1);
            float v = static_cast<float>(frame.at(px, py));
            if (!keyframe) v -= RefPixel(reference, px + mv.first, py + mv.second);
            s.pixels[static_cast<std::size_t>(y * kBlock + x)] = v;
          }
        }
      }
      ForwardDct(s.pixels.data(), s.coeffs.data());
      if (!keyframe) {
        const int dx = mv.first - mv_predictor.first;
        const int dy = mv.second - mv_predictor.second;
        rc.EncodeBit(models.mv_skip, dx == 0 && dy == 0);
        if (dx != 0 || dy != 0) {
          models.mv_x.Encode(rc, dx);
          models.mv_y.Encode(rc, dy);
        }
        mv_predictor = mv;
      }

      // Quantize the whole block with packed multiplies against the hoisted
      // reciprocal table (round-to-nearest-even), then find the last nonzero
      // in zigzag order.
      for (int j = 0; j < 64; j += 4) {
        simd::RoundToInt(simd::Mul(simd::Load(&s.coeffs[static_cast<std::size_t>(j)]),
                                   simd::Load(&lut.inv_step[static_cast<std::size_t>(j)])),
                         &s.qblock[static_cast<std::size_t>(j)]);
      }
      int last = 0;
      for (int j = 0; j < 64; j += 4) {
        std::uint32_t nz = simd::NonzeroMask4(&s.qblock[static_cast<std::size_t>(j)]);
        while (nz != 0) {
          const int k = std::countr_zero(nz);
          nz &= nz - 1;
          last = std::max(last, kInvZigzag[static_cast<std::size_t>(j + k)] + 1);
        }
      }

      models.last_index.Encode(rc, static_cast<std::uint32_t>(last));
      for (int i = 0; i < last; ++i) {
        const std::int32_t level = s.qblock[static_cast<std::size_t>(kZigzag[i])];
        if (i == 0) {
          // DC is delta-coded across blocks (strong spatial correlation).
          models.dc.Encode(rc, level - prev_dc);
          prev_dc = level;
        } else {
          // One significance bit per interior zero; the coefficient at
          // last-1 is nonzero by definition of the scan, so it skips it.
          if (i != last - 1) {
            rc.EncodeBit(i < 16 ? models.ac_sig_low : models.ac_sig_high, level != 0);
            if (level == 0) continue;
          }
          AcCoder(models, i).Encode(rc, level);
        }
      }
      if (last == 0 && keyframe) {
        // DC of an all-zero block is 0; keep the DC predictor in sync.
        prev_dc = 0;
      }

      // Reconstruct for the reference (mirrors the decoder). Every level at
      // zigzag index >= last is zero by construction, so the full-block
      // dequant multiply equals the decoder's zero-filled-beyond-last form.
      if (last == 0) {
        // The IDCT of an all-zero block is exactly zero, so the
        // reconstruction is the prediction itself: the motion-compensated
        // reference window on P blocks, black on keyframes. Skipping the
        // dequant+IDCT here is bit-exact and removes the transform from
        // every static-background block.
        if (interior && ref_interior) {
          std::uint8_t* dst = recon.luma.data() + static_cast<std::size_t>(y0) * w + x0;
          if (keyframe) {
            for (int y = 0; y < kBlock; ++y, dst += w) std::memset(dst, 0, kBlock);
          } else {
            const std::uint8_t* rp = reference.luma.data() +
                                     static_cast<std::size_t>(y0 + mv.second) * w +
                                     (x0 + mv.first);
            for (int y = 0; y < kBlock; ++y, dst += w, rp += w) std::memcpy(dst, rp, kBlock);
          }
        } else {
          for (int y = 0; y < kBlock; ++y) {
            for (int x = 0; x < kBlock; ++x) {
              const int px = x0 + x, py = y0 + y;
              if (px >= w || py >= h) continue;
              recon.set(px, py,
                        keyframe ? 0
                                 : static_cast<std::uint8_t>(
                                       RefPixel(reference, px + mv.first, py + mv.second)));
            }
          }
        }
        continue;
      }
      for (int j = 0; j < 64; j += 4) {
        simd::Store(&s.deq[static_cast<std::size_t>(j)],
                    simd::Mul(simd::FromInt(&s.qblock[static_cast<std::size_t>(j)]),
                              simd::Load(&lut.step[static_cast<std::size_t>(j)])));
      }
      InverseDct(s.deq.data(), s.rec.data());
      if (interior && ref_interior) {
        std::uint8_t* dst = recon.luma.data() + static_cast<std::size_t>(y0) * w + x0;
        const std::uint8_t* rp =
            keyframe ? nullptr
                     : reference.luma.data() + static_cast<std::size_t>(y0 + mv.second) * w +
                           (x0 + mv.first);
        for (int y = 0; y < kBlock; ++y, dst += w) {
          simd::F32x4 lo = simd::Load(&s.rec[static_cast<std::size_t>(y * kBlock)]);
          simd::F32x4 hi = simd::Load(&s.rec[static_cast<std::size_t>(y * kBlock + 4)]);
          if (!keyframe) {
            simd::F32x4 rlo, rhi;
            simd::LoadU8x8(rp, &rlo, &rhi);
            lo = simd::Add(lo, rlo);
            hi = simd::Add(hi, rhi);
            rp += w;
          }
          simd::StoreU8x8(lo, hi, dst);
        }
      } else {
        for (int y = 0; y < kBlock; ++y) {
          for (int x = 0; x < kBlock; ++x) {
            const int px = x0 + x, py = y0 + y;
            if (px >= w || py >= h) continue;
            float v = s.rec[static_cast<std::size_t>(y * kBlock + x)];
            if (!keyframe) v += RefPixel(reference, px + mv.first, py + mv.second);
            recon.set(px, py, static_cast<std::uint8_t>(std::clamp(v, 0.0f, 255.0f)));
          }
        }
      }
    }
  }
}

/// The per-frame decode loop.
void DecodeBlocks(VideoFrame& frame, const VideoFrame& reference, bool keyframe,
                  const detail::QuantLut& lut, detail::CodecScratch& s,
                  compress::RangeDecoder& rc) {
  const int w = frame.width, h = frame.height;
  const int bw = (w + kBlock - 1) / kBlock;
  const int bh = (h + kBlock - 1) / kBlock;
  CoeffModels models;
  std::int64_t prev_dc = 0;

  for (int by = 0; by < bh; ++by) {
    std::pair<int, int> mv_predictor{0, 0};
    for (int bx = 0; bx < bw; ++bx) {
      std::pair<int, int> mv{0, 0};
      if (!keyframe) {
        mv = mv_predictor;
        if (rc.DecodeBit(models.mv_skip) == 0) {
          mv.first += static_cast<int>(models.mv_x.Decode(rc));
          mv.second += static_cast<int>(models.mv_y.Decode(rc));
        }
        if (std::abs(mv.first) > kMotionRange || std::abs(mv.second) > kMotionRange) {
          throw compress::CorruptStream("video: motion vector out of range");
        }
        mv_predictor = mv;
      }
      const int last = static_cast<int>(models.last_index.Decode(rc));
      if (last > 64) throw compress::CorruptStream("video: bad coefficient count");
      if (last != 0) s.qblock.fill(0);  // the skip path below never reads it
      for (int i = 0; i < last; ++i) {
        std::int64_t level;
        if (i == 0) {
          level = prev_dc + models.dc.Decode(rc);
          prev_dc = level;
        } else {
          if (i != last - 1 &&
              rc.DecodeBit(i < 16 ? models.ac_sig_low : models.ac_sig_high) == 0) {
            continue;
          }
          level = AcCoder(models, i).Decode(rc);
        }
        s.qblock[static_cast<std::size_t>(kZigzag[i])] = static_cast<std::int32_t>(
            std::clamp<std::int64_t>(level, INT32_MIN, INT32_MAX));
      }
      if (last == 0 && keyframe) prev_dc = 0;

      const int x0 = bx * kBlock, y0 = by * kBlock;
      const bool interior = WindowInterior(w, h, x0, y0, 0, 0);
      const bool ref_interior =
          keyframe || WindowInterior(w, h, x0, y0, mv.first, mv.second);
      if (last == 0) {
        // Mirror of the encoder's skip path: zero levels -> zero IDCT -> the
        // output block is the prediction, copied without a transform.
        if (interior && ref_interior) {
          std::uint8_t* dst = frame.luma.data() + static_cast<std::size_t>(y0) * w + x0;
          if (keyframe) {
            for (int y = 0; y < kBlock; ++y, dst += w) std::memset(dst, 0, kBlock);
          } else {
            const std::uint8_t* rp = reference.luma.data() +
                                     static_cast<std::size_t>(y0 + mv.second) * w +
                                     (x0 + mv.first);
            for (int y = 0; y < kBlock; ++y, dst += w, rp += w) std::memcpy(dst, rp, kBlock);
          }
        } else {
          for (int y = 0; y < kBlock; ++y) {
            for (int x = 0; x < kBlock; ++x) {
              const int px = x0 + x, py = y0 + y;
              if (px >= w || py >= h) continue;
              frame.set(px, py,
                        keyframe ? 0
                                 : static_cast<std::uint8_t>(
                                       RefPixel(reference, px + mv.first, py + mv.second)));
            }
          }
        }
        continue;
      }
      for (int j = 0; j < 64; j += 4) {
        simd::Store(&s.deq[static_cast<std::size_t>(j)],
                    simd::Mul(simd::FromInt(&s.qblock[static_cast<std::size_t>(j)]),
                              simd::Load(&lut.step[static_cast<std::size_t>(j)])));
      }
      InverseDct(s.deq.data(), s.rec.data());

      if (interior && ref_interior) {
        std::uint8_t* dst = frame.luma.data() + static_cast<std::size_t>(y0) * w + x0;
        const std::uint8_t* rp =
            keyframe ? nullptr
                     : reference.luma.data() + static_cast<std::size_t>(y0 + mv.second) * w +
                           (x0 + mv.first);
        for (int y = 0; y < kBlock; ++y, dst += w) {
          simd::F32x4 lo = simd::Load(&s.rec[static_cast<std::size_t>(y * kBlock)]);
          simd::F32x4 hi = simd::Load(&s.rec[static_cast<std::size_t>(y * kBlock + 4)]);
          if (!keyframe) {
            simd::F32x4 rlo, rhi;
            simd::LoadU8x8(rp, &rlo, &rhi);
            lo = simd::Add(lo, rlo);
            hi = simd::Add(hi, rhi);
            rp += w;
          }
          simd::StoreU8x8(lo, hi, dst);
        }
      } else {
        for (int y = 0; y < kBlock; ++y) {
          for (int x = 0; x < kBlock; ++x) {
            const int px = x0 + x, py = y0 + y;
            if (px >= w || py >= h) continue;
            float v = s.rec[static_cast<std::size_t>(y * kBlock + x)];
            if (!keyframe) v += RefPixel(reference, px + mv.first, py + mv.second);
            frame.set(px, py, static_cast<std::uint8_t>(std::clamp(v, 0.0f, 255.0f)));
          }
        }
      }
    }
  }
}

}  // namespace

VideoEncoder::VideoEncoder(Resolution resolution, VideoCodecConfig config)
    : resolution_(resolution), config_(config) {}

EncodedFrame VideoEncoder::Encode(const VideoFrame& frame, int qp) {
  EncodedFrame out;
  EncodeInto(frame, qp, out);
  return out;
}

void VideoEncoder::EncodeInto(const VideoFrame& frame, int qp, EncodedFrame& out) {
  qp = std::clamp(qp, 1, 51);
  if (frame.width != resolution_.width || frame.height != resolution_.height) {
    throw std::invalid_argument("VideoEncoder: frame size mismatch");
  }
  const bool keyframe = force_keyframe_ || !have_reference_ ||
                        frame_index_ % static_cast<std::uint64_t>(config_.gop_length) == 0;
  force_keyframe_ = false;
  ++frame_index_;

  out.keyframe = keyframe;
  out.qp = qp;
  out.bytes.clear();
  out.bytes.push_back(keyframe ? kFlagKeyframe : 0);
  out.bytes.push_back(static_cast<std::uint8_t>(qp));
  compress::PutUleb128(out.bytes, static_cast<std::uint64_t>(frame.width));
  compress::PutUleb128(out.bytes, static_cast<std::uint64_t>(frame.height));

  if (!have_reference_) {
    reference_ = VideoFrame(frame.width, frame.height);
  }
  if (recon_.width != frame.width || recon_.height != frame.height) {
    recon_ = VideoFrame(frame.width, frame.height);
  }
  BuildQuantLut(lut_, qp);

  compress::RangeEncoder rc(&out.bytes);
  {
    compress::RangeEncoder::Hot hot(rc);
    EncodeBlocks(frame, reference_, recon_, keyframe, lut_, scratch_, hot);
  }
  rc.Flush();
  // Every pixel of recon_ was written above, so the old reference's bytes
  // never leak; the swap recycles its buffer as next frame's target.
  std::swap(reference_, recon_);
  have_reference_ = true;
}

VideoDecoder::VideoDecoder(Resolution resolution) : resolution_(resolution) {}

std::optional<VideoFrame> VideoDecoder::Decode(std::span<const std::uint8_t> bytes) {
  VideoFrame frame;
  if (!DecodeInto(bytes, frame)) return std::nullopt;
  return frame;
}

bool VideoDecoder::DecodeInto(std::span<const std::uint8_t> bytes, VideoFrame& out) {
  std::size_t pos = 0;
  if (bytes.size() < 2) throw compress::CorruptStream("video: truncated header");
  const std::uint8_t flags = bytes[pos++];
  if ((flags & ~kFlagKeyframe) != 0) throw compress::CorruptStream("video: unknown header flag");
  const bool keyframe = (flags & kFlagKeyframe) != 0;
  const int qp = bytes[pos++];
  if (qp < 1 || qp > 51) throw compress::CorruptStream("video: bad qp");
  const auto width = static_cast<int>(compress::GetUleb128(bytes, &pos));
  const auto height = static_cast<int>(compress::GetUleb128(bytes, &pos));
  if (width != resolution_.width || height != resolution_.height) {
    throw compress::CorruptStream("video: resolution mismatch");
  }
  if (!keyframe && !have_reference_) return false;

  BuildQuantLut(lut_, qp);
  if (out.width != width || out.height != height) {
    out = VideoFrame(width, height);
  }

  compress::RangeDecoder rc(bytes.subspan(pos));
  DecodeBlocks(out, reference_, keyframe, lut_, scratch_, rc);
  reference_ = out;  // copy-assign: reuses the reference buffer once warm
  have_reference_ = true;
  return true;
}

}  // namespace vtp::video
