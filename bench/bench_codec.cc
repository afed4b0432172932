// Video codec engine benchmark: the vectorized video encoder against its
// serial predecessor.
//
//   1. video encode A/B — a talking-head sequence through (a) a pinned
//      replica of the pre-SIMD scalar encoder (per-call recon allocation,
//      double SAD with per-pixel clamping, divide-based quantization) and
//      (b) the vectorized encoder;
//   2. steady-state allocations — warm EncodeInto/DecodeInto loops must not
//      touch the heap.
//
// Results go to BENCH_codec.json (override with VTP_BENCH_JSON) including
// the compile-time SIMD ISA; `--smoke` shrinks the run for CI. Exit is
// nonzero on any correctness failure, steady-state allocation, or an A/B
// speedup below 1.0 (the 3x target is recorded in the JSON and enforced
// out-of-band — CI boxes share cores, so the hard gate is regression-only).
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <new>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/report.h"
#include "compress/entropy.h"
#include "compress/range_coder.h"
#include "compress/varint.h"
#include "core/json.h"
#include "core/simd.h"
#include "core/table.h"
#include "video/codec.h"
#include "video/frame.h"
#include "video/talking_head.h"

using namespace vtp;

// ---- allocation counter -----------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// ---- pinned replica of the pre-SIMD video encoder ---------------------------
// Byte-for-byte the scalar encoder this PR replaced: per-call reconstruction
// allocation, double-precision SAD with per-pixel edge clamping on every
// probe, divide + lround quantization in zigzag order, scalar DCT. Kept here
// so the A/B baseline cannot silently inherit later optimizations.

namespace seedvideo {

constexpr int kBlock = 8;
constexpr std::uint8_t kFlagKeyframe = 0x01;

struct DctBasis {
  std::array<std::array<float, kBlock>, kBlock> c{};
  DctBasis() {
    for (int u = 0; u < kBlock; ++u) {
      const float alpha = u == 0 ? std::sqrt(1.0f / kBlock) : std::sqrt(2.0f / kBlock);
      for (int x = 0; x < kBlock; ++x) {
        c[u][x] = alpha * std::cos((2 * x + 1) * u * std::numbers::pi_v<float> / (2 * kBlock));
      }
    }
  }
};
const DctBasis& Basis() {
  static const DctBasis basis;
  return basis;
}

using Block = std::array<float, kBlock * kBlock>;

void ForwardDct(const Block& in, Block& out) {
  const auto& c = Basis().c;
  Block tmp;
  for (int y = 0; y < kBlock; ++y) {
    for (int u = 0; u < kBlock; ++u) {
      float s = 0;
      for (int x = 0; x < kBlock; ++x) s += in[y * kBlock + x] * c[u][x];
      tmp[y * kBlock + u] = s;
    }
  }
  for (int u = 0; u < kBlock; ++u) {
    for (int v = 0; v < kBlock; ++v) {
      float s = 0;
      for (int y = 0; y < kBlock; ++y) s += tmp[y * kBlock + u] * c[v][y];
      out[v * kBlock + u] = s;
    }
  }
}

void InverseDct(const Block& in, Block& out) {
  const auto& c = Basis().c;
  Block tmp;
  for (int u = 0; u < kBlock; ++u) {
    for (int y = 0; y < kBlock; ++y) {
      float s = 0;
      for (int v = 0; v < kBlock; ++v) s += in[v * kBlock + u] * c[v][y];
      tmp[y * kBlock + u] = s;
    }
  }
  for (int y = 0; y < kBlock; ++y) {
    for (int x = 0; x < kBlock; ++x) {
      float s = 0;
      for (int u = 0; u < kBlock; ++u) s += tmp[y * kBlock + u] * c[u][x];
      out[y * kBlock + x] = s;
    }
  }
}

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

float QStep(int qp) { return 0.625f * std::exp2(static_cast<float>(qp) / 6.0f); }
float FreqWeight(int zz) { return 1.0f + 0.06f * static_cast<float>(zz); }

struct CoeffModels {
  compress::SignedValueCoder dc;
  compress::SignedValueCoder ac_low;
  compress::SignedValueCoder ac_high;
  compress::BitTree<7> last_index;
  compress::SignedValueCoder mv_x;
  compress::SignedValueCoder mv_y;
};

constexpr int kMotionRange = 7;

float RefPixel(const video::VideoFrame& ref, int x, int y) {
  x = std::clamp(x, 0, ref.width - 1);
  y = std::clamp(y, 0, ref.height - 1);
  return static_cast<float>(ref.at(x, y));
}

double BlockSad(const video::VideoFrame& frame, const video::VideoFrame& ref, int bx, int by,
                int mvx, int mvy) {
  double sad = 0;
  for (int y = 0; y < kBlock; ++y) {
    for (int x = 0; x < kBlock; ++x) {
      const int px = std::min(bx * kBlock + x, frame.width - 1);
      const int py = std::min(by * kBlock + y, frame.height - 1);
      sad += std::abs(static_cast<float>(frame.at(px, py)) - RefPixel(ref, px + mvx, py + mvy));
    }
  }
  return sad;
}

std::pair<int, int> SearchMotion(const video::VideoFrame& frame, const video::VideoFrame& ref,
                                 int bx, int by, std::pair<int, int> predicted) {
  std::pair<int, int> best{0, 0};
  double best_cost = BlockSad(frame, ref, bx, by, 0, 0);
  const auto consider = [&](int mvx, int mvy) {
    if (std::abs(mvx) > kMotionRange || std::abs(mvy) > kMotionRange) return;
    const double cost = BlockSad(frame, ref, bx, by, mvx, mvy);
    if (cost < best_cost - 1e-9) {
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
    if (best.first == cx && best.second == cy) break;
  }
  return best;
}

compress::SignedValueCoder& AcCoder(CoeffModels& m, int zz) {
  return zz < 16 ? m.ac_low : m.ac_high;
}

class Encoder {
 public:
  Encoder(video::Resolution resolution, int gop) : resolution_(resolution), gop_(gop) {}

  video::EncodedFrame Encode(const video::VideoFrame& frame, int qp) {
    qp = std::clamp(qp, 1, 51);
    const bool keyframe = !have_reference_ ||
                          frame_index_ % static_cast<std::uint64_t>(gop_) == 0;
    ++frame_index_;

    video::EncodedFrame out;
    out.keyframe = keyframe;
    out.qp = qp;
    out.bytes.push_back(keyframe ? kFlagKeyframe : 0);
    out.bytes.push_back(static_cast<std::uint8_t>(qp));
    compress::PutUleb128(out.bytes, static_cast<std::uint64_t>(frame.width));
    compress::PutUleb128(out.bytes, static_cast<std::uint64_t>(frame.height));

    if (!have_reference_) reference_ = video::VideoFrame(frame.width, frame.height);

    const int bw = (frame.width + kBlock - 1) / kBlock;
    const int bh = (frame.height + kBlock - 1) / kBlock;
    const float qstep = QStep(qp);

    compress::RangeEncoder rc(&out.bytes);
    CoeffModels models;
    std::int64_t prev_dc = 0;

    video::VideoFrame recon(frame.width, frame.height);
    Block pixels, coeffs, deq, rec;

    for (int by = 0; by < bh; ++by) {
      std::pair<int, int> mv_predictor{0, 0};
      for (int bx = 0; bx < bw; ++bx) {
        std::pair<int, int> mv{0, 0};
        if (!keyframe) mv = SearchMotion(frame, reference_, bx, by, mv_predictor);
        for (int y = 0; y < kBlock; ++y) {
          for (int x = 0; x < kBlock; ++x) {
            const int px = std::min(bx * kBlock + x, frame.width - 1);
            const int py = std::min(by * kBlock + y, frame.height - 1);
            float v = static_cast<float>(frame.at(px, py));
            if (!keyframe) v -= RefPixel(reference_, px + mv.first, py + mv.second);
            pixels[y * kBlock + x] = v;
          }
        }
        ForwardDct(pixels, coeffs);
        if (!keyframe) {
          models.mv_x.Encode(rc, mv.first - mv_predictor.first);
          models.mv_y.Encode(rc, mv.second - mv_predictor.second);
          mv_predictor = mv;
        }

        std::array<std::int32_t, 64> q{};
        int last = 0;
        for (int i = 0; i < 64; ++i) {
          const float step = qstep * FreqWeight(i);
          const auto level = static_cast<std::int32_t>(
              std::lround(coeffs[static_cast<std::size_t>(kZigzag[i])] / step));
          q[static_cast<std::size_t>(i)] = level;
          if (level != 0) last = i + 1;
        }

        models.last_index.Encode(rc, static_cast<std::uint32_t>(last));
        for (int i = 0; i < last; ++i) {
          if (i == 0) {
            models.dc.Encode(rc, q[0] - prev_dc);
            prev_dc = q[0];
          } else {
            AcCoder(models, i).Encode(rc, q[static_cast<std::size_t>(i)]);
          }
        }
        if (last == 0 && keyframe) prev_dc = 0;

        deq.fill(0);
        for (int i = 0; i < last; ++i) {
          deq[static_cast<std::size_t>(kZigzag[i])] =
              static_cast<float>(q[static_cast<std::size_t>(i)]) * qstep * FreqWeight(i);
        }
        InverseDct(deq, rec);
        for (int y = 0; y < kBlock; ++y) {
          for (int x = 0; x < kBlock; ++x) {
            const int px = bx * kBlock + x, py = by * kBlock + y;
            if (px >= frame.width || py >= frame.height) continue;
            float v = rec[y * kBlock + x];
            if (!keyframe) v += RefPixel(reference_, px + mv.first, py + mv.second);
            recon.set(px, py, static_cast<std::uint8_t>(std::clamp(v, 0.0f, 255.0f)));
          }
        }
      }
    }
    rc.Flush();
    reference_ = std::move(recon);
    have_reference_ = true;
    return out;
  }

 private:
  video::Resolution resolution_;
  int gop_;
  std::uint64_t frame_index_ = 0;
  video::VideoFrame reference_;
  bool have_reference_ = false;
};

}  // namespace seedvideo

namespace {

// ---- video encode A/B -------------------------------------------------------

struct VideoResult {
  std::size_t frames = 0;
  std::size_t seed_bytes = 0;
  std::size_t new_bytes = 0;
  double seed_wall_s = 0;
  double new_wall_s = 0;    ///< vectorized encoder
  double psnr_db = 0;       ///< decoded new stream vs source, last frame
  bool decode_ok = true;
  bool size_parity = true;  ///< new <= 110% of seed (smaller is fine: the
                            ///< sig-bit AC scheme beats the seed layout)

  double speedup() const { return new_wall_s > 0 ? seed_wall_s / new_wall_s : 0; }
};

VideoResult RunVideoAb(video::Resolution res, int frames, int reps, int qp, int gop) {
  VideoResult r;
  r.frames = static_cast<std::size_t>(frames);
  video::TalkingHeadConfig src_config;
  src_config.resolution = res;
  std::vector<video::VideoFrame> sequence;
  {
    video::TalkingHeadSource source(src_config, 77);
    for (int i = 0; i < frames; ++i) sequence.push_back(source.Next());
  }

  // Correctness pass: the new encoder's streams decode.
  {
    seedvideo::Encoder seed(res, gop);
    video::VideoEncoder enc(res, {.gop_length = gop});
    video::VideoDecoder dec(res);
    video::EncodedFrame out;
    video::VideoFrame decoded;
    for (int i = 0; i < frames; ++i) {
      r.seed_bytes += seed.Encode(sequence[static_cast<std::size_t>(i)], qp).bytes.size();
      enc.EncodeInto(sequence[static_cast<std::size_t>(i)], qp, out);
      r.new_bytes += out.bytes.size();
      if (!dec.DecodeInto(out.bytes, decoded)) r.decode_ok = false;
    }
    r.psnr_db = video::Psnr(sequence.back(), decoded);
    r.size_parity =
        static_cast<double>(r.new_bytes) <= 1.10 * static_cast<double>(r.seed_bytes);
  }

  // Timed sweeps. Fresh encoders per sweep so every rep pays the same
  // keyframe/GOP schedule; interleaved best-of-reps (shared-core CI box).
  std::size_t sink = 0;
  video::EncodedFrame out;
  for (int rep = 0; rep < reps; ++rep) {
    {
      seedvideo::Encoder seed(res, gop);
      const bench::WallTimer timer;
      for (const auto& f : sequence) sink += seed.Encode(f, qp).bytes.size();
      const double s = timer.seconds();
      if (rep == 0 || s < r.seed_wall_s) r.seed_wall_s = s;
    }
    {
      video::VideoEncoder enc(res, {.gop_length = gop});
      enc.EncodeInto(sequence.front(), qp, out);  // warm buffers (untimed)
      video::VideoEncoder timed(res, {.gop_length = gop});
      const bench::WallTimer timer;
      for (const auto& f : sequence) {
        timed.EncodeInto(f, qp, out);
        sink += out.bytes.size();
      }
      const double s = timer.seconds();
      if (rep == 0 || s < r.new_wall_s) r.new_wall_s = s;
    }
  }
  if (sink == 0) std::cout << "";
  return r;
}

// ---- steady-state allocations ----------------------------------------------

struct AllocResult {
  std::uint64_t video_encode_allocs = 0;  ///< warm VideoEncoder::EncodeInto
  std::uint64_t video_decode_allocs = 0;  ///< warm VideoDecoder::DecodeInto
};

AllocResult MeasureAllocs(video::Resolution res, int frames) {
  AllocResult r;
  video::TalkingHeadConfig src_config;
  src_config.resolution = res;
  video::TalkingHeadSource source(src_config, 31);
  std::vector<video::VideoFrame> sequence;
  for (int i = 0; i < frames; ++i) sequence.push_back(source.Next());

  video::VideoEncoder enc(res, {.gop_length = 10});
  video::VideoDecoder dec(res);
  video::EncodedFrame frame;
  video::VideoFrame decoded;
  std::vector<std::vector<std::uint8_t>> streams;
  for (const auto& f : sequence) {  // warm encoder + collect streams
    enc.EncodeInto(f, 14, frame);
    streams.push_back(frame.bytes);
    dec.DecodeInto(frame.bytes, decoded);  // warm decoder
  }
  g_allocs.store(0, std::memory_order_relaxed);
  for (const auto& f : sequence) enc.EncodeInto(f, 14, frame);
  r.video_encode_allocs = g_allocs.load(std::memory_order_relaxed);

  g_allocs.store(0, std::memory_order_relaxed);
  for (const auto& s : streams) dec.DecodeInto(s, decoded);
  r.video_decode_allocs = g_allocs.load(std::memory_order_relaxed);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const int reps = smoke ? 3 : 10;
  const video::Resolution res = smoke ? video::Resolution{160, 96} : video::Resolution{320, 192};
  const int video_frames = smoke ? 30 : 90;

  std::cout << "Codec engine benchmark: SIMD video (isa: " << simd::kIsaName << ")"
            << (smoke ? " (smoke)" : "") << "\n";

  bench::Banner("1. video encode A/B (" + std::to_string(res.width) + "x" +
                std::to_string(res.height) + ", " + std::to_string(video_frames) + " frames)");
  const VideoResult vid = RunVideoAb(res, video_frames, reps, 14, 10);
  std::cout << "seed scalar encoder: " << core::Fmt(vid.seed_wall_s, 4) << " s\n"
            << "SIMD encoder:        " << core::Fmt(vid.new_wall_s, 4) << " s ("
            << core::Fmt(vid.speedup(), 2) << "x, target >=3x)\n"
            << "decoded PSNR " << core::Fmt(vid.psnr_db, 1) << " dB, decode "
            << (vid.decode_ok ? "ok" : "FAILED") << ", size parity "
            << (vid.size_parity ? "ok" : "FAILED") << "\n";

  bench::Banner("2. steady-state allocations (warm buffers)");
  const AllocResult allocs = MeasureAllocs(res, smoke ? 10 : 30);
  std::cout << "VideoEncoder::EncodeInto:  " << allocs.video_encode_allocs << " allocs\n"
            << "VideoDecoder::DecodeInto:  " << allocs.video_decode_allocs << " allocs\n";
  const bool alloc_free = allocs.video_encode_allocs == 0 && allocs.video_decode_allocs == 0;

  const bool correctness_ok = vid.decode_ok && vid.size_parity && vid.psnr_db >= 40.0;

  // ---- JSON ---------------------------------------------------------------
  bench::JsonReport report("codec");
  core::JsonWriter& w = report.writer();
  w.Key("smoke"); w.Bool(smoke);
  w.Key("isa"); w.String(simd::kIsaName);
  w.Key("vector_isa"); w.Bool(simd::kVectorIsa);
  w.Key("video");
  w.BeginObject();
  w.Key("width"); w.Int(res.width);
  w.Key("height"); w.Int(res.height);
  w.Key("frames"); w.Int(static_cast<std::int64_t>(vid.frames));
  w.Key("seed_bytes"); w.Int(static_cast<std::int64_t>(vid.seed_bytes));
  w.Key("new_bytes"); w.Int(static_cast<std::int64_t>(vid.new_bytes));
  w.Key("seed_wall_s"); w.Number(vid.seed_wall_s);
  w.Key("new_wall_s"); w.Number(vid.new_wall_s);
  w.Key("speedup"); w.Number(vid.speedup());
  w.Key("speedup_target"); w.Number(3.0);
  w.Key("psnr_db"); w.Number(vid.psnr_db);
  w.Key("decode_ok"); w.Bool(vid.decode_ok);
  w.Key("size_parity"); w.Bool(vid.size_parity);
  w.EndObject();
  w.Key("steady_state");
  w.BeginObject();
  w.Key("video_encode_allocs"); w.Int(static_cast<std::int64_t>(allocs.video_encode_allocs));
  w.Key("video_decode_allocs"); w.Int(static_cast<std::int64_t>(allocs.video_decode_allocs));
  w.EndObject();
  w.Key("correctness_ok"); w.Bool(correctness_ok);
  w.Key("alloc_free"); w.Bool(alloc_free);

  const std::string path = report.Write();
  std::cout << "\nwrote " << path << "\n";

  if (!correctness_ok) std::cout << "FAIL: correctness checks failed\n";
  if (!alloc_free) std::cout << "FAIL: steady-state codec path allocated\n";
  if (vid.speedup() < 1.0) std::cout << "FAIL: SIMD video encode slower than seed\n";
  return correctness_ok && alloc_free && vid.speedup() >= 1.0 ? 0 : 1;
}
