// Tests for the video substrate: frame source, DCT codec, rate control, and
// the calibrated rate model.
#include <gtest/gtest.h>

#include <array>
#include <latch>
#include <random>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "compress/bitstream.h"
#include "netsim/random.h"
#include "video/codec.h"
#include "video/frame.h"
#include "video/rate_control.h"
#include "video/rate_model.h"
#include "video/talking_head.h"

namespace vtp::video {
namespace {

constexpr Resolution kSmall{160, 96};

TEST(Frame, PsnrIdentityAndSensitivity) {
  VideoFrame a(64, 64);
  for (std::size_t i = 0; i < a.luma.size(); ++i) a.luma[i] = static_cast<std::uint8_t>(i);
  EXPECT_GT(Psnr(a, a), 90.0);
  VideoFrame b = a;
  b.luma[0] = static_cast<std::uint8_t>(b.luma[0] + 50);
  EXPECT_LT(Psnr(a, b), 60.0);
  EXPECT_THROW(Psnr(a, VideoFrame(32, 32)), std::invalid_argument);
}

TEST(TalkingHead, DeterministicAndAnimated) {
  TalkingHeadConfig config;
  config.resolution = kSmall;
  TalkingHeadSource s1(config, 4), s2(config, 4);
  const VideoFrame f1 = s1.Next();
  const VideoFrame f2 = s2.Next();
  EXPECT_EQ(f1.luma, f2.luma);

  // Later frames differ (head sway + mouth + grain).
  VideoFrame later = s1.Next();
  for (int i = 0; i < 30; ++i) later = s1.Next();
  EXPECT_LT(Psnr(f1, later), 45.0);
}

TEST(TalkingHead, HasFaceStructure) {
  TalkingHeadConfig config;
  config.resolution = kSmall;
  config.grain_stddev = 0;
  TalkingHeadSource src(config, 1);
  const VideoFrame f = src.Next();
  // Centre (face) is brighter than the top-left background corner.
  EXPECT_GT(f.at(kSmall.width / 2, kSmall.height / 2), f.at(2, 2) + 30);
}

// --- codec ----------------------------------------------------------------------

TEST(VideoCodec, IntraRoundTripDecodes) {
  TalkingHeadConfig config;
  config.resolution = kSmall;
  TalkingHeadSource src(config, 2);
  const VideoFrame original = src.Next();

  VideoEncoder enc(kSmall);
  VideoDecoder dec(kSmall);
  const EncodedFrame encoded = enc.Encode(original, 10);
  EXPECT_TRUE(encoded.keyframe);
  const auto decoded = dec.Decode(encoded.bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_GT(Psnr(original, *decoded), 34.0);
}

TEST(VideoCodec, InterFramesTrackMotion) {
  TalkingHeadConfig config;
  config.resolution = kSmall;
  TalkingHeadSource src(config, 3);
  VideoEncoder enc(kSmall, {.gop_length = 100});
  VideoDecoder dec(kSmall);
  double worst_psnr = 100;
  for (int i = 0; i < 12; ++i) {
    const VideoFrame frame = src.Next();
    const EncodedFrame encoded = enc.Encode(frame, 12);
    EXPECT_EQ(encoded.keyframe, i == 0);
    const auto decoded = dec.Decode(encoded.bytes);
    ASSERT_TRUE(decoded.has_value());
    worst_psnr = std::min(worst_psnr, Psnr(frame, *decoded));
  }
  EXPECT_GT(worst_psnr, 32.0);  // no drift across the GOP
}

TEST(VideoCodec, PFramesAreSmallerThanIFrames) {
  // Grain-free content isolates the temporal prediction gain: P frames only
  // pay for the head's motion, a fraction of the full intra picture.
  TalkingHeadConfig config;
  config.resolution = kSmall;
  config.grain_stddev = 0;
  TalkingHeadSource src(config, 5);
  VideoEncoder enc(kSmall, {.gop_length = 100});
  const std::size_t i_bytes = enc.Encode(src.Next(), 12).bytes.size();
  std::size_t p_bytes = 0;
  for (int i = 0; i < 5; ++i) p_bytes += enc.Encode(src.Next(), 12).bytes.size();
  EXPECT_LT(p_bytes / 5, i_bytes / 2);
}

class QpSweep : public ::testing::TestWithParam<int> {};

TEST_P(QpSweep, HigherQpMeansFewerBytesAndLowerQuality) {
  const int qp = GetParam();
  TalkingHeadConfig config;
  config.resolution = kSmall;
  TalkingHeadSource src_a(config, 6), src_b(config, 6);
  VideoEncoder enc_a(kSmall), enc_b(kSmall);
  VideoDecoder dec_a(kSmall), dec_b(kSmall);
  const VideoFrame frame_a = src_a.Next();
  const VideoFrame frame_b = src_b.Next();

  const EncodedFrame at_qp = enc_a.Encode(frame_a, qp);
  const EncodedFrame at_qp6 = enc_b.Encode(frame_b, qp + 6);  // step doubles
  EXPECT_GT(at_qp.bytes.size(), at_qp6.bytes.size());
  EXPECT_GE(Psnr(frame_a, *dec_a.Decode(at_qp.bytes)), Psnr(frame_b, *dec_b.Decode(at_qp6.bytes)));
}

INSTANTIATE_TEST_SUITE_P(Qps, QpSweep, ::testing::Values(8, 14, 20, 26, 32));

TEST(VideoCodec, DecoderWithoutReferenceReturnsNullopt) {
  TalkingHeadConfig config;
  config.resolution = kSmall;
  TalkingHeadSource src(config, 7);
  VideoEncoder enc(kSmall, {.gop_length = 100});
  enc.Encode(src.Next(), 20);                               // I (not given to decoder)
  const EncodedFrame p = enc.Encode(src.Next(), 20);        // P
  VideoDecoder dec(kSmall);
  EXPECT_FALSE(dec.Decode(p.bytes).has_value());  // joined mid-stream
}

TEST(VideoCodec, RequestKeyframeForcesIntra) {
  TalkingHeadConfig config;
  config.resolution = kSmall;
  TalkingHeadSource src(config, 8);
  VideoEncoder enc(kSmall, {.gop_length = 1000});
  enc.Encode(src.Next(), 20);
  EXPECT_FALSE(enc.Encode(src.Next(), 20).keyframe);
  enc.RequestKeyframe();
  EXPECT_TRUE(enc.Encode(src.Next(), 20).keyframe);
}

TEST(VideoCodec, CorruptDataThrowsOrRejects) {
  VideoDecoder dec(kSmall);
  EXPECT_THROW(dec.Decode(std::vector<std::uint8_t>{1}), compress::CorruptStream);
  EXPECT_THROW(dec.Decode(std::vector<std::uint8_t>{0, 99, 0, 0, 0, 0, 0}),
               compress::CorruptStream);
}

TEST(VideoCodec, UnknownHeaderFlagThrows) {
  // Bit 0 marks a keyframe; every other flag bit is undefined and must be
  // rejected rather than silently ignored.
  TalkingHeadConfig config;
  config.resolution = kSmall;
  TalkingHeadSource src(config, 4);
  VideoEncoder enc(kSmall);
  const EncodedFrame frame = enc.Encode(src.Next(), 20);
  ASSERT_EQ(frame.bytes[0], 0x01);
  for (int bit = 1; bit < 8; ++bit) {
    std::vector<std::uint8_t> mutated = frame.bytes;
    mutated[0] = static_cast<std::uint8_t>(mutated[0] | (1u << bit));
    VideoDecoder dec(kSmall);
    EXPECT_THROW(dec.Decode(mutated), compress::CorruptStream) << "flag bit " << bit;
  }
}

TEST(VideoCodec, EncodeIntoMatchesEncode) {
  // A reused EncodedFrame across a GOP (I and P frames) must carry exactly
  // the bytes a fresh one would, and decode in place.
  TalkingHeadConfig config;
  config.resolution = kSmall;
  VideoEncoder enc_a(kSmall, {.gop_length = 4}), enc_b(kSmall, {.gop_length = 4});
  VideoDecoder dec(kSmall);
  TalkingHeadSource src_a(config, 8), src_b(config, 8);
  EncodedFrame reused;
  VideoFrame decoded;
  for (int i = 0; i < 9; ++i) {
    const EncodedFrame fresh = enc_a.Encode(src_a.Next(), 16);
    enc_b.EncodeInto(src_b.Next(), 16, reused);
    EXPECT_EQ(fresh.bytes, reused.bytes) << "frame " << i;
    EXPECT_EQ(fresh.keyframe, reused.keyframe);
    ASSERT_TRUE(dec.DecodeInto(reused.bytes, decoded));
    EXPECT_EQ(decoded.width, kSmall.width);
  }
}

TEST(VideoCodec, LongGopSequenceDecodesAtHighQuality) {
  // Three GOPs of I and P frames at a mid QP: every frame decodes, and the
  // last one (the end of a P chain) is still reconstructed at >= 40 dB.
  TalkingHeadConfig config;
  config.resolution = kSmall;
  TalkingHeadSource src(config, 77);
  VideoEncoder enc(kSmall, {.gop_length = 10});
  VideoDecoder dec(kSmall);
  EncodedFrame encoded;
  VideoFrame frame, decoded;
  for (int i = 0; i < 30; ++i) {
    frame = src.Next();
    enc.EncodeInto(frame, 14, encoded);
    ASSERT_TRUE(dec.DecodeInto(encoded.bytes, decoded)) << "frame " << i;
  }
  EXPECT_GE(Psnr(frame, decoded), 40.0);
}

TEST(VideoCodec, SteadyStateEncodeDecodeDoesNotAllocate) {
  // Once an encoder and a decoder have seen a GOP, their reference frames,
  // block scratch and output buffers are sized: warm EncodeInto and
  // DecodeInto must not touch the heap, on I frames or P frames.
  TalkingHeadConfig config;
  config.resolution = kSmall;
  TalkingHeadSource src(config, 31);
  std::vector<VideoFrame> sequence;
  for (int i = 0; i < 10; ++i) sequence.push_back(src.Next());

  VideoEncoder enc(kSmall, {.gop_length = 10});
  VideoDecoder dec(kSmall);
  EncodedFrame encoded;
  VideoFrame decoded;
  std::vector<std::vector<std::uint8_t>> streams;
  for (const VideoFrame& f : sequence) {
    enc.EncodeInto(f, 14, encoded);
    streams.push_back(encoded.bytes);
    ASSERT_TRUE(dec.DecodeInto(encoded.bytes, decoded));
  }

  const std::uint64_t before_encode = g_allocs.load();
  for (const VideoFrame& f : sequence) enc.EncodeInto(f, 14, encoded);
  const std::uint64_t encode_allocs = g_allocs.load() - before_encode;

  bool all_decoded = true;
  const std::uint64_t before_decode = g_allocs.load();
  for (const auto& s : streams) all_decoded = dec.DecodeInto(s, decoded) && all_decoded;
  const std::uint64_t decode_allocs = g_allocs.load() - before_decode;

  EXPECT_EQ(encode_allocs, 0u) << "warm EncodeInto touched the heap";
  EXPECT_EQ(decode_allocs, 0u) << "warm DecodeInto touched the heap";
  EXPECT_TRUE(all_decoded);
}

TEST(VideoCodec, TruncatedAndBitFlippedFramesThrowOrReject) {
  TalkingHeadConfig config;
  config.resolution = kSmall;
  TalkingHeadSource src(config, 2);
  VideoEncoder enc(kSmall);
  VideoDecoder dec(kSmall);
  const EncodedFrame frame = enc.Encode(src.Next(), 12);
  std::mt19937 rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> mutated = frame.bytes;
    mutated.resize(rng() % mutated.size() + 1);
    mutated[rng() % mutated.size()] ^= 0x20;
    try {
      (void)dec.Decode(mutated);
    } catch (const compress::CorruptStream&) {
    }
  }
}

TEST(VideoCodec, ResolutionMismatchThrows) {
  VideoEncoder enc(kSmall);
  EXPECT_THROW(enc.Encode(VideoFrame(64, 64), 20), std::invalid_argument);
}

std::uint64_t Fnv1a(std::uint64_t h, const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

// Pins the video bitstream and its reconstruction across I and P frames,
// several QPs and two sources. Any change to the transform, quantizer,
// motion search or entropy stage must reproduce these digests exactly.
TEST(VideoCodec, GoldenBitstreamDigest) {
  std::uint64_t bytes_digest = 1469598103934665603ull;
  std::uint64_t luma_digest = 1469598103934665603ull;
  std::size_t total_bytes = 0;
  for (const std::uint64_t seed : {3u, 5u}) {
    for (const int qp : {12, 20, 32}) {
      TalkingHeadConfig config;
      config.resolution = kSmall;
      TalkingHeadSource src(config, seed);
      VideoEncoder enc(kSmall, {.gop_length = 6});
      VideoDecoder dec(kSmall);
      EncodedFrame encoded;
      VideoFrame decoded;
      for (int i = 0; i < 12; ++i) {
        enc.EncodeInto(src.Next(), qp, encoded);
        const std::uint64_t size = encoded.bytes.size();
        bytes_digest = Fnv1a(bytes_digest, &size, sizeof(size));
        bytes_digest = Fnv1a(bytes_digest, encoded.bytes.data(), encoded.bytes.size());
        total_bytes += encoded.bytes.size();
        ASSERT_TRUE(dec.DecodeInto(encoded.bytes, decoded));
        luma_digest = Fnv1a(luma_digest, decoded.luma.data(), decoded.luma.size());
      }
    }
  }
  EXPECT_EQ(total_bytes, 43677u);
  EXPECT_EQ(bytes_digest, 12993800735037689423ull);
  EXPECT_EQ(luma_digest, 12856334326507606296ull);
}

// --- rate control ------------------------------------------------------------------

TEST(RateController, ConvergesTowardTarget) {
  // Model: bytes halve per +6 QP from 20,000 at QP 10.
  const auto frame_bytes = [](int qp) {
    return static_cast<std::size_t>(20000.0 * std::exp2((10.0 - qp) / 6.0));
  };
  RateController rc(1e6, 30);  // 1 Mbps at 30 fps -> ~4,167 bytes/frame
  for (int i = 0; i < 300; ++i) rc.OnFrameEncoded(frame_bytes(rc.NextQp()));
  const double settled_bps = static_cast<double>(frame_bytes(rc.NextQp())) * 8 * 30;
  EXPECT_NEAR(settled_bps, 1e6, 0.5e6);
}

TEST(RateController, LossFeedbackBacksOffAndRecovers) {
  RateController rc(2e6, 30);
  rc.OnTransportFeedback(0.2);  // heavy loss
  EXPECT_LT(rc.target_bps(), 2e6);
  const double backed_off = rc.target_bps();
  for (int i = 0; i < 100; ++i) rc.OnTransportFeedback(0.0);
  EXPECT_GT(rc.target_bps(), backed_off);
  EXPECT_LE(rc.target_bps(), 2e6 + 1);  // never exceeds the configured rate
}

// --- rate model --------------------------------------------------------------------

TEST(RateModel, CalibratesAndInterpolatesMonotonically) {
  const CalibratedRateModel model(kSmall, {.qps = {12, 24, 36}, .frames_per_qp = 4, .seed = 1});
  ASSERT_EQ(model.points().size(), 3u);
  // More QP -> fewer bytes, for both frame kinds, including interpolated
  // QPs. (No I-vs-P ordering assertion: on the tiny low-detail calibration
  // content, grain makes P residuals comparable to cheap intra pictures.)
  double prev_i = 1e18, prev_p = 1e18;
  for (int qp = 12; qp <= 36; qp += 4) {
    const double i_bytes = model.MeanFrameBytes(true, qp);
    const double p_bytes = model.MeanFrameBytes(false, qp);
    EXPECT_LT(i_bytes, prev_i);
    EXPECT_LE(p_bytes, prev_p * 1.05);
    prev_i = i_bytes;
    prev_p = p_bytes;
  }
}

TEST(RateModel, QpForTargetRespectsBudget) {
  const CalibratedRateModel model(kSmall, {.qps = {12, 24, 36}, .frames_per_qp = 4, .seed = 2});
  const double generous = model.MeanBpsAtQp(12, 30, 30) * 2;
  EXPECT_EQ(model.QpForTargetBps(generous, 30, 30), 12);
  const double tight = model.MeanBpsAtQp(36, 30, 30) * 0.5;
  EXPECT_EQ(model.QpForTargetBps(tight, 30, 30), 36);
}

TEST(RateModel, SampleJittersAroundMean) {
  const CalibratedRateModel model(kSmall, {.qps = {20}, .frames_per_qp = 6, .seed = 3});
  net::Rng rng(1);
  const double mean = model.MeanFrameBytes(false, 20);
  double total = 0;
  for (int i = 0; i < 500; ++i) {
    total += static_cast<double>(model.SampleFrameBytes(false, 20, rng));
  }
  EXPECT_NEAR(total / 500, mean, mean * 0.25);
}

TEST(RateModel, ProcessWideCacheReturnsSameInstance) {
  const CalibratedRateModel& a = CalibratedRateModel::For(kSmall);
  const CalibratedRateModel& b = CalibratedRateModel::For(kSmall);
  EXPECT_EQ(&a, &b);
}

TEST(RateModel, ConcurrentColdLookupsShareOneInstance) {
  constexpr Resolution kCold{64, 48};  // used by no other test, so the first For() calibrates
  constexpr int kThreads = 4;
  std::array<const CalibratedRateModel*, kThreads> seen{};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&seen, i] { seen[static_cast<std::size_t>(i)] = &CalibratedRateModel::For(kCold); });
  }
  for (auto& t : threads) t.join();
  for (const auto* model : seen) EXPECT_EQ(model, seen[0]);
  EXPECT_EQ(&CalibratedRateModel::For(kCold), seen[0]);
}

// Two resolutions, neither asked for by any other test, calibrate on four
// threads at once. Each lands in one instance with the points a calibration
// of its own gives.
TEST(RateModel, TwoResolutionsCalibrateConcurrently) {
  constexpr std::array<Resolution, 2> kCold{Resolution{48, 32}, Resolution{96, 64}};
  constexpr int kThreads = 4;
  std::array<const CalibratedRateModel*, kThreads> seen{};
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      seen[static_cast<std::size_t>(i)] = &CalibratedRateModel::For(kCold[i % 2]);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_NE(seen[0], seen[1]);
  for (int i = 0; i < kThreads; ++i) {
    const CalibratedRateModel& model = *seen[static_cast<std::size_t>(i)];
    EXPECT_EQ(&model, seen[static_cast<std::size_t>(i % 2)]);
    EXPECT_EQ(&model, &CalibratedRateModel::For(kCold[i % 2]));
  }
  for (std::size_t r = 0; r < kCold.size(); ++r) {
    const CalibratedRateModel fresh(kCold[r]);
    const auto& cached = seen[r]->points();
    ASSERT_EQ(cached.size(), fresh.points().size());
    for (std::size_t p = 0; p < cached.size(); ++p) {
      EXPECT_EQ(cached[p].qp, fresh.points()[p].qp);
      EXPECT_EQ(cached[p].mean_i_bytes, fresh.points()[p].mean_i_bytes);
      EXPECT_EQ(cached[p].mean_p_bytes, fresh.points()[p].mean_p_bytes);
      EXPECT_EQ(cached[p].stddev_p_bytes, fresh.points()[p].stddev_p_bytes);
    }
  }
}

TEST(RateModel, InvalidConfigThrows) {
  EXPECT_THROW(CalibratedRateModel(kSmall, {.qps = {}, .frames_per_qp = 4}),
               std::invalid_argument);
  EXPECT_THROW(CalibratedRateModel(kSmall, {.qps = {20}, .frames_per_qp = 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace vtp::video
