// Tests for the audio substrate: frames, the speech source, and the codec.
#include <gtest/gtest.h>

#include "audio/codec.h"
#include "audio/frame.h"
#include "audio/speech_source.h"
#include "compress/bitstream.h"

namespace vtp::audio {
namespace {

TEST(AudioFrame, RmsAndSilence) {
  AudioFrame silent;
  EXPECT_TRUE(silent.IsSilence());
  EXPECT_DOUBLE_EQ(silent.Rms(), 0.0);

  AudioFrame loud;
  for (auto& s : loud.samples) s = 5000;
  EXPECT_FALSE(loud.IsSilence());
  EXPECT_NEAR(loud.Rms(), 5000.0, 1.0);
}

TEST(AudioFrame, SnrIdentityAndMismatch) {
  SpeechSource source({}, 1);
  const AudioFrame f = source.Next();
  EXPECT_GT(SnrDb(f, f), 90.0);
  AudioFrame mismatched;
  mismatched.samples.resize(10);
  EXPECT_THROW(SnrDb(f, mismatched), std::invalid_argument);
}

TEST(SpeechSource, DeterministicPerSeed) {
  SpeechSource a({}, 7), b({}, 7), c({}, 8);
  const AudioFrame fa = a.Next(), fb = b.Next(), fc = c.Next();
  EXPECT_EQ(fa.samples, fb.samples);
  EXPECT_NE(fa.samples, fc.samples);
}

TEST(SpeechSource, AlternatesTalkSpurtsAndPauses) {
  SpeechConfig config;
  config.talk_spurt_s = 0.4;
  config.pause_s = 0.4;
  SpeechSource source(config, 3);
  int talking_frames = 0, silent_frames = 0;
  for (int i = 0; i < 500; ++i) {  // 10 seconds
    const AudioFrame f = source.Next();
    (f.Rms() > 300 ? talking_frames : silent_frames)++;
  }
  EXPECT_GT(talking_frames, 80);
  EXPECT_GT(silent_frames, 80);
}

TEST(SpeechSource, VoicedFramesHaveSpeechLevels) {
  SpeechConfig config;
  config.pause_s = 0.001;  // effectively always talking
  config.talk_spurt_s = 1000;
  SpeechSource source(config, 5);
  double peak_rms = 0;
  for (int i = 0; i < 100; ++i) peak_rms = std::max(peak_rms, source.Next().Rms());
  EXPECT_GT(peak_rms, 1000.0);
  EXPECT_LT(peak_rms, 20000.0);
}

TEST(AudioCodec, RoundTripReconstructsSpeech) {
  SpeechConfig speech;
  speech.talk_spurt_s = 1000;  // continuous speech
  SpeechSource source(speech, 2);
  AudioEncoder encoder({.quality = 8, .dtx = false});
  AudioDecoder decoder;
  double worst_snr = 1e9;
  for (int i = 0; i < 25; ++i) {
    const AudioFrame f = source.Next();
    if (f.Rms() < 500) continue;  // judge SNR on audible content
    const AudioFrame decoded = decoder.DecodeFrame(encoder.EncodeFrame(f));
    worst_snr = std::min(worst_snr, SnrDb(f, decoded));
  }
  EXPECT_GT(worst_snr, 12.0);  // intelligible-speech territory
}

class AudioQualitySweep : public ::testing::TestWithParam<int> {};

TEST_P(AudioQualitySweep, RateAndQualityGrowTogether) {
  const int quality = GetParam();
  SpeechConfig speech;
  speech.talk_spurt_s = 1000;
  SpeechSource src_a(speech, 4), src_b(speech, 4);
  AudioEncoder enc_a({.quality = quality, .dtx = false});
  AudioEncoder enc_b({.quality = quality + 2, .dtx = false});
  AudioDecoder dec;
  std::size_t bytes_a = 0, bytes_b = 0;
  double snr_a = 0, snr_b = 0;
  const int frames = 15;
  for (int i = 0; i < frames; ++i) {
    const AudioFrame fa = src_a.Next(), fb = src_b.Next();
    const auto pa = enc_a.EncodeFrame(fa);
    const auto pb = enc_b.EncodeFrame(fb);
    bytes_a += pa.size();
    bytes_b += pb.size();
    snr_a += SnrDb(fa, dec.DecodeFrame(pa)) / frames;
    snr_b += SnrDb(fb, dec.DecodeFrame(pb)) / frames;
  }
  EXPECT_LT(bytes_a, bytes_b);   // higher quality costs more bits
  EXPECT_LE(snr_a, snr_b + 1.0); // and sounds no worse
}

INSTANTIATE_TEST_SUITE_P(Qualities, AudioQualitySweep, ::testing::Values(2, 4, 6, 8));

TEST(AudioCodec, OperatesInVoipRateRange) {
  SpeechConfig speech;
  speech.talk_spurt_s = 1000;
  SpeechSource source(speech, 6);
  AudioEncoder encoder({.quality = 5, .dtx = false});
  std::size_t total = 0;
  const int frames = 50;  // 1 second
  for (int i = 0; i < frames; ++i) total += encoder.EncodeFrame(source.Next()).size();
  const double kbps = static_cast<double>(total) * 8 / 1000.0;
  EXPECT_GT(kbps, 8.0);
  EXPECT_LT(kbps, 80.0);  // Opus-class speech rates
}

TEST(AudioCodec, DtxCompressesSilenceToTwoBytes) {
  AudioEncoder encoder({.quality = 5, .dtx = true});
  const auto payload = encoder.EncodeFrame(AudioFrame{});
  EXPECT_EQ(payload.size(), 2u);
  AudioDecoder decoder;
  const AudioFrame decoded = decoder.DecodeFrame(payload);
  EXPECT_TRUE(decoded.IsSilence());
}

TEST(AudioCodec, MalformedPayloadThrows) {
  AudioDecoder decoder;
  EXPECT_THROW(decoder.DecodeFrame(std::vector<std::uint8_t>{1}), compress::CorruptStream);
  EXPECT_THROW(decoder.DecodeFrame(std::vector<std::uint8_t>{0, 99, 1, 2, 3, 4, 5}),
               compress::CorruptStream);
}

// Pins the vop bitstream and its decoded PCM. The digests were recorded from
// the straightforward scalar transform; any change to the DCT loop, the
// quantizer, the range-coding session, or the Rng beneath SpeechSource must
// reproduce them exactly, on every SIMD backend.
std::uint64_t Fnv1a(std::uint64_t h, const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

TEST(AudioCodec, GoldenBitstreamAndPcmDigests) {
  SpeechSource source({}, 11);  // default talk/pause mix, so DTX has silence to skip
  std::vector<AudioFrame> frames;
  for (int i = 0; i < 500; ++i) frames.push_back(source.Next());

  std::uint64_t bytes_digest = 1469598103934665603ull;
  std::uint64_t pcm_digest = 1469598103934665603ull;
  std::size_t total_bytes = 0;
  AudioDecoder decoder;
  for (int quality = 0; quality <= 10; ++quality) {
    for (const bool dtx : {false, true}) {
      AudioEncoder encoder({.quality = quality, .dtx = dtx});
      for (const AudioFrame& f : frames) {
        const auto payload = encoder.EncodeFrame(f);
        const std::uint64_t size = payload.size();
        bytes_digest = Fnv1a(bytes_digest, &size, sizeof(size));
        bytes_digest = Fnv1a(bytes_digest, payload.data(), payload.size());
        total_bytes += payload.size();
        const AudioFrame decoded = decoder.DecodeFrame(payload);
        pcm_digest = Fnv1a(pcm_digest, decoded.samples.data(),
                           decoded.samples.size() * sizeof(std::int16_t));
      }
    }
  }
  EXPECT_EQ(total_bytes, 1282025u);
  EXPECT_EQ(bytes_digest, 10146155789837137158ull);
  EXPECT_EQ(pcm_digest, 7222493387702786412ull);
}

TEST(AudioCodec, InvalidConfigThrows) {
  EXPECT_THROW(AudioEncoder({.quality = 11, .dtx = true}), std::invalid_argument);
  EXPECT_THROW(AudioEncoder({.quality = -1, .dtx = true}), std::invalid_argument);
}

}  // namespace
}  // namespace vtp::audio
