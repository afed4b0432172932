// Tests for the streaming compression hot path: LzrEncoder / MatchFinder /
// the shared CodecEngine. The core contract under test
// is byte-identity: the fused streaming encoder must reproduce the seed
// tokenize-then-encode compressor's streams (pinned as goldens), and every
// stream must round-trip exactly.
#include <gtest/gtest.h>

#include <random>
#include <span>
#include <vector>

#include "alloc_counter.h"
#include "compress/codec_engine.h"
#include "compress/lz77.h"
#include "compress/lzr.h"
#include "compress/lzr_stream.h"
#include "compress/match_finder.h"
#include "semantic/codec.h"
#include "semantic/generator.h"
#include "semantic/keypoints.h"

namespace vtp::compress {
namespace {

LzParams Greedy() { return {}; }

// ---- corpora ----------------------------------------------------------------

std::vector<std::uint8_t> RandomCorpus(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  return data;
}

std::vector<std::uint8_t> RepetitiveCorpus(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  const std::vector<std::uint8_t> motif = {'t', 'e', 'l', 'e', 'p', 'r', 'e', 's'};
  std::vector<std::uint8_t> data;
  data.reserve(n);
  while (data.size() < n) {
    data.push_back(motif[data.size() % motif.size()]);
    if (rng() % 31 == 0) data.back() = static_cast<std::uint8_t>(rng());
  }
  return data;
}

/// The headline payload type: 11-bit quantized temporal-delta keypoint frames.
std::vector<std::vector<std::uint8_t>> KeypointDeltaFrames(int frames, std::uint32_t seed) {
  semantic::KeypointTrackGenerator generator({}, seed);
  semantic::SemanticEncoder encoder(
      {.quantize_bits = 11, .temporal_delta = true, .lz_compress = false});
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(static_cast<std::size_t>(frames));
  for (int i = 0; i < frames; ++i) {
    out.push_back(encoder.EncodeFrame(semantic::ExtractSemanticSubset(generator.Next())));
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> AllCorpora() {
  std::vector<std::vector<std::uint8_t>> corpora;
  corpora.push_back({});                                   // empty
  corpora.push_back({42});                                 // single byte
  corpora.push_back({1, 2, 3});                            // exactly kMinMatch
  corpora.push_back(RandomCorpus(4096, 1));
  corpora.push_back(RepetitiveCorpus(4096, 2));
  corpora.push_back(std::vector<std::uint8_t>(2048, 0x55));  // constant
  for (auto& f : KeypointDeltaFrames(8, 3)) corpora.push_back(std::move(f));
  return corpora;
}

// ---- greedy stream goldens -------------------------------------------------

std::uint64_t Fnv1a(std::span<const std::uint8_t> data) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : data) h = (h ^ b) * 1099511628211ull;
  return h;
}

// FNV-1a of the greedy LZR1 stream for each AllCorpora() input, recorded
// from the seed's tokenize-then-encode compressor. The streaming encoder must
// reproduce every stream byte for byte.
constexpr std::uint64_t kAllCorporaStreamFnv[] = {
    0x3DED3FC1B0790104ull, 0xB5D4326143EBC8E8ull, 0x2A3D904E72A7EA1Cull,
    0xC95AB7DF3B5A83D1ull, 0x94428FC21176ACACull, 0x6F1E5B5EC3A676C5ull,
    0xB0C53ED5D8DE54F9ull, 0xD33F6B4018AA9DA0ull, 0xA827A25C54E2F6D2ull,
    0x3B0968FFFE859473ull, 0xB307D3B343399F56ull, 0xC75EBC16D0C69056ull,
    0xCB99D21F994EA214ull, 0xECE8144FE9048B5Eull,
};

TEST(LzrStream, GreedyStreamsMatchSeedGoldens) {
  const std::vector<std::vector<std::uint8_t>> corpora = AllCorpora();
  ASSERT_EQ(corpora.size(), std::size(kAllCorporaStreamFnv));
  LzrEncoder encoder;
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < corpora.size(); ++i) {
    out.clear();
    encoder.CompressInto(corpora[i], out, Greedy());
    EXPECT_EQ(Fnv1a(out), kAllCorporaStreamFnv[i]) << "corpus " << i;
  }
}

TEST(LzrStream, LegacyGoldenStreamsPinned) {
  // Hard pins of the legacy (LZR1) container: size and FNV-1a of the
  // compressed stream for fixed corpora. The sizes were captured from the
  // growth seed (with a CRC-32 beside them); the FNV-1a values replaced the
  // CRC-32 ones on the same streams. Any change here is a wire-format break.
  struct Golden {
    std::size_t size;
    std::uint64_t fnv;
  };
  const Golden goldens[] = {
      {4161u, 0xC95AB7DF3B5A83D1ull},  // RandomCorpus(4096, 1)
      {410u, 0x94428FC21176ACACull},   // RepetitiveCorpus(4096, 2)
      {26u, 0x6F1E5B5EC3A676C5ull},    // 2048 x 0x55
      {377u, 0xB0C53ED5D8DE54F9ull},   // KeypointDeltaFrames(8, 3), frames 0..7
      {141u, 0xD33F6B4018AA9DA0ull}, {139u, 0xA827A25C54E2F6D2ull},
      {140u, 0x3B0968FFFE859473ull}, {138u, 0xB307D3B343399F56ull},
      {141u, 0xC75EBC16D0C69056ull}, {136u, 0xCB99D21F994EA214ull},
      {146u, 0xECE8144FE9048B5Eull},
  };
  std::vector<std::vector<std::uint8_t>> corpora;
  corpora.push_back(RandomCorpus(4096, 1));
  corpora.push_back(RepetitiveCorpus(4096, 2));
  corpora.push_back(std::vector<std::uint8_t>(2048, 0x55));
  for (auto& f : KeypointDeltaFrames(8, 3)) corpora.push_back(std::move(f));
  ASSERT_EQ(corpora.size(), std::size(goldens));
  LzrEncoder encoder;
  std::vector<std::uint8_t> stream;
  for (std::size_t i = 0; i < corpora.size(); ++i) {
    stream.clear();
    encoder.CompressInto(corpora[i], stream);
    EXPECT_EQ(stream.size(), goldens[i].size) << "corpus " << i;
    EXPECT_EQ(Fnv1a(stream), goldens[i].fnv) << "corpus " << i;
  }
}

// ---- match finder reuse -----------------------------------------------------

TEST(MatchFinder, ReuseAcrossInputsMatchesFreshEncoder) {
  // Generation stamping must make a warm finder indistinguishable from a
  // fresh one: stale head slots from earlier (larger, different) inputs must
  // never leak matches into later frames.
  LzrEncoder reused;
  std::vector<std::uint8_t> warm, fresh;
  // Deliberately alternate sizes and content so stale chains would point at
  // plausible-looking offsets if generations leaked.
  std::vector<std::vector<std::uint8_t>> inputs;
  inputs.push_back(RandomCorpus(8192, 11));
  inputs.push_back(RepetitiveCorpus(512, 12));
  inputs.push_back(RandomCorpus(64, 13));
  inputs.push_back(RepetitiveCorpus(8192, 14));
  inputs.push_back(RandomCorpus(512, 11));  // same seed family, shorter
  for (auto& f : KeypointDeltaFrames(6, 5)) inputs.push_back(std::move(f));

  for (const auto& data : inputs) {
    warm.clear();
    reused.CompressInto(data, warm);
    LzrEncoder once;
    fresh.clear();
    once.CompressInto(data, fresh);
    EXPECT_EQ(warm, fresh) << "warm finder diverged from fresh on " << data.size() << " bytes";
  }
  EXPECT_EQ(reused.finder_stats().resets, inputs.size());
}

TEST(MatchFinder, FindBestHonoursProbeAndWindowLimits) {
  // All-identical bytes build one long chain; a tiny window must stop the
  // walk at the window edge regardless of chain depth.
  const std::vector<std::uint8_t> data(1024, 7);
  MatchFinder finder;
  finder.Reset(data);
  for (std::size_t i = 0; i < 512; ++i) finder.Insert(i);
  LzParams params;
  params.window_size = 16;
  const auto m = finder.FindBest(512, params);
  ASSERT_GE(m.length, LzParams::kMinMatch);
  EXPECT_LE(m.distance, params.window_size);
}

// ---- steady-state allocations ----------------------------------------------

TEST(LzrStream, SteadyStateEncodeDoesNotAllocate) {
  const auto frames = KeypointDeltaFrames(32, 9);
  LzrEncoder encoder;
  std::vector<std::uint8_t> out, decoded;
  for (const auto& f : frames) {  // warm arena, scratch, output, decode buffer
    out.clear();
    encoder.CompressInto(f, out);
    LzrDecompressInto(out, decoded);
  }

  const std::uint64_t allocs_before = g_allocs.load();
  const std::uint64_t grows_before = encoder.finder_stats().arena_grows;
  for (int rep = 0; rep < 4; ++rep) {
    for (const auto& f : frames) {
      out.clear();
      encoder.CompressInto(f, out);
      LzrDecompressInto(out, decoded);
    }
  }
  EXPECT_EQ(g_allocs.load() - allocs_before, 0u) << "warm encode+decode touched the heap";
  EXPECT_EQ(encoder.finder_stats().arena_grows, grows_before) << "arena grew after warm-up";
}

TEST(LzrStream, SteadyStateFrameEncodeDoesNotAllocate) {
  semantic::KeypointTrackGenerator generator({}, 9);
  semantic::SemanticEncoder encoder({.quantize_bits = 11, .temporal_delta = true});
  std::vector<std::vector<semantic::Vec3>> subsets;  // pre-generated input
  for (int i = 0; i < 32; ++i) {
    subsets.push_back(semantic::ExtractSemanticSubset(generator.Next()));
  }
  std::vector<std::uint8_t> payload;
  for (const auto& s : subsets) encoder.EncodeFrameInto(s, payload);  // warm

  const std::uint64_t before = g_allocs.load();
  for (int rep = 0; rep < 4; ++rep) {
    for (const auto& s : subsets) encoder.EncodeFrameInto(s, payload);
  }
  EXPECT_EQ(g_allocs.load() - before, 0u) << "warm EncodeFrameInto touched the heap";
}

// ---- shared engine ----------------------------------------------------------

TEST(CodecEngine, CompressIntoMatchesEncoderAndCountsBytes) {
  CodecEngine engine;
  const auto data = RepetitiveCorpus(2048, 33);
  std::vector<std::uint8_t> out, direct, decoded;
  engine.CompressInto(data, out);
  LzrEncoder reference;
  reference.CompressInto(data, direct);
  EXPECT_EQ(out, direct);
  LzrDecompressInto(out, decoded);
  EXPECT_EQ(decoded, data);
  EXPECT_EQ(engine.stats().frames, 1u);
  EXPECT_EQ(engine.stats().bytes_in, data.size());
  EXPECT_EQ(engine.stats().bytes_out, out.size());
}

/// Keypoint tracks for `personas` senders, pre-generated: [frame][persona].
std::vector<std::vector<std::vector<semantic::Vec3>>> PersonaFrames(int personas, int frames,
                                                                    std::uint64_t seed) {
  std::vector<semantic::KeypointTrackGenerator> gens;
  for (int p = 0; p < personas; ++p) gens.emplace_back(semantic::TrackConfig{}, seed + p);
  std::vector<std::vector<std::vector<semantic::Vec3>>> out(static_cast<std::size_t>(frames));
  for (auto& frame : out) {
    for (auto& gen : gens) frame.push_back(semantic::ExtractSemanticSubset(gen.Next()));
  }
  return out;
}

TEST(CodecEngine, SharedEngineBytesMatchStandaloneEncoders) {
  // Three personas through one engine must produce exactly the bytes three
  // embedded encoders would (generation-stamped arena, no cross-talk).
  CodecEngine engine;
  const semantic::SemanticCodecConfig config{.quantize_bits = 11, .temporal_delta = true};
  std::vector<semantic::SemanticEncoder> shared(3, semantic::SemanticEncoder(config));
  std::vector<semantic::SemanticEncoder> standalone(3, semantic::SemanticEncoder(config));
  for (auto& encoder : shared) encoder.AttachEngine(&engine);

  std::vector<std::uint8_t> payload, expected;
  const auto frames = PersonaFrames(3, 16, 40);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    for (std::size_t p = 0; p < 3; ++p) {
      shared[p].EncodeFrameInto(frames[i][p], payload);
      standalone[p].EncodeFrameInto(frames[i][p], expected);
      EXPECT_EQ(payload, expected) << "frame " << i << " persona " << p;
    }
  }
  EXPECT_EQ(engine.stats().frames, 3u * 16u);
  EXPECT_GT(engine.stats().bytes_in, 0u);
  EXPECT_GT(engine.stats().bytes_out, 0u);
}

TEST(CodecEngine, SharedSteadyStateDoesNotAllocate) {
  CodecEngine engine;
  std::vector<semantic::SemanticEncoder> encoders(
      4, semantic::SemanticEncoder({.quantize_bits = 11, .temporal_delta = true}));
  for (auto& encoder : encoders) encoder.AttachEngine(&engine);
  const auto frames = PersonaFrames(4, 24, 50);
  std::vector<std::vector<std::uint8_t>> outputs(encoders.size());
  const auto encode_all = [&] {
    for (const auto& frame : frames) {
      for (std::size_t p = 0; p < encoders.size(); ++p) {
        encoders[p].EncodeFrameInto(frame[p], outputs[p]);
      }
    }
  };
  encode_all();  // warm

  const std::uint64_t before = g_allocs.load();
  for (int rep = 0; rep < 4; ++rep) encode_all();
  EXPECT_EQ(g_allocs.load() - before, 0u) << "warm shared-engine encode touched the heap";
}

// ---- shared decode memo -------------------------------------------------------

/// `count` distinct LZR1 bodies: float32 keypoint frames, as a session ships.
std::vector<std::vector<std::uint8_t>> PackedFrames(int count, std::uint64_t seed) {
  semantic::KeypointTrackGenerator generator({}, seed);
  semantic::SemanticEncoder plain({.lz_compress = false});
  LzrEncoder encoder;
  std::vector<std::vector<std::uint8_t>> out;
  for (int i = 0; i < count; ++i) {
    const auto frame = plain.EncodeFrame(semantic::ExtractSemanticSubset(generator.Next()));
    out.emplace_back();
    encoder.CompressInto(std::span(frame).subspan(2), out.back());  // past tag and index
  }
  return out;
}

TEST(CodecEngine, DecodeHitReturnsTheBytesOfAFreshDecode) {
  CodecEngine engine;
  std::vector<std::uint8_t> expected, first, second;
  for (const auto& packed : PackedFrames(6, 60)) {
    LzrDecompressInto(packed, expected);
    engine.DecompressInto(3, packed, first);
    engine.DecompressInto(3, packed, second);
    EXPECT_EQ(first, expected);
    EXPECT_EQ(second, expected);
  }
  EXPECT_EQ(engine.stats().decode_misses, 6u);
  EXPECT_EQ(engine.stats().decode_hits, 6u);
}

TEST(CodecEngine, SameSizeBodyWithOneFlippedByteMisses) {
  const auto packed = PackedFrames(1, 61).front();
  std::vector<std::uint8_t> original, expected, out;
  LzrDecompressInto(packed, original);
  // Flip the latest byte whose flip still decodes, to something else.
  std::vector<std::uint8_t> flipped;
  for (std::size_t i = packed.size(); i-- > 8 && flipped.empty();) {
    std::vector<std::uint8_t> candidate = packed;
    candidate[i] ^= 0x01;
    try {
      LzrDecompressInto(candidate, expected);
    } catch (const CorruptStream&) {
      continue;
    }
    if (expected != original) flipped = std::move(candidate);
  }
  ASSERT_FALSE(flipped.empty());
  ASSERT_EQ(flipped.size(), packed.size());

  CodecEngine engine;
  engine.DecompressInto(0, packed, out);
  engine.DecompressInto(0, flipped, out);
  EXPECT_EQ(out, expected);
  EXPECT_EQ(engine.stats().decode_hits, 0u);
  EXPECT_EQ(engine.stats().decode_misses, 2u);
}

TEST(CodecEngine, CorruptBodyIsNeverMemoised) {
  std::vector<std::uint8_t> corrupt = PackedFrames(1, 62).front();
  corrupt[0] = 'X';  // not LZR1
  CodecEngine engine;
  std::vector<std::uint8_t> out;
  EXPECT_THROW(engine.DecompressInto(0, corrupt, out), CorruptStream);
  EXPECT_THROW(engine.DecompressInto(0, corrupt, out), CorruptStream);
  EXPECT_THROW(engine.DecompressInto(0, {}, out), CorruptStream);
  EXPECT_EQ(engine.stats().decode_hits, 0u);
  EXPECT_EQ(engine.stats().decode_misses, 3u);
}

TEST(CodecEngine, WarmDecodeHitAndMissDoNotAllocate) {
  CodecEngine engine;
  std::vector<std::uint8_t> out, packed;
  // Warm every slot of stream 0, and `out`, with bodies larger than a frame.
  LzrEncoder encoder;
  for (std::uint32_t i = 0; i < CodecEngine::kDecodeSlotsPerStream; ++i) {
    packed.clear();
    encoder.CompressInto(RandomCorpus(4096, 100 + i), packed);
    engine.DecompressInto(0, packed, out);
  }
  const auto frames = PackedFrames(2, 63);

  const std::uint64_t before = g_allocs.load();
  engine.DecompressInto(0, frames[0], out);  // miss, stored over the oldest slot
  engine.DecompressInto(0, frames[0], out);  // hit
  engine.DecompressInto(0, frames[1], out);  // miss
  EXPECT_EQ(g_allocs.load() - before, 0u) << "warm memo decode touched the heap";
  EXPECT_EQ(engine.stats().decode_hits, 1u);
  EXPECT_EQ(engine.stats().decode_misses, CodecEngine::kDecodeSlotsPerStream + 2);
}

TEST(CodecEngine, EachStreamEvictsOnlyItsOwnOldestBody) {
  const int slots = static_cast<int>(CodecEngine::kDecodeSlotsPerStream);
  const auto bodies = PackedFrames(slots + 2, 64);
  CodecEngine engine;
  std::vector<std::uint8_t> out;
  engine.DecompressInto(1, bodies[slots + 1], out);  // stream 1's only body
  for (int i = 0; i <= slots; ++i) engine.DecompressInto(0, bodies[i], out);
  ASSERT_EQ(engine.stats().decode_misses, static_cast<std::uint64_t>(slots + 2));

  // Stream 0's 17th body evicted its first; stream 1 kept its slot.
  engine.DecompressInto(1, bodies[slots + 1], out);
  EXPECT_EQ(engine.stats().decode_hits, 1u);
  for (int i = 1; i <= slots; ++i) engine.DecompressInto(0, bodies[i], out);
  EXPECT_EQ(engine.stats().decode_hits, static_cast<std::uint64_t>(slots + 1));
  engine.DecompressInto(0, bodies[0], out);
  EXPECT_EQ(engine.stats().decode_misses, static_cast<std::uint64_t>(slots + 3));
  // A body is memoised under its own stream only.
  engine.DecompressInto(1, bodies[1], out);
  EXPECT_EQ(engine.stats().decode_misses, static_cast<std::uint64_t>(slots + 4));
}

// ---- decode buffer reuse ----------------------------------------------------

TEST(LzrStream, DecompressIntoReusesBuffer) {
  LzrEncoder encoder;
  std::vector<std::uint8_t> out, decoded;
  const auto big = RepetitiveCorpus(1 << 14, 31);
  encoder.CompressInto(big, out);
  LzrDecompressInto(out, decoded);
  EXPECT_EQ(decoded, big);
  const std::size_t cap = decoded.capacity();

  const auto small = RandomCorpus(64, 32);
  out.clear();
  encoder.CompressInto(small, out);
  LzrDecompressInto(out, decoded);
  EXPECT_EQ(decoded, small);
  EXPECT_EQ(decoded.capacity(), cap) << "shrinking decode should reuse capacity";
}

}  // namespace
}  // namespace vtp::compress
