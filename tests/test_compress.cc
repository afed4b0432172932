// Unit and property tests for the compression substrate.
#include <gtest/gtest.h>

#include <random>

#include "compress/bitstream.h"
#include "compress/entropy.h"
#include "compress/lz77.h"
#include "compress/lzr.h"
#include "compress/lzr_stream.h"
#include "compress/range_coder.h"
#include "compress/varint.h"
#include "mesh/generator.h"

namespace vtp::compress {
namespace {

// --- varint / zigzag --------------------------------------------------------

TEST(Varint, Uleb128Boundaries) {
  for (const std::uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull, ~0ull, 1ull << 62}) {
    std::vector<std::uint8_t> buf;
    PutUleb128(buf, v);
    std::size_t pos = 0;
    EXPECT_EQ(GetUleb128(buf, &pos), v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(Varint, TruncatedThrows) {
  std::vector<std::uint8_t> buf;
  PutUleb128(buf, 1u << 20);
  buf.pop_back();
  std::size_t pos = 0;
  EXPECT_THROW(GetUleb128(buf, &pos), CorruptStream);
}

TEST(Varint, ZigZagIsInvolutionAndOrdersMagnitude) {
  const std::vector<std::int64_t> cases = {0,       -1,       1,
                                           -2,      2,        1000000,
                                           -1000000, std::numeric_limits<std::int64_t>::max(),
                                           std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t v : cases) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  EXPECT_LT(ZigZagEncode(1), ZigZagEncode(-3));
  EXPECT_LT(ZigZagEncode(-1), ZigZagEncode(2));
}

// --- range coder -------------------------------------------------------------

TEST(RangeCoder, BiasedBitsCompressBelowOneBitEach) {
  std::mt19937_64 rng(42);
  std::vector<int> bits;
  for (int i = 0; i < 20000; ++i) bits.push_back(rng() % 100 < 5 ? 1 : 0);

  std::vector<std::uint8_t> buf;
  RangeEncoder enc(&buf);
  BitModel model;
  for (const int b : bits) enc.EncodeBit(model, b);
  enc.Flush();

  // 5% entropy is ~0.29 bits/symbol; adaptive coding should get below 0.5.
  EXPECT_LT(buf.size() * 8, bits.size() / 2);

  RangeDecoder dec(buf);
  BitModel model2;
  for (const int b : bits) EXPECT_EQ(dec.DecodeBit(model2), b);
}

TEST(RangeCoder, DirectBitsRoundTrip) {
  std::mt19937_64 rng(3);
  std::vector<std::pair<std::uint32_t, int>> items;
  std::vector<std::uint8_t> buf;
  RangeEncoder enc(&buf);
  for (int i = 0; i < 1000; ++i) {
    const int n = static_cast<int>(rng() % 32) + 1;
    const std::uint32_t v = static_cast<std::uint32_t>(rng()) & ((n == 32) ? ~0u : ((1u << n) - 1));
    items.emplace_back(v, n);
    enc.EncodeDirectBits(v, n);
  }
  enc.Flush();
  RangeDecoder dec(buf);
  for (const auto& [v, n] : items) EXPECT_EQ(dec.DecodeDirectBits(n), v);
}

TEST(RangeCoder, BitTreeRoundTrip) {
  std::mt19937_64 rng(9);
  std::vector<std::uint32_t> symbols;
  std::vector<std::uint8_t> buf;
  RangeEncoder enc(&buf);
  BitTree<8> tree;
  for (int i = 0; i < 5000; ++i) {
    const std::uint32_t s = rng() % 256;
    symbols.push_back(s);
    tree.Encode(enc, s);
  }
  enc.Flush();
  RangeDecoder dec(buf);
  BitTree<8> tree2;
  for (const std::uint32_t s : symbols) EXPECT_EQ(tree2.Decode(dec), s);
}

TEST(RangeCoder, SignedValueCoderRoundTrip) {
  std::mt19937_64 rng(11);
  std::vector<std::int64_t> values;
  for (int i = 0; i < 3000; ++i) {
    const int mag = static_cast<int>(rng() % 20);
    std::int64_t v = static_cast<std::int64_t>(rng() & ((1ull << mag) - 1));
    if (rng() & 1) v = -v;
    values.push_back(v);
  }
  std::vector<std::uint8_t> buf;
  RangeEncoder enc(&buf);
  SignedValueCoder coder;
  for (const std::int64_t v : values) coder.Encode(enc, v);
  enc.Flush();
  RangeDecoder dec(buf);
  SignedValueCoder coder2;
  for (const std::int64_t v : values) EXPECT_EQ(coder2.Decode(dec), v);
}

TEST(RangeCoder, TooShortStreamThrows) {
  const std::vector<std::uint8_t> tiny = {1, 2, 3};
  EXPECT_THROW(RangeDecoder dec(tiny), CorruptStream);
}

// --- LZ77 --------------------------------------------------------------------
//
// The greedy parser runs inside LzrEncoder; its token tallies (io_stats) show
// what it matched, and LzrDecompressInto proves the tokens reconstruct.

std::vector<std::uint8_t> Compress(std::span<const std::uint8_t> data) {
  LzrEncoder encoder;
  std::vector<std::uint8_t> out;
  encoder.CompressInto(data, out);
  return out;
}

std::vector<std::uint8_t> Decompress(std::span<const std::uint8_t> stream) {
  std::vector<std::uint8_t> out;
  LzrDecompressInto(stream, out);
  return out;
}

TEST(Lz77, ReconstructsTokenizedData) {
  std::string text;
  for (int i = 0; i < 100; ++i) text += "the quick brown fox jumps over the lazy dog. ";
  const std::vector<std::uint8_t> data(text.begin(), text.end());
  LzrEncoder encoder;
  std::vector<std::uint8_t> stream;
  encoder.CompressInto(data, stream);
  const LzrEncoder::IoStats& io = encoder.io_stats();
  EXPECT_LT(io.literals + io.matches, data.size() / 4);  // repetitive text matches well
  EXPECT_EQ(Decompress(stream), data);
}

TEST(Lz77, OverlappingMatchHandledLikeRle) {
  const std::vector<std::uint8_t> data(500, 0x55);
  EXPECT_EQ(Decompress(Compress(data)), data);
}

TEST(Lz77, ShortRepetitiveInputRoundTrips) {
  // Matches that run to the end of the input exercise the interior-chain
  // insertion bound: positions inside the final kMinMatch-1 bytes have no
  // full hash window and must be skipped, not hashed past the buffer.
  for (std::size_t n = 1; n <= 32; ++n) {
    std::vector<std::uint8_t> data;
    for (std::size_t i = 0; i < n; ++i) data.push_back(static_cast<std::uint8_t>("ab"[i % 2]));
    EXPECT_EQ(Decompress(Compress(data)), data) << "n=" << n;
  }
}

TEST(Lz77, InteriorOfMatchIsReferenceable) {
  // "abcdefgh" twice, then a run that matches the *interior* of the earlier
  // copy ("cdef"). The covered positions of the first match must be in the
  // hash chains for the third block to find its match.
  std::string text = "abcdefgh";
  text += "abcdefgh";
  text += "cdefcdef";
  const std::vector<std::uint8_t> data(text.begin(), text.end());
  LzrEncoder encoder;
  std::vector<std::uint8_t> stream;
  encoder.CompressInto(data, stream);
  EXPECT_EQ(Decompress(stream), data);
  EXPECT_GE(encoder.io_stats().matches, 2u);  // the repeat AND the interior reference
}

TEST(Lz77, InputsBelowMinMatchStayLiteral) {
  for (std::size_t n = 0; n < LzParams::kMinMatch; ++n) {
    const std::vector<std::uint8_t> data(n, 0x41);
    LzrEncoder encoder;
    std::vector<std::uint8_t> stream;
    encoder.CompressInto(data, stream);
    EXPECT_EQ(encoder.io_stats().literals, n);
    EXPECT_EQ(encoder.io_stats().matches, 0u);
    EXPECT_EQ(Decompress(stream), data);
  }
}

// --- lzr ----------------------------------------------------------------------

class LzrRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(LzrRoundTrip, RoundTripsDataKind) {
  std::mt19937_64 rng(GetParam());
  std::vector<std::uint8_t> data;
  switch (GetParam()) {
    case 0: break;                                   // empty
    case 1: data.assign(1, 42); break;               // single byte
    case 2: data.assign(100000, 7); break;           // constant run
    case 3:                                          // random (incompressible)
      for (int i = 0; i < 50000; ++i) data.push_back(static_cast<std::uint8_t>(rng()));
      break;
    case 4:                                          // repetitive structured
      for (int i = 0; i < 20000; ++i) data.push_back(static_cast<std::uint8_t>(i % 97));
      break;
    case 5:                                          // text-like
      for (int i = 0; i < 3000; ++i) {
        const char* words[] = {"persona ", "semantic ", "telepresence ", "vision "};
        for (const char c : std::string(words[rng() % 4])) {
          data.push_back(static_cast<std::uint8_t>(c));
        }
      }
      break;
    case 6:                                          // noisy floats (keypoints)
      for (int i = 0; i < 8000; ++i) {
        const float f = 0.01f * static_cast<float>(i % 74) +
                        1e-4f * static_cast<float>(rng() % 1000);
        const auto* bytes = reinterpret_cast<const std::uint8_t*>(&f);
        data.insert(data.end(), bytes, bytes + 4);
      }
      break;
    case 7: {                                        // mesh position residuals
      // What a delta mesh codec would feed lzr: 14-bit quantized head-scan
      // vertices, delta-coded per axis, zigzagged and written as uleb128.
      const mesh::TriangleMesh head = mesh::GenerateHead(10000, 11);
      const mesh::Aabb box = head.Bounds();
      const mesh::Vec3 size = box.Size();
      const float grid = static_cast<float>((1u << 14) - 1);
      const auto quantize = [&](float v, float lo, float extent) {
        return extent <= 0 ? 0 : static_cast<std::int32_t>((v - lo) / extent * grid);
      };
      std::int32_t prev[3] = {0, 0, 0};
      for (const mesh::Vec3& p : head.positions) {
        const std::int32_t q[3] = {quantize(p.x, box.min.x, size.x),
                                   quantize(p.y, box.min.y, size.y),
                                   quantize(p.z, box.min.z, size.z)};
        for (int c = 0; c < 3; ++c) {
          const std::int32_t d = q[c] - prev[c];
          prev[c] = q[c];
          PutUleb128(data, (static_cast<std::uint32_t>(d) << 1) ^
                               static_cast<std::uint32_t>(d >> 31));
        }
      }
      break;
    }
    default: break;
  }
  EXPECT_EQ(Decompress(Compress(data)), data);
}

INSTANTIATE_TEST_SUITE_P(DataKinds, LzrRoundTrip, ::testing::Range(0, 8));

TEST(Lzr, CompressesRepetitiveData) {
  const std::vector<std::uint8_t> data(100000, 7);
  EXPECT_LT(Compress(data).size(), 1000u);
}

TEST(Lzr, RandomDataExpandsOnlySlightly) {
  std::mt19937_64 rng(5);
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 50000; ++i) data.push_back(static_cast<std::uint8_t>(rng()));
  EXPECT_LT(Compress(data).size(), data.size() * 106 / 100 + 16);
}

TEST(Lzr, BadMagicThrows) {
  const std::vector<std::uint8_t> junk = {'X', 'X', 'X', 'X', 0, 0};
  EXPECT_THROW(Decompress(junk), CorruptStream);
}

TEST(Lzr, LanesMagicThrows) {
  // Only LZR1 is a valid magic; '2' was the retired multi-lane container.
  auto stream = Compress(std::vector<std::uint8_t>(512, 7));
  ASSERT_EQ(stream[3], '1');
  stream[3] = '2';
  EXPECT_THROW(Decompress(stream), CorruptStream);
}

TEST(Lzr, TruncatedBodyThrows) {
  std::vector<std::uint8_t> data(5000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 31);
  auto compressed = Compress(data);
  compressed.resize(compressed.size() / 2);
  EXPECT_ANY_THROW(Decompress(compressed));
}

}  // namespace
}  // namespace vtp::compress
