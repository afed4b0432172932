// Robustness "fuzz" tests: every decoder in the repository must survive
// arbitrary bytes — either by throwing compress::CorruptStream (or another
// typed error) or by returning a failure value. Nothing may crash, hang,
// or allocate unboundedly. Inputs are seeded pseudo-random so failures
// reproduce.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>

#include "audio/codec.h"
#include "compress/lzr.h"
#include "compress/lzr_stream.h"
#include "compress/varint.h"
#include "mesh/codec.h"
#include "mesh/generator.h"
#include "netsim/network.h"
#include "semantic/codec.h"
#include "transport/fec.h"
#include "transport/quic.h"
#include "transport/rtp.h"
#include "transport/tcp_ping.h"
#include "video/codec.h"

namespace vtp {
namespace {

std::vector<std::uint8_t> RandomBytes(std::mt19937_64& rng, std::size_t max_len) {
  std::vector<std::uint8_t> data(rng() % max_len);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  return data;
}

/// Random bytes that start with a valid-looking magic/header, which reach
/// deeper code paths than pure noise.
std::vector<std::uint8_t> RandomWithPrefix(std::mt19937_64& rng, std::size_t max_len,
                                           std::initializer_list<std::uint8_t> prefix) {
  auto data = RandomBytes(rng, max_len);
  std::size_t i = 0;
  for (const std::uint8_t b : prefix) {
    if (i < data.size()) data[i++] = b;
  }
  return data;
}

template <typename Fn>
void ExpectNoCrash(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception&) {
    // Typed failure: acceptable.
  }
}

constexpr int kRounds = 300;

/// One compressed LZR1 stream, as product code produces it.
std::vector<std::uint8_t> LzrStream(std::span<const std::uint8_t> data) {
  compress::LzrEncoder encoder;
  std::vector<std::uint8_t> stream;
  encoder.CompressInto(data, stream);
  return stream;
}

TEST(Fuzz, LzrDecompressNeverCrashes) {
  std::mt19937_64 rng(1);
  std::vector<std::uint8_t> out;
  for (int i = 0; i < kRounds; ++i) {
    ExpectNoCrash([&] { compress::LzrDecompressInto(RandomBytes(rng, 512), out); });
    ExpectNoCrash([&] {
      compress::LzrDecompressInto(RandomWithPrefix(rng, 512, {'L', 'Z', 'R', '1'}), out);
    });
  }
}

// The lzr decoder fast path sizes its output vector once from the header and
// block-copies matches, so corrupt headers and corrupt token streams must be
// caught by the plausibility bound and the per-match distance/overrun checks
// — CorruptStream, never UB or a huge allocation.

TEST(Fuzz, LzrTruncatedValidStreamNeverCrashes) {
  // Overlap-heavy input: its stream decodes into long (often distance-1)
  // matches, so truncation tends to hit mid-match and mid-preamble cases.
  std::vector<std::uint8_t> data(2048, 0xAB);
  std::mt19937_64 rng(21);
  for (std::size_t i = 64; i < data.size(); i += 1 + rng() % 7) {
    data[i] = static_cast<std::uint8_t>(rng());
  }
  const auto stream = LzrStream(data);
  std::vector<std::uint8_t> out;
  for (std::size_t len = 0; len < stream.size(); ++len) {
    auto cut = stream;
    cut.resize(len);
    ExpectNoCrash([&] {
      compress::LzrDecompressInto(cut, out);
      // A truncated range-coder tail reads as zeros and may "decode" garbage,
      // but the output may never outgrow the header's original size.
      EXPECT_LE(out.size(), data.size());
    });
  }
}

TEST(Fuzz, LzrImplausibleSizeHeaderThrows) {
  // "LZR1" + a huge uleb128 original size. The decoder must reject it from
  // the plausibility bound instead of resizing to petabytes.
  for (const std::uint64_t claimed :
       {std::uint64_t{1} << 30, std::uint64_t{1} << 40, std::uint64_t{1} << 62}) {
    std::vector<std::uint8_t> evil = {'L', 'Z', 'R', '1'};
    compress::PutUleb128(evil, claimed);
    evil.insert(evil.end(), 16, 0x5A);  // plausible-looking coded tail
    std::vector<std::uint8_t> out;
    EXPECT_THROW(compress::LzrDecompressInto(evil, out), compress::CorruptStream);
  }
}

TEST(Fuzz, LzrBitFlippedStreamNeverCrashes) {
  // Single-byte corruptions of valid overlap-heavy streams: decoded matches
  // get wrong lengths/distances, which must hit the distance/overrun checks
  // or decode to bounded garbage — never out-of-bounds copies.
  std::mt19937_64 rng(22);
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 4096; ++i) {
    data.push_back(static_cast<std::uint8_t>(i % 17 == 0 ? rng() : 0x42));
  }
  const auto stream = LzrStream(data);
  // A flip in the size header may claim a larger-but-plausible output; the
  // decoder's own bound is the hard ceiling on what it will materialize.
  const std::uint64_t plausible_limit = static_cast<std::uint64_t>(stream.size()) * 16384 + 4096;
  std::vector<std::uint8_t> out;
  for (int i = 0; i < 400; ++i) {
    auto flipped = stream;
    flipped[rng() % flipped.size()] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    ExpectNoCrash([&] {
      compress::LzrDecompressInto(flipped, out);
      EXPECT_LE(out.size(), plausible_limit);
    });
  }
}

TEST(Fuzz, MeshDecodeNeverCrashes) {
  std::mt19937_64 rng(2);
  for (int i = 0; i < kRounds; ++i) {
    ExpectNoCrash([&] { mesh::DecodeMesh(RandomBytes(rng, 512)); });
    ExpectNoCrash([&] {
      mesh::DecodeMesh(RandomWithPrefix(rng, 512, {'V', 'M', 'C', '1', 14}));
    });
  }
}

TEST(Fuzz, TruncatedValidMeshNeverCrashes) {
  const auto encoded = mesh::EncodeMesh(mesh::GenerateHead(3000, 1));
  std::mt19937_64 rng(3);
  for (int i = 0; i < 60; ++i) {
    auto cut = encoded;
    cut.resize(rng() % cut.size());
    ExpectNoCrash([&] { mesh::DecodeMesh(cut); });
    // Single-byte corruption of a valid stream.
    auto flipped = encoded;
    flipped[rng() % flipped.size()] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    ExpectNoCrash([&] { mesh::DecodeMesh(flipped); });
  }
}

TEST(Fuzz, SemanticDecodeNeverCrashes) {
  std::mt19937_64 rng(4);
  semantic::SemanticDecoder decoder;
  for (int i = 0; i < kRounds; ++i) {
    ExpectNoCrash([&] { decoder.DecodeFrame(RandomBytes(rng, 1200)); });
  }
}

TEST(Fuzz, VideoDecodeNeverCrashes) {
  std::mt19937_64 rng(5);
  video::VideoDecoder decoder({160, 96});
  for (int i = 0; i < kRounds; ++i) {
    ExpectNoCrash([&] { decoder.Decode(RandomBytes(rng, 2048)); });
    // Plausible header (P flag off, sane qp, matching dims as varints).
    ExpectNoCrash([&] {
      decoder.Decode(RandomWithPrefix(rng, 2048, {1, 20, 160, 1, 96}));
    });
  }
}

TEST(Fuzz, AudioDecodeNeverCrashes) {
  std::mt19937_64 rng(6);
  audio::AudioDecoder decoder;
  for (int i = 0; i < kRounds; ++i) {
    ExpectNoCrash([&] { decoder.DecodeFrame(RandomBytes(rng, 600)); });
    ExpectNoCrash([&] { decoder.DecodeFrame(RandomWithPrefix(rng, 600, {0, 5})); });
  }
}

TEST(Fuzz, RtpParseNeverCrashes) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < kRounds; ++i) {
    const auto data = RandomBytes(rng, 64);
    ExpectNoCrash([&] { transport::RtpHeader::Parse(data); });
    ExpectNoCrash([&] { transport::RtcpReceiverReport::Parse(data); });
    ExpectNoCrash([&] { transport::RtcpSenderReport::Parse(data); });
    transport::TcpProbe probe;
    ExpectNoCrash([&] { transport::TcpProbe::Parse(data, &probe); });
    // Valid-looking headers reach past each parser's type check; the SFU
    // runs the SR parser on every datagram of the RTP path.
    const auto sr = RandomWithPrefix(rng, 64, {0x80, 200});
    const auto rr = RandomWithPrefix(rng, 64, {0x81, 201});
    const auto syn = RandomWithPrefix(rng, 64, {'T', 'C', 'P', 'P'});
    ExpectNoCrash([&] { transport::RtcpSenderReport::Parse(sr); });
    ExpectNoCrash([&] { transport::RtcpReceiverReport::Parse(rr); });
    ExpectNoCrash([&] { transport::TcpProbe::Parse(syn, &probe); });
  }
}

TEST(Fuzz, FecDecoderNeverCrashes) {
  std::mt19937_64 rng(8);
  transport::FecDecoder decoder([](std::span<const std::uint8_t>) {});
  for (int i = 0; i < kRounds; ++i) {
    decoder.OnDatagram(RandomBytes(rng, 256));
    decoder.OnDatagram(RandomWithPrefix(rng, 256, {0x00, 1, 0, 4}));
    decoder.OnDatagram(RandomWithPrefix(rng, 256, {0x01, 1, 4, 4}));
  }
  SUCCEED();
}

// Valid repair packets, then damaged: truncated at every length and
// bit-flipped at random positions. The decoder must neither crash nor let a
// corrupt parity frame damage sources that arrived intact.
TEST(Fuzz, FecCorruptRepairPacketsNeverCrashOrCorruptSources) {
  std::mt19937_64 rng(9);
  for (int round = 0; round < 60; ++round) {
    transport::FecEncoder encoder(3);
    std::vector<std::vector<std::uint8_t>> sources;   // original payloads
    std::vector<std::vector<std::uint8_t>> parities;  // valid repair frames
    std::vector<std::vector<std::uint8_t>> framed_sources;
    for (int i = 0; i < 9; ++i) {
      std::vector<std::uint8_t> payload(20 + rng() % 200);
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
      sources.push_back(payload);
      for (auto& f : encoder.Protect(payload)) {
        (f[0] == 0x01 ? parities : framed_sources).push_back(std::move(f));
      }
    }
    ASSERT_EQ(parities.size(), 3u);

    std::vector<std::vector<std::uint8_t>> delivered;
    transport::FecDecoder decoder([&](std::span<const std::uint8_t> p) {
      delivered.emplace_back(p.begin(), p.end());
    });
    for (const auto& f : framed_sources) decoder.OnDatagram(f);
    for (const auto& parity : parities) {
      // Truncations of a valid repair frame, including the empty one.
      for (std::size_t len = 0; len < parity.size(); len += 1 + rng() % 7) {
        ExpectNoCrash(
            [&] { decoder.OnDatagram(std::span(parity.data(), len)); });
      }
      // Bit flips anywhere in the frame (header or XOR payload).
      for (int flips = 0; flips < 8; ++flips) {
        auto corrupt = parity;
        corrupt[rng() % corrupt.size()] ^=
            static_cast<std::uint8_t>(1u << (rng() % 8));
        ExpectNoCrash([&] { decoder.OnDatagram(corrupt); });
      }
    }
    // Every intact source was delivered exactly once with its exact bytes,
    // no matter what the damaged repair frames claimed.
    ASSERT_GE(delivered.size(), sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i) {
      EXPECT_EQ(delivered[i], sources[i]);
    }
  }
}

// A truncated parity that still parses as a frame header must not be used
// to "recover" a wrong payload for a genuinely missing source.
TEST(Fuzz, FecTruncatedRepairNeverFabricatesARecovery) {
  std::mt19937_64 rng(10);
  for (int round = 0; round < 60; ++round) {
    transport::FecEncoder encoder(4);
    std::vector<std::vector<std::uint8_t>> framed;
    std::vector<std::vector<std::uint8_t>> sources;
    for (int i = 0; i < 4; ++i) {
      std::vector<std::uint8_t> payload(30 + rng() % 100);
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
      sources.push_back(payload);
      for (auto& f : encoder.Protect(payload)) framed.push_back(std::move(f));
    }
    ASSERT_EQ(framed.size(), 5u);

    const std::size_t dropped = rng() % 4;  // one missing source
    std::vector<std::vector<std::uint8_t>> delivered;
    transport::FecDecoder decoder([&](std::span<const std::uint8_t> p) {
      delivered.emplace_back(p.begin(), p.end());
    });
    for (std::size_t i = 0; i < 4; ++i) {
      if (i != dropped) decoder.OnDatagram(framed[i]);
    }
    const auto& parity = framed[4];
    const std::size_t cut = 1 + rng() % (parity.size() - 1);
    ExpectNoCrash([&] { decoder.OnDatagram(std::span(parity.data(), cut)); });
    // Whatever happened, nothing delivered may differ from a real source.
    for (const auto& p : delivered) {
      bool is_real = false;
      for (std::size_t i = 0; i < 4; ++i) {
        if (i != dropped && p == sources[i]) is_real = true;
      }
      if (p == sources[dropped]) is_real = true;  // full recovery is fine
      EXPECT_TRUE(is_real) << "decoder fabricated a payload from a truncated parity";
    }
  }
}

TEST(Fuzz, QuicEndpointSurvivesGarbagePackets) {
  net::Simulator sim(9);
  net::Network network(&sim);
  network.BuildBackbone();
  const auto attacker = network.AddHost("x", "Chicago");
  const auto victim = network.AddHost("v", "NewYork");
  network.ComputeRoutes();
  transport::QuicEndpoint server(&network, victim, 4433);
  server.set_on_accept([](transport::QuicConnection*) {});

  std::mt19937_64 rng(10);
  for (int i = 0; i < 200; ++i) {
    auto garbage = RandomBytes(rng, 300);
    if (garbage.empty()) garbage.push_back(0);
    // Bias some packets toward valid-looking long/short headers.
    if (i % 3 == 0) garbage[0] = 0xC0;
    if (i % 3 == 1) garbage[0] = 0x40;
    network.SendUdp(attacker, 1000, victim, 4433, std::move(garbage));
  }
  sim.RunUntil(net::Seconds(5));
  SUCCEED();  // no crash, no hang
}

// Garbage delivered to an *established* connection reaches the frame parser
// and ACK processing, not just the endpoint demux — the deepest attack
// surface.
TEST(Fuzz, EstablishedQuicConnectionSurvivesForgedFrames) {
  net::Simulator sim(13);
  net::Network network(&sim);
  network.BuildBackbone();
  const auto attacker = network.AddHost("x", "Chicago");
  const auto client_host = network.AddHost("c", "SanFrancisco");
  const auto victim = network.AddHost("v", "NewYork");
  network.ComputeRoutes();

  transport::QuicEndpoint client(&network, client_host, 9300);
  transport::QuicEndpoint server(&network, victim, 4433);
  server.set_on_accept([](transport::QuicConnection* conn) {
    conn->set_on_datagram([](std::span<const std::uint8_t>) {});
  });
  transport::QuicConnection* conn = client.Connect(victim, 4433);
  sim.RunUntil(net::Millis(300));
  ASSERT_TRUE(conn->established());

  // The deterministic CID scheme ((node << 32) | (port << 8) | seq) lets the
  // attacker address the client connection directly.
  const std::uint64_t client_cid = (static_cast<std::uint64_t>(client_host) << 32) |
                                   (static_cast<std::uint64_t>(9300) << 8) | 1;
  std::mt19937_64 rng(14);
  const auto forge = [&](std::initializer_list<std::uint8_t> frame_prefix) {
    std::vector<std::uint8_t> p;
    p.push_back(0x40);
    for (int s = 7; s >= 0; --s) {
      p.push_back(static_cast<std::uint8_t>(client_cid >> (8 * s)));
    }
    p.push_back(static_cast<std::uint8_t>(rng() % 64));  // 1-byte varint pn
    p.insert(p.end(), frame_prefix);
    const auto tail = RandomBytes(rng, 48);
    p.insert(p.end(), tail.begin(), tail.end());
    return p;
  };
  for (int i = 0; i < 200; ++i) {
    // Truncated / garbage ACK frames: random largest/delay/range-count
    // varints followed by noise, plus hand-picked degenerate encodings.
    network.SendUdp(attacker, 2000, client_host, 9300, forge({0x02}));
    network.SendUdp(attacker, 2001, client_host, 9300,
                    forge({0x02, 0xFF}));  // truncated 8-byte varint
    // Garbage stream (an unknown frame type: the rest of the packet is
    // dropped) and datagram frames.
    network.SendUdp(attacker, 2002, client_host, 9300, forge({0x0E}));
    network.SendUdp(attacker, 2003, client_host, 9300, forge({0x0F, 0x04}));
    network.SendUdp(attacker, 2004, client_host, 9300, forge({0x31, 0xBF}));
    // Truncated packets: header cut mid-CID.
    auto cut = forge({0x02, 0x10});
    cut.resize(1 + rng() % 8);
    network.SendUdp(attacker, 2005, client_host, 9300, std::move(cut));
  }
  sim.RunUntil(net::Seconds(5));

  // The connection survives and still carries traffic.
  EXPECT_FALSE(conn->closed());
  const std::uint64_t sent_before = conn->stats().datagrams_sent;
  conn->SendDatagram(std::vector<std::uint8_t>(100, 1));
  sim.RunUntil(sim.now() + net::Millis(300));
  EXPECT_EQ(conn->stats().datagrams_sent, sent_before + 1);
}

TEST(Fuzz, RtpReceiverSurvivesGarbage) {
  net::Simulator sim(11);
  net::Network network(&sim);
  network.BuildBackbone();
  const auto a = network.AddHost("a", "Chicago");
  const auto b = network.AddHost("b", "Dallas");
  network.ComputeRoutes();
  int frames = 0;
  transport::RtpReceiver receiver(
      &network, b, 6000,
      [&](std::uint32_t, std::vector<std::uint8_t>, std::uint32_t, net::SimTime) {
        ++frames;
      });
  std::mt19937_64 rng(12);
  for (int i = 0; i < 200; ++i) {
    auto garbage = RandomBytes(rng, 200);
    if (!garbage.empty() && i % 2 == 0) garbage[0] = 0x80;  // RTP-looking
    network.SendUdp(a, 1000, b, 6000, std::move(garbage));
  }
  sim.RunUntil(net::Seconds(5));
  SUCCEED();
}

}  // namespace
}  // namespace vtp
