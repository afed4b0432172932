// Tests for the transport extensions: FEC, QUIC connection close, ACK-range
// edge cases, the QUIC wire goldens, the allocation-free SFU forward path,
// and the armed frame tracer's cost on it.
#include <gtest/gtest.h>

#include <time.h>

#include <iostream>
#include <set>

#include "alloc_counter.h"
#include "core/stats.h"
#include "core/table.h"
#include "netsim/capture.h"
#include "netsim/netem.h"
#include "netsim/network.h"
#include "sfu_fanout.h"
#include "transport/fec.h"
#include "transport/quic.h"
#include "vca/session.h"

namespace vtp::transport {
namespace {

// --- FEC -----------------------------------------------------------------------

std::vector<std::uint8_t> MakePayload(int seed, std::size_t size) {
  std::vector<std::uint8_t> p(size);
  for (std::size_t i = 0; i < size; ++i) {
    p[i] = static_cast<std::uint8_t>(seed * 31 + static_cast<int>(i) * 7);
  }
  return p;
}

TEST(Fec, LosslessPathDeliversEverySourceOnce) {
  std::vector<std::vector<std::uint8_t>> delivered;
  FecDecoder decoder([&](std::span<const std::uint8_t> p) {
    delivered.emplace_back(p.begin(), p.end());
  });
  FecEncoder encoder(4);
  std::vector<std::vector<std::uint8_t>> sent;
  for (int i = 0; i < 12; ++i) {
    sent.push_back(MakePayload(i, 100 + static_cast<std::size_t>(i)));
    for (auto& framed : encoder.Protect(sent.back())) {
      decoder.OnDatagram(framed);
    }
  }
  ASSERT_EQ(delivered.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(delivered[static_cast<std::size_t>(i)], sent[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(decoder.stats().recovered, 0u);
  EXPECT_EQ(decoder.stats().parities_received, 3u);
}

class FecLossPosition : public ::testing::TestWithParam<int> {};

TEST_P(FecLossPosition, RecoversAnySingleLossInAGroup) {
  const int lost_index = GetParam();
  std::vector<std::vector<std::uint8_t>> delivered;
  FecDecoder decoder([&](std::span<const std::uint8_t> p) {
    delivered.emplace_back(p.begin(), p.end());
  });
  FecEncoder encoder(4);
  std::vector<std::vector<std::uint8_t>> sent;
  for (int i = 0; i < 4; ++i) {
    sent.push_back(MakePayload(i, 50 + static_cast<std::size_t>(i) * 13));
    const auto framed = encoder.Protect(sent.back());
    for (std::size_t f = 0; f < framed.size(); ++f) {
      // framed[0] is the source; framed[1] (last round) is the parity.
      if (f == 0 && i == lost_index) continue;  // drop this source
      decoder.OnDatagram(framed[f]);
    }
  }
  ASSERT_EQ(delivered.size(), 4u);  // 3 direct + 1 recovered
  EXPECT_EQ(decoder.stats().recovered, 1u);
  // The recovered payload is delivered last but byte-exact.
  EXPECT_EQ(delivered.back(), sent[static_cast<std::size_t>(lost_index)]);
}

INSTANTIATE_TEST_SUITE_P(Positions, FecLossPosition, ::testing::Values(0, 1, 2, 3));

TEST(Fec, DoubleLossIsUnrecoverable) {
  int delivered = 0;
  FecDecoder decoder([&](std::span<const std::uint8_t>) { ++delivered; });
  FecEncoder encoder(3);
  for (int group = 0; group < 20; ++group) {
    for (int i = 0; i < 3; ++i) {
      const auto framed = encoder.Protect(MakePayload(group * 3 + i, 80));
      for (std::size_t f = 0; f < framed.size(); ++f) {
        if (f == 0 && i <= 1) continue;  // drop two sources per group
        decoder.OnDatagram(framed[f]);
      }
    }
  }
  EXPECT_EQ(delivered, 20);  // only the surviving source per group
  EXPECT_EQ(decoder.stats().recovered, 0u);
  EXPECT_GT(decoder.stats().unrecoverable, 0u);  // counted as groups retire
}

TEST(Fec, ParityLossCostsNothing) {
  std::vector<std::vector<std::uint8_t>> delivered;
  FecDecoder decoder([&](std::span<const std::uint8_t> p) {
    delivered.emplace_back(p.begin(), p.end());
  });
  FecEncoder encoder(2);
  for (int i = 0; i < 6; ++i) {
    const auto framed = encoder.Protect(MakePayload(i, 64));
    decoder.OnDatagram(framed[0]);  // never forward parity
  }
  EXPECT_EQ(delivered.size(), 6u);
}

TEST(Fec, OverheadIsOneOverK) {
  FecEncoder encoder(5);
  int total = 0;
  for (int i = 0; i < 100; ++i) {
    total += static_cast<int>(encoder.Protect(MakePayload(i, 100)).size());
  }
  EXPECT_EQ(total, 100 + 20);  // 100 sources + 100/5 parities
}

TEST(Fec, GarbageInputCountedNotCrashing) {
  FecDecoder decoder(nullptr);
  decoder.OnDatagram(std::vector<std::uint8_t>{});
  decoder.OnDatagram(std::vector<std::uint8_t>{9, 9, 9, 9});
  EXPECT_GT(decoder.stats().unrecoverable, 0u);
}

TEST(Fec, InvalidKThrows) {
  EXPECT_THROW(FecEncoder(0), std::invalid_argument);
  EXPECT_THROW(FecEncoder(300), std::invalid_argument);
}

// --- QUIC close --------------------------------------------------------------------

TEST(QuicClose, CloseStopsTrafficAndNotifiesPeer) {
  net::Simulator sim(1);
  net::Network network(&sim);
  network.BuildBackbone();
  const auto a = network.AddHost("a", "SanFrancisco");
  const auto b = network.AddHost("b", "NewYork");
  network.ComputeRoutes();
  QuicEndpoint client(&network, a, 9000), server(&network, b, 4433);
  QuicConnection* server_conn = nullptr;
  std::uint64_t peer_error = 999;
  server.set_on_accept([&](QuicConnection* conn) {
    server_conn = conn;
    conn->set_on_close([&](std::uint64_t code) { peer_error = code; });
  });
  QuicConnection* conn = client.Connect(b, 4433);
  sim.RunUntil(net::Millis(300));
  ASSERT_TRUE(conn->established());

  conn->Close(7);
  sim.RunUntil(net::Millis(600));
  EXPECT_TRUE(conn->closed());
  ASSERT_NE(server_conn, nullptr);
  EXPECT_TRUE(server_conn->closed());
  EXPECT_EQ(peer_error, 7u);

  // Post-close sends are no-ops.
  const auto sent_before = conn->stats().packets_sent;
  conn->SendDatagram(std::vector<std::uint8_t>(100, 1));
  sim.RunUntil(net::Millis(900));
  EXPECT_EQ(conn->stats().packets_sent, sent_before);
}

// --- FEC protecting the semantic stream over a lossy QUIC path ----------------------

TEST(FecOverQuic, RecoversMostSingleLossesEndToEnd) {
  net::Simulator sim(5);
  net::Network network(&sim);
  network.BuildBackbone();
  const auto a = network.AddHost("a", "SanFrancisco");
  const auto b = network.AddHost("b", "NewYork");
  network.ComputeRoutes();

  QuicEndpoint client(&network, a, 9000), server(&network, b, 4433);
  FecDecoder fec_decoder(nullptr);
  server.set_on_accept([&](QuicConnection* conn) {
    conn->set_on_datagram(
        [&](std::span<const std::uint8_t> d) { fec_decoder.OnDatagram(d); });
  });
  QuicConnection* conn = client.Connect(b, 4433);
  sim.RunUntil(net::Millis(300));

  net::Netem netem(&network, a, network.AccessRouter(a));
  netem.SetLoss(0.05);

  FecEncoder fec_encoder(4);
  const int frames = 400;
  for (int i = 0; i < frames; ++i) {
    sim.At(net::Millis(300 + i * 11), [&, i] {
      for (auto& framed : fec_encoder.Protect(MakePayload(i, 850))) {
        conn->SendDatagram(framed);
      }
    });
  }
  sim.RunUntil(net::Seconds(10));

  const FecDecoderStats& s = fec_decoder.stats();
  const double direct = static_cast<double>(s.sources_received) / frames;
  const double with_fec =
      static_cast<double>(s.sources_received + s.recovered) / frames;
  EXPECT_GT(s.recovered, 5u);            // FEC actually fired
  EXPECT_GT(with_fec, direct + 0.01);    // and improved delivery
  EXPECT_GT(with_fec, 0.97);             // ~5% loss mostly repaired at k=4
}

// --- ACK-range edge cases -----------------------------------------------------------
//
// Endpoint CIDs are deterministic ((node << 32) | (port << 8) | seq), so a
// test can forge short-header packets carrying hand-built ACK frames and
// inject them at the victim's UDP port — exercising ACK processing on inputs
// a well-behaved peer never produces.

class AckHarness : public ::testing::Test {
 protected:
  AckHarness() : sim_(1), net_(&sim_) {
    net_.BuildBackbone();
    a_ = net_.AddHost("a", "SanFrancisco");
    b_ = net_.AddHost("b", "NewYork");
    net_.ComputeRoutes();
  }

  /// The first CID minted by the endpoint at (node, port).
  static std::uint64_t FirstCid(net::NodeId node, std::uint16_t port) {
    return (static_cast<std::uint64_t>(node) << 32) |
           (static_cast<std::uint64_t>(port) << 8) | 1;
  }

  /// Short-header packet for `dcid` containing one ACK frame.
  /// `ranges` are the (gap, len) pairs after the first range, as on the wire.
  static std::vector<std::uint8_t> ForgeAck(
      std::uint64_t dcid, std::uint64_t pn, std::uint64_t largest,
      std::uint64_t first_range,
      std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges = {}) {
    std::vector<std::uint8_t> p;
    p.push_back(0x40);
    for (int i = 7; i >= 0; --i) {
      p.push_back(static_cast<std::uint8_t>(dcid >> (8 * i)));
    }
    PutQuicVarint(p, pn);
    p.push_back(0x02);  // ACK frame
    PutQuicVarint(p, largest);
    PutQuicVarint(p, 0);  // ack delay (us)
    PutQuicVarint(p, ranges.size());
    PutQuicVarint(p, first_range);
    for (const auto& [gap, len] : ranges) {
      PutQuicVarint(p, gap);
      PutQuicVarint(p, len);
    }
    return p;
  }

  /// Establishes a client connection and sends `n` datagrams on it.
  QuicConnection* Establish(QuicEndpoint& client, QuicEndpoint& server, int n) {
    server.set_on_accept([](QuicConnection* conn) {
      conn->set_on_datagram([](std::span<const std::uint8_t>) {});
    });
    QuicConnection* conn = client.Connect(b_, 4433);
    sim_.RunUntil(net::Millis(300));
    EXPECT_TRUE(conn->established());
    for (int i = 0; i < n; ++i) {
      sim_.After(net::Millis(i), [conn] {
        conn->SendDatagram(std::vector<std::uint8_t>(200, 5));
      });
    }
    sim_.RunUntil(sim_.now() + net::Millis(n + 200));
    return conn;
  }

  net::Simulator sim_;
  net::Network net_;
  net::NodeId a_ = 0, b_ = 0;
};

TEST_F(AckHarness, OutOfOrderAckRangesAllSettle) {
  QuicEndpoint client(&net_, a_, 9100), server(&net_, b_, 4433);
  QuicConnection* conn = Establish(client, server, 20);
  const std::uint64_t cid = FirstCid(a_, 9100);

  // Two disjoint ranges acking the middle of the sent window, injected out
  // of band (the real peer's ACKs are also in flight). Ranges inside one
  // frame run high-to-low per the wire format.
  net_.SendUdp(b_, 40000, a_, 9100,
               ForgeAck(cid, 1000, 15, 2, {{1, 2}}));  // acks 13-15 and 8-10
  net_.SendUdp(b_, 40001, a_, 9100, ForgeAck(cid, 1001, 5, 4));  // acks 1-5
  sim_.RunUntil(sim_.now() + net::Millis(500));

  // Nothing was spuriously declared lost and the connection still moves data.
  EXPECT_EQ(conn->stats().packets_declared_lost, 0u);
  const std::uint64_t sent_before = conn->stats().datagrams_sent;
  conn->SendDatagram(std::vector<std::uint8_t>(100, 6));
  sim_.RunUntil(sim_.now() + net::Millis(200));
  EXPECT_EQ(conn->stats().datagrams_sent, sent_before + 1);
}

TEST_F(AckHarness, DuplicateAcksAreIdempotent) {
  QuicEndpoint client(&net_, a_, 9101), server(&net_, b_, 4433);
  QuicConnection* conn = Establish(client, server, 10);
  const std::uint64_t cid = FirstCid(a_, 9101);

  // The same full-window ACK delivered five times.
  for (int i = 0; i < 5; ++i) {
    net_.SendUdp(b_, 41000 + static_cast<std::uint16_t>(i), a_, 9101,
                 ForgeAck(cid, 2000 + static_cast<std::uint64_t>(i), 10, 9));
  }
  sim_.RunUntil(sim_.now() + net::Millis(500));
  EXPECT_EQ(conn->stats().packets_declared_lost, 0u);
  EXPECT_TRUE(conn->established());

  const std::uint64_t sent_before = conn->stats().datagrams_sent;
  conn->SendDatagram(std::vector<std::uint8_t>(100, 7));
  sim_.RunUntil(sim_.now() + net::Millis(200));
  EXPECT_EQ(conn->stats().datagrams_sent, sent_before + 1);
}

TEST_F(AckHarness, AckOfUnsentPacketsIsDroppedHarmlessly) {
  QuicEndpoint client(&net_, a_, 9102), server(&net_, b_, 4433);
  QuicConnection* conn = Establish(client, server, 5);
  const std::uint64_t cid = FirstCid(a_, 9102);

  // largest far beyond anything sent: without the range guard this walks
  // billions of packet numbers. first_range > largest is equally malformed.
  net_.SendUdp(b_, 42000, a_, 9102, ForgeAck(cid, 3000, (1ull << 40), 3));
  net_.SendUdp(b_, 42001, a_, 9102, ForgeAck(cid, 3001, 4, 100));
  // A range whose gap underflows the cursor (cursor < gap + 2).
  net_.SendUdp(b_, 42002, a_, 9102, ForgeAck(cid, 3002, 4, 0, {{50, 1}}));
  sim_.RunUntil(sim_.now() + net::Millis(500));

  // Malformed frames dropped the packet, nothing more.
  EXPECT_TRUE(conn->established());
  EXPECT_EQ(conn->stats().packets_declared_lost, 0u);
  const std::uint64_t sent_before = conn->stats().datagrams_sent;
  conn->SendDatagram(std::vector<std::uint8_t>(100, 8));
  sim_.RunUntil(sim_.now() + net::Millis(200));
  EXPECT_EQ(conn->stats().datagrams_sent, sent_before + 1);
}

TEST_F(AckHarness, LateAckOfLostPacketIsBenign) {
  net::Netem netem(&net_, a_, net_.AccessRouter(a_));
  QuicEndpoint client(&net_, a_, 9103), server(&net_, b_, 4433);
  std::uint64_t received = 0;
  server.set_on_accept([&](QuicConnection* conn) {
    conn->set_on_datagram([&](std::span<const std::uint8_t>) { ++received; });
  });
  QuicConnection* conn = client.Connect(b_, 4433);
  sim_.RunUntil(net::Millis(300));
  ASSERT_TRUE(conn->established());

  // Heavy loss: packets are declared lost, by packet threshold or by PTO.
  netem.SetLoss(0.3);
  for (int i = 0; i < 100; ++i) {
    sim_.After(net::Millis(2 * i), [conn] {
      conn->SendDatagram(std::vector<std::uint8_t>(400, 3));
    });
  }
  sim_.RunUntil(net::Seconds(5));
  netem.SetLoss(0.0);
  EXPECT_GT(conn->stats().packets_declared_lost, 0u);
  const std::uint64_t received_before = received;

  // Now ack every packet number ever used, including the ones declared
  // lost. Acking a packet already marked lost must be benign: no delivery,
  // no second loss, and the connection keeps sending.
  const std::uint64_t lost_before = conn->stats().packets_declared_lost;
  const std::uint64_t cid = FirstCid(a_, 9103);
  net_.SendUdp(b_, 43000, a_, 9103,
               ForgeAck(cid, 4000, conn->stats().packets_sent - 1,
                        conn->stats().packets_sent - 1));
  sim_.RunUntil(sim_.now() + net::Millis(500));
  EXPECT_TRUE(conn->established());
  EXPECT_EQ(received, received_before);
  EXPECT_EQ(conn->stats().packets_declared_lost, lost_before);
  const std::uint64_t sent_before = conn->stats().datagrams_sent;
  conn->SendDatagram(std::vector<std::uint8_t>(100, 9));
  sim_.RunUntil(sim_.now() + net::Millis(200));
  EXPECT_EQ(conn->stats().datagrams_sent, sent_before + 1);
  EXPECT_EQ(received, received_before + 1);
}

// --- pre-handshake datagram queue cap -----------------------------------------------

TEST_F(AckHarness, PreHandshakeQueueCapDropsOldest) {
  QuicEndpoint client(&net_, a_, 9104), server(&net_, b_, 4433);
  std::vector<std::uint8_t> first_bytes;
  server.set_on_accept([&](QuicConnection* conn) {
    conn->set_on_datagram([&](std::span<const std::uint8_t> d) {
      first_bytes.push_back(d[0]);
    });
  });
  QuicConnection* conn = client.Connect(b_, 4433);
  // 200 sends before the handshake can complete (the sim has not run yet).
  for (int i = 0; i < 200; ++i) {
    conn->SendDatagram(std::vector<std::uint8_t>(
        100, static_cast<std::uint8_t>(i)));
  }
  EXPECT_EQ(conn->stats().datagrams_dropped_prehandshake,
            200 - QuicConnection::kMaxPreHandshakeDatagrams);
  sim_.RunUntil(net::Seconds(2));
  // Drop-oldest: exactly the newest kMaxPreHandshakeDatagrams survive.
  ASSERT_EQ(first_bytes.size(), QuicConnection::kMaxPreHandshakeDatagrams);
  EXPECT_EQ(first_bytes.front(),
            static_cast<std::uint8_t>(200 - QuicConnection::kMaxPreHandshakeDatagrams));
  EXPECT_EQ(first_bytes.back(), static_cast<std::uint8_t>(199));
}

// --- datagram session goldens ------------------------------------------------------
//
// One deterministic datagram session under loss (a pre-handshake datagram,
// then 120 growing ones); every wire and application-edge observable is
// pinned. The values were recorded with the reliable-stream stack still in
// the transport, so they show the datagram path did not move when it went.
// At 15% loss a lost handshake packet waits a full 999 ms PTO, so only the
// 64 newest pre-handshake datagrams go out.

std::uint64_t Fnv1a(std::uint64_t h, std::span<const std::uint8_t> data) {
  for (const std::uint8_t b : data) {
    h = (h ^ b) * 1099511628211ull;
  }
  return h;
}

struct DifferentialResult {
  std::uint64_t datagram_digest = 1469598103934665603ull;
  std::uint64_t wire_digest = 1469598103934665603ull;
  std::uint64_t wire_packets = 0;
  std::uint64_t datagrams = 0;
  QuicStats client_stats;
};

/// One datagram session under `loss` on the client's access link.
DifferentialResult RunDifferentialSession(double loss) {
  net::Simulator sim(1);
  net::Network net(&sim);
  net.BuildBackbone();
  const auto a = net.AddHost("a", "SanFrancisco");
  const auto b = net.AddHost("b", "NewYork");
  net.ComputeRoutes();

  net::Capture cap;
  cap.AttachToLink(net, a, net.AccessRouter(a));
  net::Netem netem(&net, a, net.AccessRouter(a));
  netem.SetLoss(loss);

  DifferentialResult r;
  QuicEndpoint client(&net, a, 9200), server(&net, b, 4433);
  server.set_on_accept([&](QuicConnection* conn) {
    conn->set_on_datagram([&](std::span<const std::uint8_t> d) {
      r.datagram_digest = Fnv1a(r.datagram_digest, d);
      ++r.datagrams;
    });
  });
  QuicConnection* conn = client.Connect(b, 4433);
  conn->SendDatagram(std::vector<std::uint8_t>(80, 1));  // queued pre-handshake
  for (int i = 0; i < 120; ++i) {
    sim.At(net::Millis(200 + i * 7), [conn, i] {
      conn->SendDatagram(std::vector<std::uint8_t>(
          300 + static_cast<std::size_t>(i), static_cast<std::uint8_t>(i)));
    });
  }
  sim.RunUntil(net::Seconds(60));

  for (const net::CaptureRecord& rec : cap.records()) {
    ++r.wire_packets;
    const std::uint8_t hdr[4] = {
        static_cast<std::uint8_t>(rec.wire_bytes >> 8),
        static_cast<std::uint8_t>(rec.wire_bytes),
        static_cast<std::uint8_t>(rec.src_port >> 8),
        static_cast<std::uint8_t>(rec.src_port)};
    r.wire_digest = Fnv1a(r.wire_digest, hdr);
    r.wire_digest = Fnv1a(r.wire_digest,
                          std::span(rec.prefix.data(), rec.prefix_len));
  }
  r.client_stats = conn->stats();
  return r;
}

struct DifferentialGolden {
  double loss;
  std::uint64_t wire_packets;
  std::uint64_t wire_digest;
  std::uint64_t datagram_digest;
  std::uint64_t datagrams;
  std::uint64_t packets_sent;
  std::uint64_t packets_received;
  std::uint64_t packets_declared_lost;
  std::uint64_t bytes_sent;
  std::uint64_t datagrams_sent;
  double smoothed_rtt_ms;
};

void PrintTo(const DifferentialGolden& g, std::ostream* os) { *os << "loss " << g.loss; }

class DifferentialLoss : public ::testing::TestWithParam<DifferentialGolden> {};

TEST_P(DifferentialLoss, DatagramSessionPinned) {
  const DifferentialGolden& g = GetParam();
  const DifferentialResult r = RunDifferentialSession(g.loss);

  // Byte-identical wire traffic...
  EXPECT_EQ(r.wire_packets, g.wire_packets);
  EXPECT_EQ(r.wire_digest, g.wire_digest);
  // ...identical application-edge delivery...
  EXPECT_EQ(r.datagrams, g.datagrams);
  EXPECT_EQ(r.datagram_digest, g.datagram_digest);
  // ...and identical transport accounting.
  EXPECT_EQ(r.client_stats.packets_sent, g.packets_sent);
  EXPECT_EQ(r.client_stats.packets_received, g.packets_received);
  EXPECT_EQ(r.client_stats.packets_declared_lost, g.packets_declared_lost);
  EXPECT_EQ(r.client_stats.bytes_sent, g.bytes_sent);
  EXPECT_EQ(r.client_stats.datagrams_sent, g.datagrams_sent);
  EXPECT_DOUBLE_EQ(r.client_stats.smoothed_rtt_ms, g.smoothed_rtt_ms);
  // Sanity: the scenario exercised real traffic.
  EXPECT_GT(r.datagrams, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    LossGrid, DifferentialLoss,
    ::testing::Values(
        DifferentialGolden{0.0, 188, 3409308868254419123ull, 13988156583958052683ull, 121, 123,
                           65, 0, 46070, 121, 72.591699000000006},
        DifferentialGolden{0.05, 182, 13130575333707878028ull, 7193087466685468629ull, 117, 123,
                           63, 4, 46070, 121, 72.608802999999995},
        DifferentialGolden{0.15, 78, 11356275501079539696ull, 18042709151992616699ull, 49, 68,
                           27, 17, 29254, 64, 80.949247999999997}));

// --- oversized DATAGRAM frames -----------------------------------------------------
//
// 1172 B is the largest DATAGRAM payload whose frame fits the 1200-byte
// packet block; anything larger goes out as one packet sized to the frame.
// Each case pins the full bytes of every packet on the client's access link
// (both directions) and the payloads the server delivers.

TEST(QuicDatagram, OversizedFramesPinned) {
  struct Golden {
    std::size_t size;
    std::uint64_t wire_digest;
    std::uint64_t delivered_digest;
  };
  const Golden goldens[] = {
      {1172, 5464570544329615458ull, 13072546111678985735ull},
      {1173, 4484279207724408650ull, 12614487435031523594ull},
      {3000, 16325649116807925353ull, 8955097869005611747ull},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(g.size);
    net::Simulator sim(1);
    net::Network net(&sim);
    net.BuildBackbone();
    const auto a = net.AddHost("a", "SanFrancisco");
    const auto b = net.AddHost("b", "NewYork");
    net.ComputeRoutes();

    std::uint64_t wire_packets = 0;
    std::uint64_t wire_digest = 1469598103934665603ull;
    const auto tap = [&](const net::Packet& p, net::SimTime) {
      ++wire_packets;
      wire_digest = Fnv1a(wire_digest, p.payload.view());
    };
    net.link(a, net.AccessRouter(a)).set_tap(tap);
    net.link(net.AccessRouter(a), a).set_tap(tap);

    std::uint64_t delivered = 0;
    std::uint64_t delivered_digest = 1469598103934665603ull;
    QuicEndpoint client(&net, a, 9300), server(&net, b, 4433);
    server.set_on_accept([&](QuicConnection* conn) {
      conn->set_on_datagram([&](std::span<const std::uint8_t> d) {
        ++delivered;
        delivered_digest = Fnv1a(delivered_digest, d);
      });
    });
    QuicConnection* conn = client.Connect(b, 4433);
    sim.RunUntil(net::Millis(300));
    ASSERT_TRUE(conn->established());
    for (int i = 0; i < 3; ++i) {
      std::vector<std::uint8_t> payload(g.size);
      for (std::size_t k = 0; k < payload.size(); ++k) {
        payload[k] = static_cast<std::uint8_t>(k * 7 + static_cast<std::size_t>(i));
      }
      conn->SendDatagram(payload);
    }
    sim.RunUntil(net::Seconds(2));

    EXPECT_EQ(delivered, 3u);
    EXPECT_EQ(conn->stats().datagrams_sent, 3u);
    EXPECT_EQ(wire_packets, 9u);
    EXPECT_EQ(wire_digest, g.wire_digest);
    EXPECT_EQ(delivered_digest, g.delivered_digest);
  }
}

// --- steady-state allocations on the SFU forward path -------------------------

TEST(SfuFanout, SteadyStateForwardingDoesNotAllocate) {
  // Five personas fanning 90 FPS datagrams through one SFU, tracer off. Once
  // a second of traffic has warmed the packet pools, send rings and ACK
  // state, relaying each datagram to four receivers must not touch the heap.
  SfuFanout fanout(net::Seconds(3), /*obs_trace=*/false);
  fanout.RunUntil(net::Seconds(1));
  const std::uint64_t warm_forwarded = fanout.forwarded();
  const std::uint64_t before = g_allocs.load();
  fanout.RunUntil(net::Seconds(3));
  const std::uint64_t allocs = g_allocs.load() - before;
  EXPECT_GT(fanout.forwarded(), warm_forwarded);
  EXPECT_EQ(allocs, 0u) << "over " << fanout.forwarded() - warm_forwarded << " forwards";
}

// --- the armed frame tracer's cost on the SFU forward path ---------------------

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define VTP_TEST_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define VTP_TEST_SANITIZED 1
#endif

/// Why this build's timings say nothing about the code, or nullptr.
const char* UntimedBuild() {
#if !defined(NDEBUG)
  return "assertions are on (NDEBUG unset)";
#elif defined(VTP_TEST_SANITIZED)
  return "built with ASan or TSan";
#else
  return nullptr;
#endif
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct FanoutRun {
  double cpu_s = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t payload_digest = 0;
};

/// Times the forwarding only: building the session (the tracer's one-off
/// span and ring reservations included) is setup, not the per-packet cost
/// the budget is about.
FanoutRun RunFanout(bool obs_trace) {
  SfuFanout fanout(net::Seconds(3), obs_trace);
  const double start = ThreadCpuSeconds();
  fanout.RunUntil(net::Seconds(3));
  return {ThreadCpuSeconds() - start, fanout.forwarded(), fanout.payload_digest()};
}

TEST(ObsOverhead, ArmedTracerForwardsIdenticallyWithinBudget) {
  // The tracer's budget (DESIGN §8): interleaved off/on pairs of the fan-out
  // session, alternating which side runs first, each timed in this thread's
  // CPU time so other processes on the host are not counted. Arming the
  // tracer must not change what is forwarded. The median per-pair effect
  // fails the gate only when it exceeds both 5% and the interquartile spread
  // of the per-pair effects. The spread of the off runs alone is printed
  // but not gated on: a slow spell of the host lands on both runs of a pair,
  // so it widens that spread without moving the per-pair effect.
  constexpr int kPairs = 21;
  // One untimed run per side: the first of each kind pays for cold pools,
  // span buffers and page faults.
  RunFanout(/*obs_trace=*/false);
  RunFanout(/*obs_trace=*/true);
  std::vector<double> off_cpu_s, effects;
  for (int pair = 0; pair < kPairs; ++pair) {
    FanoutRun off, on;
    if (pair % 2 == 0) {
      off = RunFanout(/*obs_trace=*/false);
      on = RunFanout(/*obs_trace=*/true);
    } else {
      on = RunFanout(/*obs_trace=*/true);
      off = RunFanout(/*obs_trace=*/false);
    }
    ASSERT_GT(off.forwarded, 0u);
    ASSERT_EQ(on.forwarded, off.forwarded) << "pair " << pair;
    ASSERT_EQ(on.payload_digest, off.payload_digest) << "pair " << pair;
    off_cpu_s.push_back(off.cpu_s);
    effects.push_back(on.cpu_s / off.cpu_s - 1.0);
  }
  const core::Summary off = core::Summarize(off_cpu_s);
  const core::Summary effect = core::Summarize(effects);
  const double spread = effect.p75 - effect.p25;
  std::cout << "armed tracer: median effect " << core::Fmt(100 * effect.p50) << "% over "
            << kPairs << " pairs, spread (IQR) " << core::Fmt(100 * spread)
            << "%; off runs " << core::Fmt(1e3 * off.p50) << " ms thread CPU, IQR "
            << core::Fmt(100 * (off.p75 - off.p25) / off.p50) << "% of median\n";
  if (const char* reason = UntimedBuild()) GTEST_SKIP() << "timing verdict skipped: " << reason;
  EXPECT_FALSE(effect.p50 > 0.05 && effect.p50 > spread)
      << "the armed tracer costs " << core::Fmt(100 * effect.p50)
      << "%, above 5% and above the " << core::Fmt(100 * spread) << "% spread of the pairs";
}

// --- FEC differential & reconciliation ----------------------------------------------

// Dropping any single source from any group must reproduce the exact
// payload stream a lossless run delivers (recovery order may differ, so the
// comparison is by multiset).
TEST(Fec, MissingSourceDifferentialMatchesLossless) {
  for (int k = 1; k <= 5; ++k) {
    const int groups = 3;
    for (int drop_pos = 0; drop_pos < k; ++drop_pos) {
      FecEncoder lossless_enc(k), lossy_enc(k);
      std::multiset<std::vector<std::uint8_t>> lossless, lossy;
      FecDecoder lossless_dec([&](std::span<const std::uint8_t> p) {
        lossless.emplace(p.begin(), p.end());
      });
      FecDecoder lossy_dec([&](std::span<const std::uint8_t> p) {
        lossy.emplace(p.begin(), p.end());
      });
      for (int i = 0; i < k * groups; ++i) {
        const auto payload = MakePayload(k * 100 + i, 40 + static_cast<std::size_t>(i) * 3);
        for (const auto& f : lossless_enc.Protect(payload)) lossless_dec.OnDatagram(f);
        for (const auto& f : lossy_enc.Protect(payload)) {
          const bool is_source = f[0] == 0x00;
          if (is_source && i % k == drop_pos) continue;  // drop one per group
          lossy_dec.OnDatagram(f);
        }
      }
      EXPECT_EQ(lossy, lossless) << "k=" << k << " drop_pos=" << drop_pos;
      EXPECT_EQ(lossy_dec.stats().recovered, static_cast<std::uint64_t>(groups));
    }
  }
}

// The sender's FEC overhead must reconcile with the obs registry counter and
// with the scheme's 1/k overhead (parity = XOR of the group, so its body is
// the group's max frame plus a small header).
TEST(Fec, SessionOverheadReconcilesWithObsCounters) {
  vca::SessionConfig config;
  config.participants = {
      {.name = "U1", .metro = "SanFrancisco", .device = vca::DeviceType::kVisionPro},
      {.name = "U2", .metro = "NewYork", .device = vca::DeviceType::kVisionPro}};
  config.duration = net::Seconds(6);
  config.enable_render = false;
  config.enable_reconstruction = false;
  config.spatial_fec_k = 3;
  vca::TelepresenceSession session(std::move(config));
  session.Run();

  const vca::SpatialPersonaSender* tx = session.spatial_sender(0);
  ASSERT_NE(tx, nullptr);
  EXPECT_GT(tx->fec_parity_bytes_sent(), 0u);
  // Registry handle and accessor views agree.
  EXPECT_EQ(session.sim().metrics().CounterValue("persona.tx0.fec_parity_bytes"),
            tx->fec_parity_bytes_sent());
  // ~1/k overhead: payload_bytes_sent counts every shipped datagram, parity
  // included, so parity stays within [1/k, 1.25/k] of the *source* bytes
  // (the slack covers per-group headers and max-vs-mean frame size).
  const double parity = static_cast<double>(tx->fec_parity_bytes_sent());
  const double sources = static_cast<double>(tx->payload_bytes_sent()) - parity;
  EXPECT_GE(parity, sources / 3.0 * 0.95);
  EXPECT_LE(parity, sources / 3.0 * 1.25);
  // And the receiver saw the parity stream (same counters, other side).
  const auto& rx_stats = session.spatial_receiver(1)->remote(0);
  EXPECT_GT(rx_stats.frames_decoded, 0u);
}

// --- adapt=off seed identity --------------------------------------------------------
//
// The adaptive-delivery machinery (transport/adapt.*, sender rung plumbing,
// SFU coarse routing, session control loop) must be bit-for-bit inert while
// the default-off SessionConfig::adapt stays off: the golden digests below
// were recorded from the pre-adaptation seed tree (same scenario, same
// toolchain) and every default-config run must still match.
// Regenerate by running this scenario at the seed commit if the *intended*
// wire behaviour ever changes.

struct SeedGolden {
  double loss;
  std::uint64_t wire_digest;
  std::uint64_t wire_packets;
  std::uint64_t decoded_fwd, decoded_rev;
};

constexpr SeedGolden kSeedGoldens[] = {
    {0.00, 0x49f869ed0e16bd44ull, 13456, 1054, 1054},
    {0.05, 0xf48b8e3f8515a782ull, 13098, 1052, 1054},
    {0.15, 0x8952acc24f05fbcaull, 12296, 1005, 1054},
};

std::uint64_t SessionWireDigest(double loss, std::uint64_t* packets,
                                std::uint64_t* decoded_fwd, std::uint64_t* decoded_rev) {
  vca::SessionConfig config;
  config.participants = {
      {.name = "U1", .metro = "SanFrancisco", .device = vca::DeviceType::kVisionPro},
      {.name = "U2", .metro = "NewYork", .device = vca::DeviceType::kVisionPro}};
  config.duration = net::Seconds(12);
  config.enable_reconstruction = false;
  config.spatial_fec_k = 2;
  vca::TelepresenceSession session(std::move(config));
  net::Netem netem = session.UplinkNetem(0);
  netem.SetLoss(loss);
  session.Run();

  std::uint64_t digest = 1469598103934665603ull;
  *packets = 0;
  for (int i = 0; i < 2; ++i) {
    for (const net::CaptureRecord& rec :
         session.capture(static_cast<std::size_t>(i)).records()) {
      ++*packets;
      const std::uint8_t hdr[4] = {
          static_cast<std::uint8_t>(rec.wire_bytes >> 8),
          static_cast<std::uint8_t>(rec.wire_bytes),
          static_cast<std::uint8_t>(rec.src_port >> 8),
          static_cast<std::uint8_t>(rec.src_port)};
      digest = Fnv1a(digest, hdr);
      digest = Fnv1a(digest, std::span(rec.prefix.data(), rec.prefix_len));
    }
  }
  *decoded_fwd = session.spatial_receiver(1)->remote(0).frames_decoded;
  *decoded_rev = session.spatial_receiver(0)->remote(1).frames_decoded;
  EXPECT_FALSE(session.adapt_enabled());
  return digest;
}

TEST(AdaptOff, SessionsAreSeedIdentical) {
  for (const SeedGolden& golden : kSeedGoldens) {
    std::uint64_t packets = 0, fwd = 0, rev = 0;
    const std::uint64_t digest = SessionWireDigest(golden.loss, &packets, &fwd, &rev);
    EXPECT_EQ(digest, golden.wire_digest) << "loss=" << golden.loss;
    EXPECT_EQ(packets, golden.wire_packets) << "loss=" << golden.loss;
    EXPECT_EQ(fwd, golden.decoded_fwd) << "loss=" << golden.loss;
    EXPECT_EQ(rev, golden.decoded_rev) << "loss=" << golden.loss;
  }
}

}  // namespace
}  // namespace vtp::transport
