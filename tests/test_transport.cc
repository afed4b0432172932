// Tests for RTP, QUIC-lite, TCP ping, and the protocol classifier.
#include <gtest/gtest.h>

#include <cmath>

#include "netsim/capture.h"
#include "netsim/netem.h"
#include "netsim/network.h"
#include "obs/snapshot.h"
#include "transport/classifier.h"
#include "transport/quic.h"
#include "transport/rtp.h"
#include "transport/tcp_ping.h"

namespace vtp::transport {
namespace {

class TwoHosts : public ::testing::Test {
 protected:
  TwoHosts() : sim_(1), net_(&sim_) {
    net_.BuildBackbone();
    a_ = net_.AddHost("a", "SanFrancisco");
    b_ = net_.AddHost("b", "NewYork");
    net_.ComputeRoutes();
  }
  net::Simulator sim_;
  net::Network net_;
  net::NodeId a_ = 0, b_ = 0;
};

/// The serialized bytes of an RTCP report.
template <class Report>
std::vector<std::uint8_t> Wire(const Report& report) {
  std::vector<std::uint8_t> out;
  report.SerializeTo(out);
  return out;
}

// --- RTP header ---------------------------------------------------------------

TEST(RtpHeader, SerializeParseRoundTrip) {
  RtpHeader h;
  h.payload_type = 123;
  h.marker = true;
  h.sequence = 0xBEEF;
  h.timestamp = 0x12345678;
  h.ssrc = 0xCAFEBABE;
  std::vector<std::uint8_t> buf;
  h.SerializeTo(buf);
  ASSERT_EQ(buf.size(), RtpHeader::kSize);
  const auto parsed = RtpHeader::Parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->payload_type, 123);
  EXPECT_TRUE(parsed->marker);
  EXPECT_EQ(parsed->sequence, 0xBEEF);
  EXPECT_EQ(parsed->timestamp, 0x12345678u);
  EXPECT_EQ(parsed->ssrc, 0xCAFEBABEu);
}

TEST(RtpHeader, RejectsNonRtpAndRtcp) {
  EXPECT_FALSE(RtpHeader::Parse(std::vector<std::uint8_t>(11, 0)).has_value());
  std::vector<std::uint8_t> quic(20, 0);
  quic[0] = 0xC0;
  EXPECT_FALSE(RtpHeader::Parse(quic).has_value());
  RtcpReceiverReport rr;
  rr.reporter_ssrc = 1;
  rr.source_ssrc = 2;
  const auto bytes = Wire(rr);
  EXPECT_TRUE(LooksLikeRtcp(bytes));
  EXPECT_FALSE(RtpHeader::Parse(bytes).has_value());
}

TEST(Rtcp, ReceiverReportRoundTrip) {
  RtcpReceiverReport rr;
  rr.reporter_ssrc = 0x1111;
  rr.source_ssrc = 0x2222;
  rr.fraction_lost = 0.25;
  const auto parsed = RtcpReceiverReport::Parse(Wire(rr));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->reporter_ssrc, 0x1111u);
  EXPECT_EQ(parsed->source_ssrc, 0x2222u);
  EXPECT_NEAR(parsed->fraction_lost, 0.25, 0.01);
}

// --- RTP end to end --------------------------------------------------------------

TEST_F(TwoHosts, RtpFrameFragmentationAndReassembly) {
  std::vector<std::size_t> frame_sizes;
  RtpReceiver rx(&net_, b_, 6000,
                 [&](std::uint32_t, std::vector<std::uint8_t> frame, std::uint32_t, net::SimTime) {
                   frame_sizes.push_back(frame.size());
                 });
  RtpSender tx(&net_, a_, 6000, b_, 6000, RtpSenderConfig{.payload_type = 96, .ssrc = 7});

  const std::vector<std::uint8_t> small(500, 1), large(5000, 2);
  tx.SendFrame(small, 1000);
  tx.SendFrame(large, 4000);
  sim_.Run();

  ASSERT_EQ(frame_sizes.size(), 2u);
  EXPECT_EQ(frame_sizes[0], 500u);
  EXPECT_EQ(frame_sizes[1], 5000u);
  EXPECT_EQ(tx.stats().packets_sent, 1u + 5u);  // 5000 / 1200 -> 5 packets
  EXPECT_EQ(rx.stats().frames_delivered, 2u);
  EXPECT_EQ(rx.stats().packets_lost, 0u);
  EXPECT_EQ(*rx.last_payload_type(), 96);
}

TEST_F(TwoHosts, RtpLossIsDetectedAndFramesDamaged) {
  net::Netem netem(&net_, a_, net_.AccessRouter(a_));
  netem.SetLoss(0.2);
  std::uint64_t frames = 0;
  RtpReceiver rx(&net_, b_, 6000,
                 [&](std::uint32_t, std::vector<std::uint8_t>, std::uint32_t, net::SimTime) {
                   ++frames;
                 });
  RtpSender tx(&net_, a_, 6000, b_, 6000, RtpSenderConfig{.ssrc = 7});
  for (int i = 0; i < 200; ++i) {
    sim_.At(net::Millis(10 * i), [&tx, i] {
      tx.SendFrame(std::vector<std::uint8_t>(3000, 0), static_cast<std::uint32_t>(i * 3000));
    });
  }
  sim_.Run();
  EXPECT_GT(rx.stats().packets_lost, 20u);
  EXPECT_GT(rx.stats().frames_damaged, 10u);
  EXPECT_LT(frames, 200u);
  EXPECT_GT(frames, 50u);
}

TEST_F(TwoHosts, RtpMultipleSsrcsKeepIndependentState) {
  std::map<std::uint32_t, int> frames;
  RtpReceiver rx(&net_, b_, 6000,
                 [&](std::uint32_t ssrc, std::vector<std::uint8_t>, std::uint32_t, net::SimTime) {
                   ++frames[ssrc];
                 });
  RtpSender tx1(&net_, a_, 6001, b_, 6000, RtpSenderConfig{.ssrc = 100});
  RtpSender tx2(&net_, a_, 6002, b_, 6000, RtpSenderConfig{.ssrc = 200});
  for (int i = 0; i < 10; ++i) {
    tx1.SendFrame(std::vector<std::uint8_t>(2000, 0), static_cast<std::uint32_t>(i));
    tx2.SendFrame(std::vector<std::uint8_t>(100, 0), static_cast<std::uint32_t>(i));
  }
  sim_.Run();
  EXPECT_EQ(frames[100], 10);
  EXPECT_EQ(frames[200], 10);
  EXPECT_EQ(rx.KnownSsrcs().size(), 2u);
}

// --- QUIC varint -----------------------------------------------------------------

TEST(QuicVarint, BoundaryRoundTrips) {
  for (const std::uint64_t v : {0ull, 63ull, 64ull, 16383ull, 16384ull, 1073741823ull,
                                1073741824ull, (1ull << 62) - 1}) {
    std::vector<std::uint8_t> buf;
    PutQuicVarint(buf, v);
    std::size_t pos = 0;
    EXPECT_EQ(GetQuicVarint(buf, &pos), v);
    EXPECT_EQ(pos, buf.size());
  }
  std::vector<std::uint8_t> buf;
  EXPECT_THROW(PutQuicVarint(buf, 1ull << 62), std::invalid_argument);
}

TEST(QuicVarint, EncodedLengths) {
  const auto len = [](std::uint64_t v) {
    std::vector<std::uint8_t> buf;
    PutQuicVarint(buf, v);
    return buf.size();
  };
  EXPECT_EQ(len(0), 1u);
  EXPECT_EQ(len(63), 1u);
  EXPECT_EQ(len(64), 2u);
  EXPECT_EQ(len(16384), 4u);
  EXPECT_EQ(len(1ull << 30), 8u);
}

// --- QUIC end to end ---------------------------------------------------------------

TEST(QuicAck, HugeAckDelayKeepsRttPositive) {
  // ack_delay is a peer-chosen 62-bit varint; scaled to nanoseconds it
  // overflows a signed 64-bit time unless it is clamped to the raw sample.
  net::Simulator sim(3);
  net::Network network(&sim);
  network.BuildBackbone();
  const auto client_host = network.AddHost("c", "SanFrancisco");
  const auto forger = network.AddHost("x", "SanFrancisco");
  const auto server_host = network.AddHost("s", "NewYork");
  network.ComputeRoutes();
  QuicEndpoint client(&network, client_host, 9300), server(&network, server_host, 4433);
  server.set_on_accept([](QuicConnection* conn) {
    conn->set_on_datagram([](std::span<const std::uint8_t>) {});
  });
  QuicConnection* conn = client.Connect(server_host, 4433);
  sim.RunUntil(net::Millis(300));
  ASSERT_TRUE(conn->established());
  const double srtt_before = conn->stats().smoothed_rtt_ms;

  // Put a packet in flight, then acknowledge it from a host next door, long
  // before the server's own ACK can arrive.
  conn->SendDatagram(std::vector<std::uint8_t>(32, 0xAB));
  const std::uint64_t in_flight = conn->stats().packets_sent - 1;
  const std::uint64_t client_cid =
      (static_cast<std::uint64_t>(client_host) << 32) | (9300u << 8) | 1;  // deterministic CIDs
  std::vector<std::uint8_t> forged = {0x40};  // short header
  for (int b = 7; b >= 0; --b) forged.push_back(static_cast<std::uint8_t>(client_cid >> (8 * b)));
  PutQuicVarint(forged, 1000);              // packet number
  forged.push_back(0x02);                   // ACK frame
  PutQuicVarint(forged, in_flight);         // largest acknowledged
  PutQuicVarint(forged, (1ull << 62) - 1);  // ack delay, us
  PutQuicVarint(forged, 0);                 // range count
  PutQuicVarint(forged, 0);                 // first range
  network.SendUdp(forger, 2000, client_host, 9300, std::move(forged));
  sim.RunUntil(sim.now() + net::Millis(10));

  const double srtt = conn->stats().smoothed_rtt_ms;
  EXPECT_TRUE(std::isfinite(srtt));
  EXPECT_GT(srtt, 0.0);
  EXPECT_LT(srtt, srtt_before);  // the forged ACK was taken, as a 1 us sample
}

TEST_F(TwoHosts, QuicHandshakeEstablishesInOneRtt) {
  QuicEndpoint client(&net_, a_, 9000), server(&net_, b_, 4433);
  server.set_on_accept([](QuicConnection*) {});
  QuicConnection* conn = client.Connect(b_, 4433);
  sim_.RunUntil(net::Seconds(1));
  EXPECT_TRUE(conn->established());
  // SF<->NYC RTT is ~65-80 ms in this topology; srtt should be close.
  EXPECT_GT(conn->stats().smoothed_rtt_ms, 50.0);
  EXPECT_LT(conn->stats().smoothed_rtt_ms, 100.0);
}

TEST_F(TwoHosts, QuicDatagramsAreUnreliableUnderLoss) {
  QuicEndpoint client(&net_, a_, 9000), server(&net_, b_, 4433);
  int got = 0;
  server.set_on_accept([&](QuicConnection* conn) {
    conn->set_on_datagram([&](std::span<const std::uint8_t>) { ++got; });
  });
  QuicConnection* conn = client.Connect(b_, 4433);
  sim_.RunUntil(net::Millis(300));
  ASSERT_TRUE(conn->established());

  net::Netem netem(&net_, a_, net_.AccessRouter(a_));
  netem.SetLoss(0.5);
  for (int i = 0; i < 200; ++i) {
    sim_.After(net::Millis(1), [conn] {
      conn->SendDatagram(std::vector<std::uint8_t>(500, 1));
    });
  }
  sim_.RunUntil(net::Seconds(10));
  EXPECT_GT(got, 40);
  EXPECT_LT(got, 160);  // about half lost, never retransmitted
  EXPECT_EQ(conn->stats().datagrams_sent, 200u);
}

TEST_F(TwoHosts, QuicStatsMatchMetricRegistry) {
  // Back-compat contract: the legacy QuicStats accessor is assembled from the
  // same registry handles an obs::Snapshot exports, so the two views must
  // agree field for field.
  QuicEndpoint client(&net_, a_, 9000), server(&net_, b_, 4433);
  server.set_on_accept([](QuicConnection* conn) {
    conn->set_on_datagram([](std::span<const std::uint8_t>) {});
  });
  QuicConnection* conn = client.Connect(b_, 4433);
  for (int i = 0; i < 50; ++i) conn->SendDatagram(std::vector<std::uint8_t>(400, 2));
  sim_.RunUntil(net::Seconds(5));
  ASSERT_TRUE(conn->established());

  const QuicStats stats = conn->stats();
  const obs::Snapshot snap = obs::Snapshot::Capture(sim_.metrics());
  const std::string& scope = conn->metrics_scope();
  EXPECT_EQ(scope.rfind("quic.conn", 0), 0u);
  EXPECT_EQ(snap.counter(scope + ".packets_sent"), stats.packets_sent);
  EXPECT_EQ(snap.counter(scope + ".packets_received"), stats.packets_received);
  EXPECT_EQ(snap.counter(scope + ".packets_declared_lost"), stats.packets_declared_lost);
  EXPECT_EQ(snap.counter(scope + ".bytes_sent"), stats.bytes_sent);
  EXPECT_EQ(snap.counter(scope + ".datagrams_sent"), stats.datagrams_sent);
  EXPECT_EQ(snap.counter(scope + ".datagrams_received"), stats.datagrams_received);
  EXPECT_EQ(snap.counter(scope + ".datagrams_dropped_prehandshake"),
            stats.datagrams_dropped_prehandshake);
  EXPECT_DOUBLE_EQ(snap.gauge(scope + ".smoothed_rtt_ms"), stats.smoothed_rtt_ms);
  EXPECT_GT(stats.packets_sent, 0u);
  EXPECT_GT(stats.datagrams_sent, 0u);

  // The client and server connections registered distinct scopes.
  EXPECT_GT(snap.counter("quic.conn1.packets_sent"), 0u);
}

TEST_F(TwoHosts, QuicDatagramsQueuedBeforeHandshakeAreFlushed) {
  QuicEndpoint client(&net_, a_, 9000), server(&net_, b_, 4433);
  int got = 0;
  server.set_on_accept([&](QuicConnection* conn) {
    conn->set_on_datagram([&](std::span<const std::uint8_t>) { ++got; });
  });
  QuicConnection* conn = client.Connect(b_, 4433);
  conn->SendDatagram(std::vector<std::uint8_t>(100, 1));  // pre-establishment
  conn->SendDatagram(std::vector<std::uint8_t>(100, 2));
  sim_.RunUntil(net::Seconds(2));
  EXPECT_EQ(got, 2);
}

TEST_F(TwoHosts, QuicBidirectionalDatagrams) {
  QuicEndpoint client(&net_, a_, 9000), server(&net_, b_, 4433);
  int client_got = 0, server_got = 0;
  server.set_on_accept([&](QuicConnection* conn) {
    conn->set_on_datagram([&, conn](std::span<const std::uint8_t> d) {
      ++server_got;
      conn->SendDatagram(d);  // echo
    });
  });
  QuicConnection* conn = client.Connect(b_, 4433);
  conn->set_on_datagram([&](std::span<const std::uint8_t>) { ++client_got; });
  for (int i = 0; i < 50; ++i) {
    sim_.At(net::Millis(200 + i * 11), [conn] {
      conn->SendDatagram(std::vector<std::uint8_t>(900, 3));
    });
  }
  sim_.RunUntil(net::Seconds(5));
  EXPECT_EQ(server_got, 50);
  EXPECT_EQ(client_got, 50);
}

// --- TCP ping -----------------------------------------------------------------------

TEST_F(TwoHosts, TcpPingMeasuresPathRtt) {
  TcpResponder responder(&net_, b_, 443);
  TcpPinger pinger(&net_, a_, 20000);
  std::vector<double> rtts;
  pinger.Run(b_, 443, 10, net::Millis(100), [&](std::vector<double> r) { rtts = std::move(r); });
  sim_.Run();
  ASSERT_EQ(rtts.size(), 10u);
  // Should match twice the one-way path delay, ~65-85 ms.
  for (const double rtt : rtts) {
    EXPECT_GT(rtt, 50.0);
    EXPECT_LT(rtt, 100.0);
  }
}

TEST_F(TwoHosts, TcpPingReportsPartialResultsOnLoss) {
  TcpResponder responder(&net_, b_, 443);
  net::Netem netem(&net_, a_, net_.AccessRouter(a_));
  netem.SetLoss(0.5);
  TcpPinger pinger(&net_, a_, 20000);
  std::vector<double> rtts;
  bool done = false;
  pinger.Run(b_, 443, 20, net::Millis(50), [&](std::vector<double> r) {
    rtts = std::move(r);
    done = true;
  });
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_LT(rtts.size(), 20u);
}

// --- classifier -------------------------------------------------------------------

TEST_F(TwoHosts, ClassifierSeparatesProtocolsByFirstBytes) {
  net::Capture cap;
  cap.AttachToLink(net_, a_, net_.AccessRouter(a_));

  // RTP flow.
  RtpReceiver rx(&net_, b_, 6000,
                 [](std::uint32_t, std::vector<std::uint8_t>, std::uint32_t, net::SimTime) {});
  RtpSender tx(&net_, a_, 6000, b_, 6000, RtpSenderConfig{.payload_type = 111, .ssrc = 5});
  for (int i = 0; i < 20; ++i) {
    tx.SendFrame(std::vector<std::uint8_t>(800, 0), static_cast<std::uint32_t>(i));
  }
  // QUIC flow.
  QuicEndpoint client(&net_, a_, 9000), server(&net_, b_, 4433);
  server.set_on_accept([](QuicConnection*) {});
  QuicConnection* conn = client.Connect(b_, 4433);
  for (int i = 0; i < 20; ++i) {
    sim_.At(net::Millis(300 + 10 * i), [conn] {
      conn->SendDatagram(std::vector<std::uint8_t>(800, 0));
    });
  }
  // TCP probe flow.
  TcpResponder responder(&net_, b_, 443);
  TcpPinger pinger(&net_, a_, 21000);
  pinger.Run(b_, 443, 5, net::Millis(50), [](std::vector<double>) {});

  sim_.RunUntil(net::Seconds(5));

  const auto flows = ClassifyFlows(cap);
  int rtp = 0, quic = 0, tcp = 0;
  for (const auto& [key, proto] : flows) {
    if (key.src != a_) continue;  // uplink flows only
    rtp += proto == FlowProtocol::kRtp;
    quic += proto == FlowProtocol::kQuic;
    tcp += proto == FlowProtocol::kTcpProbe;
  }
  EXPECT_EQ(rtp, 1);
  EXPECT_EQ(quic, 1);
  EXPECT_EQ(tcp, 1);

  // The paper's §4.1 payload-type check.
  for (const auto& [key, proto] : flows) {
    if (proto == FlowProtocol::kRtp && key.src == a_) {
      EXPECT_EQ(DominantRtpPayloadType(cap, key), 111);
    }
  }
}


TEST(Rtcp, SenderReportRoundTrip) {
  RtcpSenderReport sr;
  sr.sender_ssrc = 0xAAAA;
  sr.ntp_ms = 123456;
  sr.rtp_timestamp = 99;
  const auto bytes = Wire(sr);
  EXPECT_TRUE(LooksLikeRtcp(bytes));
  EXPECT_FALSE(RtpHeader::Parse(bytes).has_value());
  EXPECT_FALSE(RtcpReceiverReport::Parse(bytes).has_value());  // type demux
  const auto parsed = RtcpSenderReport::Parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->sender_ssrc, 0xAAAAu);
  EXPECT_EQ(parsed->ntp_ms, 123456u);
  EXPECT_EQ(parsed->rtp_timestamp, 99u);
}

TEST(Rtcp, ReceiverReportCarriesLsrDlsr) {
  RtcpReceiverReport rr;
  rr.reporter_ssrc = 1;
  rr.source_ssrc = 2;
  rr.fraction_lost = 0.5;
  rr.lsr_ms = 1111;
  rr.dlsr_ms = 22;
  const auto parsed = RtcpReceiverReport::Parse(Wire(rr));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->lsr_ms, 1111u);
  EXPECT_EQ(parsed->dlsr_ms, 22u);
}

TEST_F(TwoHosts, SenderReportEchoTracksSrArrival) {
  RtpReceiver rx(&net_, b_, 6000,
                 [](std::uint32_t, std::vector<std::uint8_t>, std::uint32_t, net::SimTime) {});
  EXPECT_EQ(rx.SenderReportEcho(42).first, 0u);  // no SR yet -> {0,0}

  RtcpSenderReport sr;
  sr.sender_ssrc = 42;
  sr.ntp_ms = 777;
  net_.SendUdp(a_, 6000, b_, 6000, Wire(sr));
  sim_.Run();
  const net::SimTime arrival = sim_.now();
  sim_.RunUntil(arrival + net::Millis(50));
  const auto [lsr, dlsr] = rx.SenderReportEcho(42);
  EXPECT_EQ(lsr, 777u);
  EXPECT_NEAR(dlsr, 50, 2);
}

}  // namespace
}  // namespace vtp::transport
