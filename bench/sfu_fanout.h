// The SFU fan-out workload the paper's scalability story is bounded by
// (§4.2, Figure 6): five personas on a star topology, each sending 90 FPS
// semantic-sized QUIC datagrams that one SFU relays to the other four.
//
// Shared by bench_transport (throughput with the tracer off vs armed) and
// test_transport_ext (zero heap allocations per forward once warm). The star
// (every host one 1 Gbps hop from the hub router) keeps generic netsim cost
// minimal so the workload isolates the transport layer.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "netsim/network.h"
#include "obs/trace.h"
#include "transport/quic.h"
#include "transport/taps.h"
#include "vca/sfu.h"

namespace vtp::bench {

class SfuFanout {
 public:
  static constexpr int kPersonas = 5;

  /// Builds the topology and schedules every persona to send until
  /// `duration`; nothing runs before RunUntil.
  SfuFanout(net::SimTime duration, bool obs_trace) : sim_(1), net_(&sim_) {
    if (obs_trace) sim_.tracer().Enable(/*max_spans=*/1024);
    const net::GeoPoint here{41.88, -87.63};
    const net::NodeId hub = net_.AddNode("hub", here, net::Region::kMiddleUs, /*is_router=*/true);
    const net::LinkConfig access{.rate_bps = 1e9, .prop_delay = net::Millis(1)};
    const net::NodeId server = net_.AddNode("sfu", here, net::Region::kMiddleUs, false);
    net_.Connect(server, hub, access);
    net::NodeId clients[kPersonas];
    for (int i = 0; i < kPersonas; ++i) {
      clients[i] = net_.AddNode("c" + std::to_string(i), here, net::Region::kMiddleUs, false);
      net_.Connect(clients[i], hub, access);
    }
    net_.ComputeRoutes();

    sfu_ = std::make_unique<vca::SfuServer>(&net_, server, kSfuPort,
                                            vca::TransportKind::kQuicDatagram);
    for (int i = 0; i < kPersonas; ++i) {
      connections_.push_back(transport::taps::Preconnection{}
                                 .WithLocal({clients[i], static_cast<std::uint16_t>(9000 + i)})
                                 .WithRemote({server, kSfuPort})
                                 .Initiate(net_));
      transport::QuicConnection* conn = connections_.back()->quic();
      conn->set_on_datagram([this](std::span<const std::uint8_t> data) {
        for (const std::uint8_t b : data) payload_digest_ = (payload_digest_ ^ b) * kFnvPrime;
      });
      Sender& s = senders_[static_cast<std::size_t>(i)];
      s.sim = &sim_;
      s.conn = conn;
      s.until = duration;
      s.dt = net::kSecond / 90;
      // Stagger starts so the five ticks don't land on one instant forever.
      sim_.At(net::Millis(i), [&s, i] { s.Start(i, 0x9E3779B97F4A7C15ull * (i + 1)); });
    }
  }
  SfuFanout(const SfuFanout&) = delete;
  SfuFanout& operator=(const SfuFanout&) = delete;

  void RunUntil(net::SimTime t) { sim_.RunUntil(t); }

  std::uint64_t forwarded() const { return sfu_->forwarded_count(); }
  /// FNV-1a over every delivered datagram's bytes, in delivery order.
  std::uint64_t payload_digest() const { return payload_digest_; }
  std::uint64_t prehandshake_drops() const {
    std::uint64_t drops = 0;
    for (const auto& c : connections_) drops += c->quic()->stats().datagrams_dropped_prehandshake;
    return drops;
  }

 private:
  static constexpr std::uint16_t kSfuPort = 7000;
  static constexpr std::size_t kPayloadBytes = 240;  // a semantic frame's ballpark
  static constexpr std::uint64_t kFnvPrime = 1099511628211ull;

  /// One client persona: ticks at 90 FPS, refreshing a reusable payload in
  /// place (xorshift over 64-bit words, deterministic per sender) and
  /// sending it as a QUIC datagram tagged for SFU fan-out.
  struct Sender {
    net::Simulator* sim = nullptr;
    transport::QuicConnection* conn = nullptr;
    std::vector<std::uint8_t> payload;
    std::uint64_t rng = 0;
    net::SimTime until = 0;
    net::SimTime dt = 0;
    std::uint64_t seq = 0;

    void Start(int id, std::uint64_t seed) {
      payload.assign(kPayloadBytes, 0);
      payload[0] = vca::kRelayTagLocal;
      payload[1] = static_cast<std::uint8_t>(id);
      payload[2] = 0;  // semantic kind: fans out, and exercises the SFU's
      payload[3] = 0;  // relay-stamp parse (codec tag + uleb128 frame index)
      rng = seed;
      Tick();
    }

    void Tick() {
      // Frame index as a padded (non-canonical but valid) 4-byte uleb128, so
      // the header stays fixed-width and the random body never moves.
      payload[4] = static_cast<std::uint8_t>(0x80u | (seq & 0x7Fu));
      payload[5] = static_cast<std::uint8_t>(0x80u | ((seq >> 7) & 0x7Fu));
      payload[6] = static_cast<std::uint8_t>(0x80u | ((seq >> 14) & 0x7Fu));
      payload[7] = static_cast<std::uint8_t>((seq >> 21) & 0x7Fu);
      ++seq;
      for (std::size_t i = 8; i + 8 <= payload.size(); i += 8) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        std::memcpy(payload.data() + i, &rng, 8);
      }
      conn->SendDatagram(payload);
      if (sim->now() + dt <= until) sim->After(dt, [this] { Tick(); });
    }
  };

  net::Simulator sim_;
  net::Network net_;
  std::unique_ptr<vca::SfuServer> sfu_;
  std::vector<std::unique_ptr<transport::taps::Connection>> connections_;
  Sender senders_[kPersonas];
  std::uint64_t payload_digest_ = 1469598103934665603ull;
};

}  // namespace vtp::bench
