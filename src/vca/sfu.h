// Selective forwarding unit (SFU).
//
// §4.2 finds the VCAs' servers "are primarily used for data forwarding":
// each member's media is relayed verbatim to every other member. This SFU
// does exactly that, in two modes:
//
//   * RTP mode — forwards RTP packets to all other registered members and
//     routes RTCP receiver reports back to the member that owns the
//     reported SSRC (so senders get loss feedback through the server);
//   * QUIC mode — accepts QUIC connections and relays DATAGRAM payloads.
//     Payloads carry a 1-byte relay tag (see kRelayTag*) so a
//     geo-distributed deployment (§4.1's proposed fix, our ablation) can
//     chain servers over a private backbone without relay loops.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "netsim/medium.h"
#include "obs/metrics.h"
#include "transport/quic.h"
#include "transport/rtp.h"

namespace vtp::vca {

/// Which transport the session's media uses (§4.1: QUIC iff spatial).
enum class TransportKind { kRtp, kQuicDatagram };

/// First byte of every QUIC datagram payload in a session.
inline constexpr std::uint8_t kRelayTagLocal = 0;    ///< from a client
inline constexpr std::uint8_t kRelayTagRelayed = 1;  ///< from a peer server
inline constexpr std::uint8_t kRelayTagHello = 2;    ///< peer-server handshake

/// A forwarding server instance on one node.
class SfuServer {
 public:
  SfuServer(net::Medium* medium, net::NodeId node, std::uint16_t port, TransportKind kind);
  ~SfuServer();

  SfuServer(const SfuServer&) = delete;
  SfuServer& operator=(const SfuServer&) = delete;

  /// RTP mode: registers a member endpoint to forward to/from.
  void AddRtpMember(net::NodeId node, std::uint16_t port);

  /// QUIC mode (geo-distributed): dials a peer server; locally originated
  /// datagrams are relayed to it with the tag rewritten.
  void ConnectPeerServer(net::NodeId node, std::uint16_t port);

  net::NodeId node() const { return node_; }
  std::uint16_t port() const { return port_; }

  /// Packets forwarded so far (for tests). Back-compat view of the
  /// "<scope>.forwarded" registry counter.
  std::uint64_t forwarded_count() const { return forwarded_->value(); }

  /// Registry scope of this server's metrics ("sfu<N>").
  const std::string& metrics_scope() const { return scope_; }

  /// Live subscription-table entries (for leak tests: entries must go away
  /// when their connection is reclassified as a peer server or closes).
  std::size_t semantic_subscription_count() const { return semantic_subscriptions_.size(); }

  /// True while at least one local subscriber has requested `sender`'s
  /// coarse alternate stream (per-subscriber adaptation, for tests).
  bool coarse_requested(std::uint8_t sender) const {
    return sender < coarse_aggregate_.size() && coarse_aggregate_[sender] != 0;
  }

 private:
  struct RtpMember {
    net::NodeId node;
    std::uint16_t port;
    std::uint32_t ssrc = 0;  ///< learned from the member's RTP packets
  };

  static std::uint64_t MemberKey(net::NodeId node, std::uint16_t port) {
    return (static_cast<std::uint64_t>(node) << 16) | port;
  }

  void OnRtpPacket(const net::Packet& p);
  void OnQuicDatagram(transport::QuicConnection* from, std::span<const std::uint8_t> data);
  void OnConnClosed(transport::QuicConnection* conn);
  void OnAdaptCtrl(transport::QuicConnection* from, std::span<const std::uint8_t> data);
  void RecomputeCoarseAggregate(std::uint8_t sender_id);

  net::Medium* medium_;
  net::NodeId node_;
  std::uint16_t port_;
  TransportKind kind_;
  std::string scope_;
  obs::Counter* forwarded_ = nullptr;       ///< "<scope>.forwarded"
  obs::Counter* culled_ = nullptr;          ///< sends skipped by subscription masks
  obs::Counter* rung_requests_ = nullptr;   ///< kMediaAdaptCtrl messages from clients
  obs::Counter* coarse_notifies_ = nullptr; ///< aggregate notifications to senders
  obs::Gauge* subscriptions_ = nullptr;     ///< live subscription-table entries

  // RTP mode. Members are looked up per packet by transport address, so the
  // vector is shadowed by a (node, port) index instead of a linear scan.
  std::vector<RtpMember> rtp_members_;
  std::map<std::uint64_t, std::size_t> rtp_index_;  // MemberKey -> rtp_members_ slot

  // QUIC mode.
  std::unique_ptr<transport::QuicEndpoint> quic_;
  std::vector<transport::QuicConnection*> client_conns_;
  std::vector<transport::QuicConnection*> peer_conns_;
  std::map<transport::QuicConnection*, std::uint8_t> semantic_subscriptions_;

  // Per-subscriber adaptation (SessionConfig::adapt). Each client conn
  // carries a bitmask of sender ids whose coarse alternate stream it wants
  // instead of the primary; the per-sender aggregate drives a notification
  // to the sender's own connection (learned from its locally originated
  // media) so it starts/stops the simulcast stream.
  std::map<transport::QuicConnection*, std::uint8_t> coarse_masks_;
  std::array<std::uint8_t, 8> coarse_aggregate_{};
  std::array<transport::QuicConnection*, 8> sender_conns_{};
  /// Last time a coarse-alternate datagram arrived per sender. A degraded
  /// sender suppresses its simulcast, so a subscriber's coarse request only
  /// becomes rung-exclusive while the alternate is actually flowing —
  /// otherwise the primary is delivered as a fallback (no starvation).
  std::array<net::SimTime, 8> last_alt_time_{};
};

}  // namespace vtp::vca
