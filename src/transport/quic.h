// QUIC-lite: a structurally faithful subset of RFC 9000 over the simulator.
//
// FaceTime delivers spatial personas over QUIC when every participant uses a
// Vision Pro (§4.1). This implementation reproduces the parts of QUIC that
// matter for the paper's observations:
//   * real wire format: 62-bit varints, long headers (Initial/Handshake)
//     with version + CIDs, short headers with the fixed bit — so the
//     capture classifier recognises QUIC by its first byte, like Wireshark;
//   * a 1-RTT connection handshake;
//   * reliable STREAM frames with ACK ranges, RTT estimation, packet-number
//     based loss detection, PTO retransmission, and NewReno-style
//     congestion control;
//   * unreliable DATAGRAM frames (RFC 9221) used for per-frame persona
//     semantics — deliberately *not* rate-adaptive, mirroring the paper's
//     finding that semantic delivery does not adapt (§4.3).
//
// There is no TLS: payloads are opaque to the network anyway (the paper
// could not decrypt them either, §5) and the simulator never inspects them.
//
// The hot path (DESIGN.md §7) serializes packets straight into pooled
// PacketBuffer blocks, tracks sent packets in a ring indexed by packet
// number, and reassembles streams into a contiguous window — zero heap
// allocations per packet in steady state. The wire bytes are pinned by the
// session goldens in test_transport_ext.cc.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "netsim/medium.h"
#include "obs/metrics.h"

namespace vtp::transport {

/// RFC 9000 variable-length integer (62-bit) codec.
void PutQuicVarint(std::vector<std::uint8_t>& out, std::uint64_t value);
std::uint64_t GetQuicVarint(std::span<const std::uint8_t> data, std::size_t* pos);

/// Connection-level counters. Since the obs refactor this is a value
/// snapshot assembled from the connection's registry handles (same names
/// under the connection's "quic.conn<N>." scope); the field set is unchanged
/// for back-compat.
struct QuicStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t packets_declared_lost = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t stream_bytes_delivered = 0;
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t datagrams_dropped_prehandshake = 0;  ///< queue-cap drops
  double smoothed_rtt_ms = 0.0;
};

/// Serializes one outgoing packet straight into a pooled payload block: the
/// writer starts at the block capacity (the MTU, or a DATAGRAM frame's size
/// when that is larger), frames append in place,
/// and Take() shrinks the block to the bytes written and hands that same
/// block to the network layer — no intermediate std::vector, no copy.
class QuicPacketWriter {
 public:
  explicit QuicPacketWriter(std::size_t capacity)
      : buf_(capacity), data_(buf_.writable().data()) {}

  QuicPacketWriter(QuicPacketWriter&&) noexcept = default;
  QuicPacketWriter& operator=(QuicPacketWriter&&) noexcept = default;
  QuicPacketWriter(const QuicPacketWriter&) = delete;
  QuicPacketWriter& operator=(const QuicPacketWriter&) = delete;

  void push_back(std::uint8_t b) {
    assert(len_ < buf_.size());
    data_[len_++] = b;
  }
  void append(const std::uint8_t* p, std::size_t n) {
    assert(len_ + n <= buf_.size());
    if (n == 0) return;  // p may be null for an empty span; memcpy forbids it
    std::memcpy(data_ + len_, p, n);
    len_ += n;
  }
  /// Zero-fills to `n` bytes total in one memset (RFC 9000 §14.1 Initial
  /// padding).
  void pad_to(std::size_t n) {
    assert(n >= len_ && n <= buf_.size());
    std::memset(data_ + len_, 0, n - len_);
    len_ = n;
  }
  std::size_t size() const { return len_; }

  /// The finished packet: the pooled block, shrunk to the written length.
  net::PacketBuffer Take() {
    buf_.resize(len_);
    return std::move(buf_);
  }

 private:
  net::PacketBuffer buf_;
  std::uint8_t* data_;
  std::size_t len_ = 0;
};

class QuicEndpoint;

/// One QUIC connection (client or server side).
class QuicConnection {
 public:
  using StreamDataHandler =
      std::function<void(std::uint64_t stream_id, std::span<const std::uint8_t> data, bool fin)>;
  using DatagramHandler = std::function<void(std::span<const std::uint8_t> data)>;
  using EstablishedHandler = std::function<void()>;
  using CloseHandler = std::function<void(std::uint64_t error_code)>;

  /// Queues reliable, ordered data on `stream_id`.
  void SendStreamData(std::uint64_t stream_id, std::span<const std::uint8_t> data, bool fin = false);

  /// Sends an unreliable DATAGRAM frame (dropped, never retransmitted, and
  /// not blocked by the congestion window — see header comment).
  void SendDatagram(std::span<const std::uint8_t> data);

  /// Sends CONNECTION_CLOSE and stops all further transmission. Incoming
  /// packets are ignored afterwards.
  void Close(std::uint64_t error_code = 0);

  /// True once Close() was called or the peer's CONNECTION_CLOSE arrived.
  bool closed() const { return closed_; }

  void set_on_stream_data(StreamDataHandler h) { on_stream_data_ = std::move(h); }
  void set_on_datagram(DatagramHandler h) { on_datagram_ = std::move(h); }
  void set_on_established(EstablishedHandler h) { on_established_ = std::move(h); }
  void set_on_close(CloseHandler h) { on_close_ = std::move(h); }

  bool established() const { return established_; }
  /// Back-compat snapshot of this connection's registry counters.
  QuicStats stats() const;
  /// The registry scope this connection's metrics live under
  /// ("quic.conn<N>"), for looking them up in an obs::Snapshot.
  const std::string& metrics_scope() const { return scope_; }
  net::NodeId peer_node() const { return peer_node_; }

  /// Max UDP payload we produce (QUIC requires >= 1200 for Initials).
  static constexpr std::size_t kMaxPacketSize = 1200;

  /// Datagrams buffered while the handshake is still in flight; beyond this
  /// the oldest is dropped (counted in stats), so a peer that never answers
  /// cannot grow the queue without bound.
  static constexpr std::size_t kMaxPreHandshakeDatagrams = 64;

 private:
  friend class QuicEndpoint;

  struct SentStreamChunk {
    std::uint64_t stream_id;
    std::uint64_t offset;
    std::vector<std::uint8_t> data;
    bool fin;
  };
  struct SentPacketInfo {
    net::SimTime sent_time = 0;
    std::uint32_t bytes = 0;
    bool ack_eliciting = false;
    bool acked = false;
    bool lost = false;
    std::vector<SentStreamChunk> chunks;  // for retransmission
  };
  /// Stream reassembly: one contiguous window anchored at `delivered` plus a
  /// merged list of received absolute byte ranges.
  struct RecvAssembly {
    std::vector<std::uint8_t> window;  // bytes at [delivered, delivered + window.size())
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;  // merged [first,last], ascending
    std::uint64_t delivered = 0;
    std::optional<std::uint64_t> fin_offset;
  };

  QuicConnection(QuicEndpoint* endpoint, std::uint64_t local_cid, std::uint64_t remote_cid,
                 net::NodeId peer_node, std::uint16_t peer_port, bool is_client);

  void StartHandshake();
  void OnDatagramReceived(std::span<const std::uint8_t> payload);
  void ProcessFrames(std::span<const std::uint8_t> payload);
  void HandleAckFrame(std::span<const std::uint8_t> payload, std::size_t* pos);
  void OnPacketAcked(std::uint64_t pn);
  void AckInfo(SentPacketInfo& info);
  void AckRange(std::uint64_t lo, std::uint64_t hi);
  void DetectLosses();
  void RetireSettled(std::uint64_t limit);
  void MaybeSendPending();
  QuicPacketWriter BeginPacket(bool long_header, std::uint8_t long_type,
                               std::size_t capacity = kMaxPacketSize);
  void FinishPacket(QuicPacketWriter&& w, bool ack_eliciting,
                    std::vector<SentStreamChunk>* chunks, bool pad_initial = false);
  SentPacketInfo* FindSent(std::uint64_t pn);
  SentPacketInfo& SentSlot(std::uint64_t pn);
  void OnStreamSegment(std::uint64_t stream_id, std::uint64_t offset,
                       std::span<const std::uint8_t> data, bool fin);
  void SendAckIfNeeded();
  void ArmPto();
  void OnPto();
  net::SimTime PtoInterval() const;
  void UpdateRtt(net::SimTime rtt_sample);
  void AppendAckFrameTo(QuicPacketWriter& out);
  void RecordReceivedPn(std::uint64_t pn);
  std::size_t CongestionBudget() const;

  QuicEndpoint* endpoint_;
  std::uint64_t local_cid_;
  std::uint64_t remote_cid_;
  net::NodeId peer_node_;
  std::uint16_t peer_port_;
  bool is_client_;
  bool established_ = false;
  bool closed_ = false;

  std::uint64_t next_pn_ = 0;
  // Sent packets live in a ring, slot = pn & (size - 1).
  // Live window is [ring_base_, next_pn_); the settled prefix is retired by
  // advancing ring_base_, and the ring doubles (re-indexing live entries)
  // when an unsettled window outgrows it.
  std::vector<SentPacketInfo> sent_ring_;
  std::uint64_t ring_base_ = 0;
  std::vector<SentStreamChunk> chunk_scratch_;  // reused per stream packet
  std::uint64_t largest_acked_ = 0;
  bool any_acked_ = false;

  // Receive-side ACK state: merged [first, last] ranges, ascending.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> recv_ranges_;
  bool ack_pending_ = false;
  bool ack_timer_armed_ = false;
  int pending_ack_eliciting_ = 0;
  net::SimTime first_pending_ack_time_ = 0;

  // Send queues.
  std::deque<SentStreamChunk> stream_queue_;
  std::map<std::uint64_t, std::uint64_t> stream_offsets_;
  std::size_t bytes_in_flight_ = 0;

  // Congestion control (NewReno on bytes).
  std::size_t cwnd_ = 16 * kMaxPacketSize;
  std::size_t ssthresh_ = SIZE_MAX;
  std::uint64_t recovery_start_pn_ = 0;

  // RTT estimation (RFC 9002).
  std::optional<net::SimTime> srtt_;
  net::SimTime rttvar_ = 0;
  net::SimTime min_rtt_ = 0;

  std::uint64_t pto_epoch_ = 0;  // invalidates stale PTO timers
  int pto_backoff_ = 0;

  std::map<std::uint64_t, RecvAssembly> recv_assembly_;
  std::deque<std::vector<std::uint8_t>> datagram_queue_;  // pre-handshake sends

  StreamDataHandler on_stream_data_;
  DatagramHandler on_datagram_;
  EstablishedHandler on_established_;
  CloseHandler on_close_;

  /// Registry handles behind the back-compat QuicStats accessor. Increments are
  /// plain adds through stable pointers — same hot-path cost as the struct
  /// fields they replaced.
  struct StatsHandles {
    obs::Counter* packets_sent = nullptr;
    obs::Counter* packets_received = nullptr;
    obs::Counter* packets_declared_lost = nullptr;
    obs::Counter* bytes_sent = nullptr;
    obs::Counter* stream_bytes_delivered = nullptr;
    obs::Counter* datagrams_sent = nullptr;
    obs::Counter* datagrams_received = nullptr;
    obs::Counter* datagrams_dropped_prehandshake = nullptr;
    obs::Gauge* smoothed_rtt_ms = nullptr;
    obs::Gauge* reassembly_ranges_peak = nullptr;  ///< merged-range high-water
    obs::Gauge* reassembly_window_peak = nullptr;  ///< window bytes high-water
  };
  std::string scope_;
  StatsHandles obs_;
};

/// A UDP (node, port) speaking QUIC: dials outbound connections and accepts
/// inbound ones.
class QuicEndpoint {
 public:
  using AcceptHandler = std::function<void(QuicConnection*)>;

  QuicEndpoint(net::Medium* medium, net::NodeId node, std::uint16_t port);
  ~QuicEndpoint();

  QuicEndpoint(const QuicEndpoint&) = delete;
  QuicEndpoint& operator=(const QuicEndpoint&) = delete;

  /// Opens a client connection to a listening endpoint.
  QuicConnection* Connect(net::NodeId peer, std::uint16_t peer_port);

  /// Installs the handler invoked when a new inbound connection completes
  /// its handshake enough to carry data.
  void set_on_accept(AcceptHandler h) { on_accept_ = std::move(h); }

  net::Medium& medium() { return *medium_; }
  net::NodeId node() const { return node_; }
  std::uint16_t port() const { return port_; }

 private:
  friend class QuicConnection;

  void OnPacket(const net::Packet& p);
  void SendRaw(net::NodeId dst, std::uint16_t dst_port, net::PacketBuffer payload);
  std::uint64_t NewCid();

  net::Medium* medium_;
  net::NodeId node_;
  std::uint16_t port_;
  AcceptHandler on_accept_;
  std::map<std::uint64_t, std::unique_ptr<QuicConnection>> connections_;  // by local cid
  std::uint64_t next_cid_;
};

}  // namespace vtp::transport
