// RTP (RFC 3550) packetization over the simulated network.
//
// The 2D-persona pipelines of all four VCAs — and FaceTime's fallback when
// not every participant wears a Vision Pro (§4.1) — carry media over RTP.
// The wire format is the real 12-byte RTP header, so the capture-based
// protocol classifier identifies it exactly the way Wireshark does: by the
// version bits.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "netsim/medium.h"
#include "obs/metrics.h"

namespace vtp::transport {

/// Decoded RTP fixed header (no CSRC list, no extensions).
struct RtpHeader {
  std::uint8_t payload_type = 0;
  bool marker = false;           ///< set on the last packet of a frame
  std::uint16_t sequence = 0;
  std::uint32_t timestamp = 0;   ///< media clock (90 kHz for video)
  std::uint32_t ssrc = 0;

  static constexpr std::size_t kSize = 12;

  /// Serializes into exactly kSize bytes appended to `out`.
  void SerializeTo(std::vector<std::uint8_t>& out) const;

  /// Parses a header; nullopt if too short, not RTP version 2, or actually
  /// an RTCP packet (types 200-204 occupy PT 72-76 — the demux rule).
  static std::optional<RtpHeader> Parse(std::span<const std::uint8_t> data);
};

/// True if `data` is an RTCP packet sharing the RTP port (mux rule).
bool LooksLikeRtcp(std::span<const std::uint8_t> data);

/// Minimal RTCP sender report (type 200): carries the sender's wall-clock
/// so receivers can echo it back (LSR/DLSR) for RTT estimation.
struct RtcpSenderReport {
  std::uint32_t sender_ssrc = 0;
  std::uint32_t ntp_ms = 0;  ///< sender clock, milliseconds (truncated NTP)
  std::uint32_t rtp_timestamp = 0;

  /// Appends the 28 serialized bytes to `out` — callers on a periodic report
  /// path reuse one scratch vector instead of allocating per report.
  void SerializeTo(std::vector<std::uint8_t>& out) const;
  static std::optional<RtcpSenderReport> Parse(std::span<const std::uint8_t> data);
};

/// Minimal RTCP receiver report used for loss feedback (type 201), with the
/// LSR/DLSR echo that lets the media sender compute RTT (RFC 3550 §6.4.1).
struct RtcpReceiverReport {
  std::uint32_t reporter_ssrc = 0;
  std::uint32_t source_ssrc = 0;
  double fraction_lost = 0;   ///< 0..1
  std::uint32_t lsr_ms = 0;   ///< ntp_ms of the last SR seen from the source
  std::uint32_t dlsr_ms = 0;  ///< delay between receiving that SR and this RR

  /// Appends the 32 serialized bytes to `out` (see RtcpSenderReport).
  void SerializeTo(std::vector<std::uint8_t>& out) const;
  static std::optional<RtcpReceiverReport> Parse(std::span<const std::uint8_t> data);
};

/// Sender-side configuration.
struct RtpSenderConfig {
  std::uint8_t payload_type = 96;   ///< dynamic PT, like the VCAs use
  std::uint32_t ssrc = 0;
  std::size_t mtu_payload = 1200;   ///< media bytes per packet (after header)
};

/// Counters kept by the sender. Value snapshot over registry handles
/// (scope "rtp.tx<N>.") since the obs refactor.
struct RtpSenderStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t payload_bytes_sent = 0;
};

/// Splits frames into RTP packets and sends them as UDP datagrams.
class RtpSender {
 public:
  RtpSender(net::Medium* medium, net::NodeId node, std::uint16_t local_port,
            net::NodeId dst, std::uint16_t dst_port, RtpSenderConfig config);

  /// Packetizes one media frame; the marker bit is set on the final packet.
  void SendFrame(std::span<const std::uint8_t> frame, std::uint32_t rtp_timestamp);

  /// Back-compat snapshot of this sender's registry counters.
  RtpSenderStats stats() const {
    return {frames_sent_->value(), packets_sent_->value(), payload_bytes_sent_->value()};
  }

 private:
  net::Medium* medium_;
  net::NodeId node_;
  std::uint16_t local_port_;
  net::NodeId dst_;
  std::uint16_t dst_port_;
  RtpSenderConfig config_;
  std::uint16_t next_seq_ = 0;
  obs::Counter* frames_sent_ = nullptr;
  obs::Counter* packets_sent_ = nullptr;
  obs::Counter* payload_bytes_sent_ = nullptr;
};

/// Counters kept by the receiver (loss from sequence gaps, RFC 3550
/// jitter): a value snapshot over registry handles (scope "rtp.rx<N>.").
struct RtpReceiverStats {
  std::uint64_t packets_received = 0;
  std::uint64_t payload_bytes_received = 0;
  std::uint64_t packets_lost = 0;     ///< sequence-gap estimate
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_damaged = 0;   ///< dropped due to missing fragments
  double jitter_rtp_units = 0.0;      ///< RFC 3550 interarrival jitter
};

/// Reassembles frames from RTP packets arriving at a (node, port).
/// Handles multiple concurrent senders (an SFU fan-in) by keeping
/// independent reassembly/loss/jitter state per SSRC.
class RtpReceiver {
 public:
  /// Called with each complete frame:
  /// (ssrc, payload, rtp_timestamp, arrival_time).
  using FrameHandler = std::function<void(std::uint32_t, std::vector<std::uint8_t>,
                                          std::uint32_t, net::SimTime)>;

  RtpReceiver(net::Medium* medium, net::NodeId node, std::uint16_t port,
              FrameHandler on_frame);
  ~RtpReceiver();

  RtpReceiver(const RtpReceiver&) = delete;
  RtpReceiver& operator=(const RtpReceiver&) = delete;

  /// Aggregate counters over all SSRCs (snapshot of the registry handles).
  RtpReceiverStats stats() const {
    return {packets_received_->value(), payload_bytes_received_->value(),
            packets_lost_->value(),     frames_delivered_->value(),
            frames_damaged_->value(),   jitter_rtp_units_->value()};
  }

  /// SSRCs observed so far.
  std::vector<std::uint32_t> KnownSsrcs() const;

  /// Fraction of packets lost for `ssrc` since the last call (RTCP-style
  /// interval accounting). Resets the interval counters.
  double TakeIntervalLossRate(std::uint32_t ssrc);

  /// Payload type observed on the most recent packet (for §4.1's PT check).
  std::optional<std::uint8_t> last_payload_type() const { return last_pt_; }

  /// Handler for RTCP receiver reports arriving on the muxed port.
  using RtcpHandler = std::function<void(const RtcpReceiverReport&)>;
  void set_rtcp_handler(RtcpHandler h) { on_rtcp_ = std::move(h); }

  /// LSR/DLSR material for the next receiver report about `ssrc`: the
  /// ntp_ms of the last sender report seen and the delay since, in ms.
  /// Returns {0, 0} if no SR was seen (per RFC 3550).
  std::pair<std::uint32_t, std::uint32_t> SenderReportEcho(std::uint32_t ssrc) const;

 private:
  struct StreamState {
    double jitter_rtp_units = 0.0;  ///< RFC 3550 interarrival jitter
    bool have_last_seq = false;
    std::uint16_t last_seq = 0;
    std::optional<std::uint32_t> frame_timestamp;
    std::vector<std::uint8_t> frame_buffer;
    bool frame_gap = false;
    std::optional<double> last_transit;
    std::uint64_t interval_received = 0;
    std::uint64_t interval_lost = 0;
    std::uint32_t last_sr_ntp_ms = 0;
    net::SimTime last_sr_arrival = -1;
  };

  void OnPacket(const net::Packet& p);
  void FlushFrame(std::uint32_t ssrc, StreamState& s, net::SimTime arrival);

  net::Medium* medium_;
  net::NodeId node_;
  std::uint16_t port_;
  FrameHandler on_frame_;
  RtcpHandler on_rtcp_;
  obs::Counter* packets_received_ = nullptr;
  obs::Counter* payload_bytes_received_ = nullptr;
  obs::Counter* packets_lost_ = nullptr;  ///< 16-bit sequence-gap estimate
  obs::Counter* frames_delivered_ = nullptr;
  obs::Counter* frames_damaged_ = nullptr;
  obs::Gauge* jitter_rtp_units_ = nullptr;
  std::optional<std::uint8_t> last_pt_;
  std::map<std::uint32_t, StreamState> streams_;
};

}  // namespace vtp::transport
