#include "transport/rtp.h"

#include <cmath>

namespace vtp::transport {

void RtpHeader::SerializeTo(std::vector<std::uint8_t>& out) const {
  out.push_back(0x80);  // version 2, no padding, no extension, no CSRCs
  out.push_back(static_cast<std::uint8_t>((marker ? 0x80 : 0x00) | (payload_type & 0x7F)));
  out.push_back(static_cast<std::uint8_t>(sequence >> 8));
  out.push_back(static_cast<std::uint8_t>(sequence));
  out.push_back(static_cast<std::uint8_t>(timestamp >> 24));
  out.push_back(static_cast<std::uint8_t>(timestamp >> 16));
  out.push_back(static_cast<std::uint8_t>(timestamp >> 8));
  out.push_back(static_cast<std::uint8_t>(timestamp));
  out.push_back(static_cast<std::uint8_t>(ssrc >> 24));
  out.push_back(static_cast<std::uint8_t>(ssrc >> 16));
  out.push_back(static_cast<std::uint8_t>(ssrc >> 8));
  out.push_back(static_cast<std::uint8_t>(ssrc));
}

bool LooksLikeRtcp(std::span<const std::uint8_t> data) {
  // RTP/RTCP share the version bits; RTCP packet types 200-204 land where
  // RTP's marker+PT byte would read 72-76 — the standard demux rule.
  if (data.size() < 2 || (data[0] & 0xC0) != 0x80) return false;
  const std::uint8_t pt = data[1] & 0x7F;
  return pt >= 72 && pt <= 76;
}

std::optional<RtpHeader> RtpHeader::Parse(std::span<const std::uint8_t> data) {
  if (data.size() < kSize) return std::nullopt;
  if ((data[0] & 0xC0) != 0x80) return std::nullopt;  // version must be 2
  if (LooksLikeRtcp(data)) return std::nullopt;
  RtpHeader h;
  h.marker = (data[1] & 0x80) != 0;
  h.payload_type = data[1] & 0x7F;
  h.sequence = static_cast<std::uint16_t>((data[2] << 8) | data[3]);
  h.timestamp = (static_cast<std::uint32_t>(data[4]) << 24) |
                (static_cast<std::uint32_t>(data[5]) << 16) |
                (static_cast<std::uint32_t>(data[6]) << 8) | data[7];
  h.ssrc = (static_cast<std::uint32_t>(data[8]) << 24) |
           (static_cast<std::uint32_t>(data[9]) << 16) |
           (static_cast<std::uint32_t>(data[10]) << 8) | data[11];
  return h;
}

RtpSender::RtpSender(net::Medium* medium, net::NodeId node, std::uint16_t local_port,
                     net::NodeId dst, std::uint16_t dst_port, RtpSenderConfig config)
    : medium_(medium),
      node_(node),
      local_port_(local_port),
      dst_(dst),
      dst_port_(dst_port),
      config_(config) {
  obs::MetricRegistry& reg = medium_->sim().metrics();
  const std::string scope = reg.UniqueScope("rtp.tx");
  frames_sent_ = reg.NewCounter(scope + ".frames_sent");
  packets_sent_ = reg.NewCounter(scope + ".packets_sent");
  payload_bytes_sent_ = reg.NewCounter(scope + ".payload_bytes_sent");}

void RtpSender::SendFrame(std::span<const std::uint8_t> frame, std::uint32_t rtp_timestamp) {
  std::size_t offset = 0;
  do {
    const std::size_t chunk = std::min(config_.mtu_payload, frame.size() - offset);
    const bool last = offset + chunk >= frame.size();
    RtpHeader h;
    h.payload_type = config_.payload_type;
    h.marker = last;
    h.sequence = next_seq_++;
    h.timestamp = rtp_timestamp;
    h.ssrc = config_.ssrc;

    std::vector<std::uint8_t> packet;
    packet.reserve(RtpHeader::kSize + chunk);
    h.SerializeTo(packet);
    packet.insert(packet.end(), frame.begin() + static_cast<std::ptrdiff_t>(offset),
                  frame.begin() + static_cast<std::ptrdiff_t>(offset + chunk));
    medium_->SendUdp(node_, local_port_, dst_, dst_port_, std::move(packet));

    packets_sent_->Inc();
    payload_bytes_sent_->Inc(chunk);
    offset += chunk;
  } while (offset < frame.size());
  frames_sent_->Inc();
}

RtpReceiver::RtpReceiver(net::Medium* medium, net::NodeId node, std::uint16_t port,
                         FrameHandler on_frame)
    : medium_(medium), node_(node), port_(port), on_frame_(std::move(on_frame)) {
  obs::MetricRegistry& reg = medium_->sim().metrics();
  const std::string scope = reg.UniqueScope("rtp.rx");
  packets_received_ = reg.NewCounter(scope + ".packets_received");
  payload_bytes_received_ = reg.NewCounter(scope + ".payload_bytes_received");
  packets_lost_ = reg.NewCounter(scope + ".packets_lost");
  frames_delivered_ = reg.NewCounter(scope + ".frames_delivered");
  frames_damaged_ = reg.NewCounter(scope + ".frames_damaged");
  jitter_rtp_units_ = reg.NewGauge(scope + ".jitter_rtp_units");
  medium_->BindUdp(node_, port_, [this](const net::Packet& p) { OnPacket(p); });
}

RtpReceiver::~RtpReceiver() { medium_->UnbindUdp(node_, port_); }

namespace {

void PutU32Be(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint32_t GetU32Be(std::span<const std::uint8_t> data, std::size_t at) {
  return (static_cast<std::uint32_t>(data[at]) << 24) |
         (static_cast<std::uint32_t>(data[at + 1]) << 16) |
         (static_cast<std::uint32_t>(data[at + 2]) << 8) | data[at + 3];
}

}  // namespace

void RtcpSenderReport::SerializeTo(std::vector<std::uint8_t>& out) const {
  const std::size_t base = out.size();
  out.push_back(0x80);  // version 2, no report blocks
  out.push_back(200);   // RTCP SR
  out.push_back(0);     // length (unused by the parser)
  out.push_back(6);
  PutU32Be(out, sender_ssrc);
  PutU32Be(out, ntp_ms);
  PutU32Be(out, rtp_timestamp);
  out.resize(base + 28, 0);  // pad to a typical SR size
}

std::optional<RtcpSenderReport> RtcpSenderReport::Parse(std::span<const std::uint8_t> data) {
  if (data.size() < 16 || data[0] != 0x80 || data[1] != 200) return std::nullopt;
  RtcpSenderReport r;
  r.sender_ssrc = GetU32Be(data, 4);
  r.ntp_ms = GetU32Be(data, 8);
  r.rtp_timestamp = GetU32Be(data, 12);
  return r;
}

void RtcpReceiverReport::SerializeTo(std::vector<std::uint8_t>& out) const {
  const std::size_t base = out.size();
  out.push_back(0x81);  // version 2, one report block
  out.push_back(201);   // RTCP RR
  out.push_back(0);     // length (unused by the parser)
  out.push_back(7);
  PutU32Be(out, reporter_ssrc);
  PutU32Be(out, source_ssrc);
  out.push_back(static_cast<std::uint8_t>(
      std::clamp(fraction_lost, 0.0, 1.0) * 255.0));
  PutU32Be(out, lsr_ms);
  PutU32Be(out, dlsr_ms);
  out.resize(base + 32, 0);  // pad to a typical RR size
}

std::optional<RtcpReceiverReport> RtcpReceiverReport::Parse(std::span<const std::uint8_t> data) {
  if (data.size() < 21 || data[0] != 0x81 || data[1] != 201) return std::nullopt;
  RtcpReceiverReport r;
  r.reporter_ssrc = GetU32Be(data, 4);
  r.source_ssrc = GetU32Be(data, 8);
  r.fraction_lost = static_cast<double>(data[12]) / 255.0;
  r.lsr_ms = GetU32Be(data, 13);
  r.dlsr_ms = GetU32Be(data, 17);
  return r;
}

void RtpReceiver::OnPacket(const net::Packet& p) {
  if (LooksLikeRtcp(p.payload)) {
    if (const auto sr = RtcpSenderReport::Parse(p.payload)) {
      StreamState& s = streams_[sr->sender_ssrc];
      s.last_sr_ntp_ms = sr->ntp_ms;
      s.last_sr_arrival = medium_->sim().now();
      return;
    }
    if (on_rtcp_) {
      if (const auto rr = RtcpReceiverReport::Parse(p.payload)) on_rtcp_(*rr);
    }
    return;
  }
  const auto header = RtpHeader::Parse(p.payload);
  if (!header) return;  // not RTP: ignore
  const net::SimTime now = medium_->sim().now();

  packets_received_->Inc();
  payload_bytes_received_->Inc(p.payload.size() - RtpHeader::kSize);
  last_pt_ = header->payload_type;

  StreamState& s = streams_[header->ssrc];
  ++s.interval_received;

  // Loss estimate from 16-bit sequence gaps.
  if (s.have_last_seq) {
    const std::uint16_t expected = static_cast<std::uint16_t>(s.last_seq + 1);
    const std::uint16_t gap = static_cast<std::uint16_t>(header->sequence - expected);
    if (gap != 0 && gap < 0x8000) {
      packets_lost_->Inc(gap);
      s.interval_lost += gap;
      s.frame_gap = true;
    }
  }
  s.last_seq = header->sequence;
  s.have_last_seq = true;

  // RFC 3550 interarrival jitter, in RTP timestamp units (90 kHz video).
  const double arrival_rtp = net::ToSeconds(now) * 90000.0;
  const double transit = arrival_rtp - static_cast<double>(header->timestamp);
  if (s.last_transit) {
    const double d = std::abs(transit - *s.last_transit);
    s.jitter_rtp_units += (d - s.jitter_rtp_units) / 16.0;
    jitter_rtp_units_->Set(s.jitter_rtp_units);
  }
  s.last_transit = transit;

  // Frame reassembly: packets of one frame share a timestamp; the network
  // preserves per-flow order, so a timestamp change or a marker ends it.
  if (s.frame_timestamp && *s.frame_timestamp != header->timestamp) {
    // Previous frame never saw its marker (tail loss): it is damaged.
    s.frame_gap = true;
    FlushFrame(header->ssrc, s, now);
  }
  s.frame_timestamp = header->timestamp;
  s.frame_buffer.insert(s.frame_buffer.end(), p.payload.begin() + RtpHeader::kSize,
                        p.payload.end());
  if (header->marker) FlushFrame(header->ssrc, s, now);
}

void RtpReceiver::FlushFrame(std::uint32_t ssrc, StreamState& s, net::SimTime arrival) {
  if (!s.frame_timestamp) return;
  if (s.frame_gap) {
    frames_damaged_->Inc();
  } else {
    frames_delivered_->Inc();
    if (on_frame_) on_frame_(ssrc, std::move(s.frame_buffer), *s.frame_timestamp, arrival);
  }
  s.frame_buffer.clear();
  s.frame_timestamp.reset();
  s.frame_gap = false;
}

std::vector<std::uint32_t> RtpReceiver::KnownSsrcs() const {
  std::vector<std::uint32_t> out;
  out.reserve(streams_.size());
  for (const auto& [ssrc, state] : streams_) out.push_back(ssrc);
  return out;
}

std::pair<std::uint32_t, std::uint32_t> RtpReceiver::SenderReportEcho(
    std::uint32_t ssrc) const {
  const auto it = streams_.find(ssrc);
  if (it == streams_.end() || it->second.last_sr_arrival < 0) return {0, 0};
  const auto dlsr = static_cast<std::uint32_t>(
      net::ToMillis(medium_->sim().now() - it->second.last_sr_arrival));
  return {it->second.last_sr_ntp_ms, dlsr};
}

double RtpReceiver::TakeIntervalLossRate(std::uint32_t ssrc) {
  const auto it = streams_.find(ssrc);
  if (it == streams_.end()) return 0.0;
  StreamState& s = it->second;
  const std::uint64_t expected = s.interval_received + s.interval_lost;
  const double rate =
      expected == 0 ? 0.0 : static_cast<double>(s.interval_lost) / static_cast<double>(expected);
  s.interval_received = 0;
  s.interval_lost = 0;
  return rate;
}

}  // namespace vtp::transport
