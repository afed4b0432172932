#include "transport/quic.h"

#include <algorithm>
#include <cassert>

#include "compress/bitstream.h"

namespace vtp::transport {

namespace {

constexpr std::uint32_t kQuicVersion = 0x00000001;
constexpr std::size_t kCidBytes = 8;
constexpr std::uint8_t kLongTypeInitial = 0;
constexpr std::uint8_t kLongTypeHandshake = 2;

// Frame types (RFC 9000 / RFC 9221).
constexpr std::uint8_t kFramePadding = 0x00;
constexpr std::uint8_t kFramePing = 0x01;
constexpr std::uint8_t kFrameAck = 0x02;
constexpr std::uint8_t kFrameConnectionClose = 0x1C;
constexpr std::uint8_t kFrameHandshakeDone = 0x1E;
constexpr std::uint8_t kFrameDatagram = 0x31;  // with length

constexpr int kPacketLossThreshold = 3;
constexpr net::SimTime kMaxAckDelay = net::Millis(25);
// RFC 9002 §6.2.2: the RTT assumed before the first sample.
constexpr net::SimTime kInitialRtt = net::Millis(333);
constexpr int kAckElicitingThreshold = 2;  // RFC 9000 default: ack every 2nd

// ACK frames report at most this many ranges (RFC 9000 §13.2.3 lets an
// endpoint omit old ranges), so an ACK always fits one packet even under
// pathological loss patterns.
constexpr std::size_t kMaxAckRanges = 32;
// Merged received-pn ranges kept per connection; older holes beyond this are
// forgotten (they could never be reported again under kMaxAckRanges anyway).
constexpr std::size_t kMaxTrackedRecvRanges = 256;

constexpr std::size_t kInitialRingSize = 64;  // sent-packet ring; power of two

// The varint emitter is templated over the sink: the public PutQuicVarint
// appends to a std::vector, packets serialize straight into their
// QuicPacketWriter.
template <class Out>
void PutVarintTo(Out& out, std::uint64_t value) {
  if (value < (1ull << 6)) {
    out.push_back(static_cast<std::uint8_t>(value));
  } else if (value < (1ull << 14)) {
    out.push_back(static_cast<std::uint8_t>(0x40 | (value >> 8)));
    out.push_back(static_cast<std::uint8_t>(value));
  } else if (value < (1ull << 30)) {
    out.push_back(static_cast<std::uint8_t>(0x80 | (value >> 24)));
    out.push_back(static_cast<std::uint8_t>(value >> 16));
    out.push_back(static_cast<std::uint8_t>(value >> 8));
    out.push_back(static_cast<std::uint8_t>(value));
  } else if (value < (1ull << 62)) {
    out.push_back(static_cast<std::uint8_t>(0xC0 | (value >> 56)));
    for (int shift = 48; shift >= 0; shift -= 8) {
      out.push_back(static_cast<std::uint8_t>(value >> shift));
    }
  } else {
    throw std::invalid_argument("quic varint out of range");
  }
}

void PutU32To(QuicPacketWriter& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void PutU64To(QuicPacketWriter& out, std::uint64_t v) {
  PutU32To(out, static_cast<std::uint32_t>(v >> 32));
  PutU32To(out, static_cast<std::uint32_t>(v));
}

std::uint64_t GetU64(std::span<const std::uint8_t> d, std::size_t* pos) {
  if (*pos + 8 > d.size()) throw compress::CorruptStream("quic: truncated u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | d[(*pos)++];
  return v;
}

}  // namespace

void PutQuicVarint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  PutVarintTo(out, value);
}

std::uint64_t GetQuicVarint(std::span<const std::uint8_t> data, std::size_t* pos) {
  if (*pos >= data.size()) throw compress::CorruptStream("quic: truncated varint");
  const std::uint8_t first = data[*pos];
  const int len = 1 << (first >> 6);
  if (*pos + static_cast<std::size_t>(len) > data.size()) {
    throw compress::CorruptStream("quic: truncated varint body");
  }
  std::uint64_t v = first & 0x3F;
  ++*pos;
  for (int i = 1; i < len; ++i) v = (v << 8) | data[(*pos)++];
  return v;
}

// ---------------------------------------------------------------------------
// QuicConnection
// ---------------------------------------------------------------------------

QuicConnection::QuicConnection(QuicEndpoint* endpoint, std::uint64_t local_cid,
                               std::uint64_t remote_cid, net::NodeId peer_node,
                               std::uint16_t peer_port, bool is_client)
    : endpoint_(endpoint),
      local_cid_(local_cid),
      remote_cid_(remote_cid),
      peer_node_(peer_node),
      peer_port_(peer_port),
      is_client_(is_client),
      sent_ring_(kInitialRingSize) {
  // Connection metrics live in the owning Simulator's registry under a
  // per-connection scope; construction order is deterministic per seed.
  obs::MetricRegistry& reg = endpoint_->medium().sim().metrics();
  scope_ = reg.UniqueScope("quic.conn");
  obs_.packets_sent = reg.NewCounter(scope_ + ".packets_sent");
  obs_.packets_received = reg.NewCounter(scope_ + ".packets_received");
  obs_.packets_declared_lost = reg.NewCounter(scope_ + ".packets_declared_lost");
  obs_.bytes_sent = reg.NewCounter(scope_ + ".bytes_sent");
  obs_.datagrams_sent = reg.NewCounter(scope_ + ".datagrams_sent");
  obs_.datagrams_received = reg.NewCounter(scope_ + ".datagrams_received");
  obs_.datagrams_dropped_prehandshake = reg.NewCounter(scope_ + ".datagrams_dropped_prehandshake");
  obs_.smoothed_rtt_ms = reg.NewGauge(scope_ + ".smoothed_rtt_ms");
}

QuicStats QuicConnection::stats() const {
  QuicStats s;
  s.packets_sent = obs_.packets_sent->value();
  s.packets_received = obs_.packets_received->value();
  s.packets_declared_lost = obs_.packets_declared_lost->value();
  s.bytes_sent = obs_.bytes_sent->value();
  s.datagrams_sent = obs_.datagrams_sent->value();
  s.datagrams_received = obs_.datagrams_received->value();
  s.datagrams_dropped_prehandshake = obs_.datagrams_dropped_prehandshake->value();
  s.smoothed_rtt_ms = obs_.smoothed_rtt_ms->value();
  return s;
}

void QuicConnection::StartHandshake() {
  QuicPacketWriter w = BeginPacket(/*long_header=*/true, kLongTypeInitial);
  w.push_back(kFramePing);
  FinishPacket(std::move(w), /*ack_eliciting=*/true, /*pad_initial=*/true);
}

void QuicConnection::Close(std::uint64_t error_code) {
  if (closed_) return;
  QuicPacketWriter w = BeginPacket(/*long_header=*/false, 0);
  w.push_back(kFrameConnectionClose);
  PutVarintTo(w, error_code);
  PutVarintTo(w, 0);  // offending frame type (none)
  PutVarintTo(w, 0);  // reason phrase length
  FinishPacket(std::move(w), /*ack_eliciting=*/false);
  closed_ = true;
}

void QuicConnection::SendDatagram(std::span<const std::uint8_t> data) {
  if (closed_) return;
  if (!established_) {
    // A handshake that never completes must not grow this queue without
    // bound: beyond the cap the oldest is dropped (datagrams are unreliable
    // by contract, so silently losing the stalest one is fair game).
    if (datagram_queue_.size() >= kMaxPreHandshakeDatagrams) {
      datagram_queue_.pop_front();
      obs_.datagrams_dropped_prehandshake->Inc();
    }
    datagram_queue_.emplace_back(data.begin(), data.end());
    return;
  }
  obs_.datagrams_sent->Inc();
  // A DATAGRAM too large for the MTU block goes out in one packet sized to
  // its worst case: short header, pn, frame type, length and payload, with
  // 9 bytes reserved for each varint.
  const std::size_t worst_case = 1 + kCidBytes + 9 + 1 + 9 + data.size();
  QuicPacketWriter w =
      BeginPacket(/*long_header=*/false, 0, std::max(kMaxPacketSize, worst_case));
  w.push_back(kFrameDatagram);
  PutVarintTo(w, data.size());
  w.append(data.data(), data.size());
  FinishPacket(std::move(w), /*ack_eliciting=*/true);
}

void QuicConnection::FlushQueuedDatagrams() {
  if (closed_) return;
  while (!datagram_queue_.empty()) {
    auto d = std::move(datagram_queue_.front());
    datagram_queue_.pop_front();
    SendDatagram(d);
  }
}

QuicPacketWriter QuicConnection::BeginPacket(bool long_header, std::uint8_t long_type,
                                             std::size_t capacity) {
  QuicPacketWriter w(capacity);
  if (long_header) {
    w.push_back(static_cast<std::uint8_t>(0xC0 | (long_type << 4)));
    PutU32To(w, kQuicVersion);
    w.push_back(kCidBytes);
    PutU64To(w, remote_cid_);
    w.push_back(kCidBytes);
    PutU64To(w, local_cid_);
  } else {
    w.push_back(0x40);
    PutU64To(w, remote_cid_);
  }
  PutVarintTo(w, next_pn_);  // consumed by the matching FinishPacket
  return w;
}

void QuicConnection::FinishPacket(QuicPacketWriter&& w, bool ack_eliciting, bool pad_initial) {
  if (pad_initial) w.pad_to(kMaxPacketSize);  // RFC 9000 §14.1, one memset
  const std::uint64_t pn = next_pn_++;
  SentPacketInfo& info = SentSlot(pn);
  info.sent_time = endpoint_->medium().sim().now();
  info.ack_eliciting = ack_eliciting;
  info.acked = false;
  info.lost = false;

  obs_.packets_sent->Inc();
  obs_.bytes_sent->Inc(w.size());
  endpoint_->SendRaw(peer_node_, peer_port_, w.Take());
  if (ack_eliciting) ArmPto();
}

QuicConnection::SentPacketInfo* QuicConnection::FindSent(std::uint64_t pn) {
  if (pn < ring_base_ || pn >= next_pn_) return nullptr;
  return &sent_ring_[pn & (sent_ring_.size() - 1)];
}

QuicConnection::SentPacketInfo& QuicConnection::SentSlot(std::uint64_t pn) {
  // Retire the settled prefix first so the live window stays tight (up to,
  // not including, `pn`: its slot is about to be overwritten).
  RetireSettled(pn);
  if (pn - ring_base_ >= sent_ring_.size()) {
    // Unsettled window outgrew the ring: double it and re-index live slots.
    std::size_t cap = sent_ring_.size() * 2;
    while (pn - ring_base_ >= cap) cap *= 2;
    std::vector<SentPacketInfo> grown(cap);
    for (std::uint64_t i = ring_base_; i < pn; ++i) {
      grown[i & (cap - 1)] = std::move(sent_ring_[i & (sent_ring_.size() - 1)]);
    }
    sent_ring_ = std::move(grown);
  }
  return sent_ring_[pn & (sent_ring_.size() - 1)];
}

void QuicConnection::OnDatagramReceived(std::span<const std::uint8_t> payload) {
  std::size_t pos = 0;
  if (closed_ || payload.empty()) return;
  const std::uint8_t first = payload[0];
  bool is_long = (first & 0x80) != 0;
  std::uint8_t long_type = 0;
  ++pos;
  try {
    if (is_long) {
      long_type = (first >> 4) & 0x03;
      pos += 4;  // version
      if (pos >= payload.size()) return;
      const std::uint8_t dcid_len = payload[pos++];
      pos += dcid_len;
      if (pos >= payload.size()) return;
      const std::uint8_t scid_len = payload[pos];
      ++pos;
      if (scid_len == kCidBytes) {
        std::size_t p2 = pos;
        const std::uint64_t scid = GetU64(payload, &p2);
        if (remote_cid_ == 0) remote_cid_ = scid;  // client learns server CID
      }
      pos += scid_len;
    } else {
      pos += kCidBytes;  // short header: skip the destination CID
    }
    const std::uint64_t pn = GetQuicVarint(payload, &pos);
    RecordReceivedPn(pn);
    obs_.packets_received->Inc();

    const bool was_established = established_;
    ProcessFrames(payload.subspan(pos));

    if (is_long && long_type == kLongTypeInitial && !is_client_) {
      // Server side: answer every Initial with a Handshake packet carrying
      // HANDSHAKE_DONE, then consider the connection usable. A repeated
      // Initial means the client has not seen an earlier answer, which may
      // have been lost; the server's own PTO probes never carry one.
      QuicPacketWriter w = BeginPacket(/*long_header=*/true, kLongTypeHandshake);
      AppendAckFrameTo(w);
      w.push_back(kFrameHandshakeDone);
      FinishPacket(std::move(w), /*ack_eliciting=*/true);
      established_ = true;
    }
    if (!was_established && established_) {
      if (on_established_) on_established_();
      FlushQueuedDatagrams();
    }
    // Delayed-ACK policy: immediate ACK after every kAckElicitingThreshold
    // ack-eliciting packets, otherwise a timer fires within kMaxAckDelay.
    if (ack_pending_) {
      if (pending_ack_eliciting_ >= kAckElicitingThreshold) {
        SendAckIfNeeded();
      } else if (!ack_timer_armed_) {
        ack_timer_armed_ = true;
        endpoint_->medium().sim().After(kMaxAckDelay, [this] {
          ack_timer_armed_ = false;
          SendAckIfNeeded();
        });
      }
    }
  } catch (const compress::CorruptStream&) {
    // Malformed packet: drop silently, as a real endpoint would.
  }
}

void QuicConnection::ProcessFrames(std::span<const std::uint8_t> payload) {
  std::size_t pos = 0;
  const auto mark_ack_eliciting = [this] {
    if (!ack_pending_) {
      ack_pending_ = true;
      first_pending_ack_time_ = endpoint_->medium().sim().now();
      pending_ack_eliciting_ = 0;
    }
    ++pending_ack_eliciting_;
  };
  while (pos < payload.size()) {
    const std::uint8_t type = payload[pos];
    if (type == kFramePadding) {
      ++pos;
      continue;
    }
    ++pos;
    switch (type) {
      case kFramePing:
        mark_ack_eliciting();
        break;
      case kFrameAck:
        HandleAckFrame(payload, &pos);
        break;
      case kFrameConnectionClose: {
        const std::uint64_t error_code = GetQuicVarint(payload, &pos);
        GetQuicVarint(payload, &pos);  // frame type
        const std::uint64_t reason_len = GetQuicVarint(payload, &pos);
        pos += reason_len;
        closed_ = true;
        if (on_close_) on_close_(error_code);
        return;  // discard the rest of the packet
      }
      case kFrameHandshakeDone:
        mark_ack_eliciting();
        if (is_client_) established_ = true;
        break;
      case kFrameDatagram: {
        mark_ack_eliciting();
        const std::uint64_t length = GetQuicVarint(payload, &pos);
        if (pos + length > payload.size()) throw compress::CorruptStream("quic: datagram overrun");
        obs_.datagrams_received->Inc();
        if (on_datagram_) on_datagram_(payload.subspan(pos, length));
        pos += length;
        break;
      }
      default:
        // Unknown frame (STREAM included): cannot skip safely, drop the
        // rest of the packet.
        return;
    }
  }
}

void QuicConnection::HandleAckFrame(std::span<const std::uint8_t> payload, std::size_t* pos) {
  const std::uint64_t largest = GetQuicVarint(payload, pos);
  const std::uint64_t ack_delay_us = GetQuicVarint(payload, pos);
  const std::uint64_t range_count = GetQuicVarint(payload, pos);
  const std::uint64_t first_range = GetQuicVarint(payload, pos);

  // A frame acknowledging packets we never sent is malformed; dropping the
  // whole packet also bounds the per-pn walk below to packets actually in
  // flight (a garbage `largest` would otherwise walk up to 2^62 numbers).
  if (largest >= next_pn_ || first_range > largest) {
    throw compress::CorruptStream("quic: ack out of range");
  }

  // RTT sample from the largest acked, if it is newly acknowledged.
  if (SentPacketInfo* info = FindSent(largest);
      info != nullptr && !info->acked && !info->lost) {
    const net::SimTime raw = endpoint_->medium().sim().now() - info->sent_time;
    // The peer-reported delay is up to 2^62 us; anything above the raw
    // sample floors it to 1 us either way, so clamp before the multiply
    // can overflow.
    const std::uint64_t delay_us =
        std::min(ack_delay_us, static_cast<std::uint64_t>(raw / net::kMicrosecond));
    net::SimTime sample = raw - static_cast<net::SimTime>(delay_us) * net::kMicrosecond;
    if (sample < net::Micros(1)) sample = net::Micros(1);
    UpdateRtt(sample);
  }

  const std::uint64_t lo = largest - first_range;
  AckRange(lo, largest);
  std::uint64_t cursor = lo;
  for (std::uint64_t i = 0; i < range_count; ++i) {
    const std::uint64_t gap = GetQuicVarint(payload, pos);
    const std::uint64_t len = GetQuicVarint(payload, pos);
    if (cursor < gap + 2) throw compress::CorruptStream("quic: malformed ack range");
    const std::uint64_t hi = cursor - gap - 2;
    const std::uint64_t lo2 = hi >= len ? hi - len : 0;
    AckRange(lo2, hi);
    cursor = lo2;
  }

  if (!any_acked_ || largest > largest_acked_) largest_acked_ = largest;
  any_acked_ = true;
  DetectLosses();
}

void QuicConnection::AckRange(std::uint64_t lo, std::uint64_t hi) {
  // The retired prefix is coalesced away in one clamp.
  if (lo < ring_base_) lo = ring_base_;
  for (std::uint64_t pn = lo; pn <= hi; ++pn) OnPacketAcked(pn);
}

void QuicConnection::OnPacketAcked(std::uint64_t pn) {
  SentPacketInfo* info = FindSent(pn);
  if (info == nullptr || info->acked) return;
  info->acked = true;
  pto_backoff_ = 0;
}

void QuicConnection::DetectLosses() {
  if (!any_acked_) return;
  for (std::uint64_t pn = ring_base_; pn < next_pn_; ++pn) {
    if (pn + kPacketLossThreshold > largest_acked_) break;  // too recent to judge
    SentPacketInfo& info = sent_ring_[pn & (sent_ring_.size() - 1)];
    if (info.acked || info.lost) continue;
    // ACK-only packets are never acknowledged; they retire silently rather
    // than count as losses.
    info.lost = true;
    if (info.ack_eliciting) obs_.packets_declared_lost->Inc();
  }
  RetireSettled(next_pn_);
}

void QuicConnection::RetireSettled(std::uint64_t limit) {
  // Prune settled history so tracking state stays small on long sessions.
  while (ring_base_ < limit) {
    SentPacketInfo& s = sent_ring_[ring_base_ & (sent_ring_.size() - 1)];
    if (!(s.acked || s.lost)) break;
    ++ring_base_;
  }
}

void QuicConnection::RecordReceivedPn(std::uint64_t pn) {
  // Insert into the merged range list.
  auto it = std::lower_bound(recv_ranges_.begin(), recv_ranges_.end(),
                             std::make_pair(pn, pn));
  // Try to extend the previous or next range.
  if (it != recv_ranges_.begin()) {
    auto prev = std::prev(it);
    if (pn <= prev->second) return;  // duplicate
    if (pn == prev->second + 1) {
      prev->second = pn;
      if (it != recv_ranges_.end() && it->first == pn + 1) {
        prev->second = it->second;
        recv_ranges_.erase(it);
      }
      return;
    }
  }
  if (it != recv_ranges_.end()) {
    if (it->first == pn) return;  // duplicate
    if (it->first == pn + 1) {
      it->first = pn;
      return;
    }
  }
  recv_ranges_.insert(it, {pn, pn});
  // Bound the tracked history: ranges older than what an ACK frame can still
  // report (kMaxAckRanges) are dead weight on a lossy long-lived connection.
  if (recv_ranges_.size() > kMaxTrackedRecvRanges) {
    recv_ranges_.erase(recv_ranges_.begin());
  }
}

void QuicConnection::AppendAckFrameTo(QuicPacketWriter& out) {
  if (recv_ranges_.empty()) return;
  const std::size_t nranges = std::min(recv_ranges_.size(), kMaxAckRanges);
  out.push_back(kFrameAck);
  const auto& top = recv_ranges_.back();
  PutVarintTo(out, top.second);                 // largest acknowledged
  const net::SimTime held = endpoint_->medium().sim().now() - first_pending_ack_time_;
  PutVarintTo(out, static_cast<std::uint64_t>(std::max<net::SimTime>(held, 0) /
                                              net::kMicrosecond));  // ack delay, µs
  PutVarintTo(out, nranges - 1);                // additional ranges
  PutVarintTo(out, top.second - top.first);     // first range length
  std::uint64_t cursor = top.first;
  const auto last = recv_ranges_.rbegin() + static_cast<std::ptrdiff_t>(nranges);
  for (auto it = recv_ranges_.rbegin() + 1; it != last; ++it) {
    PutVarintTo(out, cursor - it->second - 2);  // gap
    PutVarintTo(out, it->second - it->first);   // range length
    cursor = it->first;
  }
}

void QuicConnection::SendAckIfNeeded() {
  if (!ack_pending_) return;
  ack_pending_ = false;
  pending_ack_eliciting_ = 0;
  if (recv_ranges_.empty()) return;
  QuicPacketWriter w = BeginPacket(/*long_header=*/false, 0);
  AppendAckFrameTo(w);
  FinishPacket(std::move(w), /*ack_eliciting=*/false);
}

net::SimTime QuicConnection::PtoInterval() const {
  // Before the first RTT sample: smoothed RTT kInitialRtt, rttvar half of
  // it, and no ack delay, which counts as 0 during the handshake (RFC 9002
  // §6.2.1). That is a 999 ms PTO, above any terrestrial handshake RTT.
  if (!srtt_) return kInitialRtt + 4 * (kInitialRtt / 2);
  return *srtt_ + std::max<net::SimTime>(4 * rttvar_, net::Millis(1)) + kMaxAckDelay;
}

void QuicConnection::ArmPto() {
  const std::uint64_t epoch = ++pto_epoch_;
  const net::SimTime when = PtoInterval() << std::min(pto_backoff_, 6);
  endpoint_->medium().sim().After(when, [this, epoch] {
    if (epoch == pto_epoch_) OnPto();
  });
}

void QuicConnection::OnPto() {
  if (closed_) return;
  // Everything ack-eliciting still outstanding is declared lost.
  bool outstanding = false;
  for (std::uint64_t pn = ring_base_; pn < next_pn_; ++pn) {
    SentPacketInfo& info = sent_ring_[pn & (sent_ring_.size() - 1)];
    if (info.acked || info.lost || !info.ack_eliciting) continue;
    outstanding = true;
    info.lost = true;
    obs_.packets_declared_lost->Inc();
  }
  // An unestablished client retransmits its Initial even when nothing is
  // outstanding: the server's later packets may have ACKed the Initial
  // while the one carrying HANDSHAKE_DONE was lost.
  if (!established_ && is_client_) {
    ++pto_backoff_;
    StartHandshake();
    return;
  }
  if (!outstanding) return;
  ++pto_backoff_;
  QuicPacketWriter w = BeginPacket(/*long_header=*/false, 0);
  w.push_back(kFramePing);
  FinishPacket(std::move(w), /*ack_eliciting=*/true);
}

void QuicConnection::UpdateRtt(net::SimTime sample) {
  if (!srtt_) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const net::SimTime err = *srtt_ > sample ? *srtt_ - sample : sample - *srtt_;
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * *srtt_ + sample) / 8;
  }
  obs_.smoothed_rtt_ms->Set(net::ToMillis(*srtt_));
}

// ---------------------------------------------------------------------------
// QuicEndpoint
// ---------------------------------------------------------------------------

QuicEndpoint::QuicEndpoint(net::Medium* medium, net::NodeId node, std::uint16_t port)
    : medium_(medium), node_(node), port_(port) {
  next_cid_ = (static_cast<std::uint64_t>(node) << 32) | (static_cast<std::uint64_t>(port) << 8) | 1;
  medium_->BindUdp(node_, port_, [this](const net::Packet& p) { OnPacket(p); });
}

QuicEndpoint::~QuicEndpoint() { medium_->UnbindUdp(node_, port_); }

std::uint64_t QuicEndpoint::NewCid() { return next_cid_++; }

QuicConnection* QuicEndpoint::Connect(net::NodeId peer, std::uint16_t peer_port) {
  const std::uint64_t cid = NewCid();
  auto conn = std::unique_ptr<QuicConnection>(
      new QuicConnection(this, cid, /*remote_cid=*/0, peer, peer_port, /*is_client=*/true));
  QuicConnection* raw = conn.get();
  connections_[cid] = std::move(conn);
  raw->StartHandshake();
  return raw;
}

void QuicEndpoint::SendRaw(net::NodeId dst, std::uint16_t dst_port, net::PacketBuffer payload) {
  medium_->SendUdp(node_, port_, dst, dst_port, std::move(payload));
}

void QuicEndpoint::OnPacket(const net::Packet& p) {
  if (p.payload.empty()) return;
  const std::uint8_t first = p.payload[0];
  const bool is_long = (first & 0x80) != 0;
  try {
    std::uint64_t dcid = 0;
    std::uint64_t scid = 0;
    if (is_long) {
      std::size_t pos = 5;  // skip first byte + version
      if (pos >= p.payload.size()) return;
      const std::uint8_t dcid_len = p.payload[pos++];
      if (dcid_len == kCidBytes) {
        dcid = GetU64(p.payload, &pos);
      } else {
        pos += dcid_len;
      }
      if (pos >= p.payload.size()) return;
      const std::uint8_t scid_len = p.payload[pos++];
      if (scid_len == kCidBytes) scid = GetU64(p.payload, &pos);
    } else {
      std::size_t pos = 1;
      dcid = GetU64(p.payload, &pos);
    }

    const auto it = connections_.find(dcid);
    if (it != connections_.end()) {
      it->second->OnDatagramReceived(p.payload);
      return;
    }

    // Unknown destination CID: a client Initial creates a server connection.
    const std::uint8_t long_type = (first >> 4) & 0x03;
    if (is_long && long_type == kLongTypeInitial && scid != 0) {
      // Deduplicate retransmitted Initials from the same client.
      for (const auto& [cid, conn] : connections_) {
        if (!conn->is_client_ && conn->remote_cid_ == scid && conn->peer_node_ == p.src &&
            conn->peer_port_ == p.src_port) {
          conn->OnDatagramReceived(p.payload);
          return;
        }
      }
      const std::uint64_t cid = NewCid();
      auto conn = std::unique_ptr<QuicConnection>(new QuicConnection(
          this, cid, /*remote_cid=*/scid, p.src, p.src_port, /*is_client=*/false));
      QuicConnection* raw = conn.get();
      connections_[cid] = std::move(conn);
      if (on_accept_) on_accept_(raw);  // app installs handlers first
      raw->OnDatagramReceived(p.payload);
    }
  } catch (const compress::CorruptStream&) {
    // Not parseable as QUIC: ignore.
  }
}

}  // namespace vtp::transport
