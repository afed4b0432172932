#include "vca/pipelines.h"

#include <algorithm>
#include <span>

#include "compress/bitstream.h"
#include "compress/varint.h"
#include "obs/trace.h"

namespace vtp::vca {

namespace {

/// Frames between forced keyframes on temporal rungs: bounds loss-induced
/// delta desync to ~1/3 s at 90 fps.
constexpr std::uint64_t kKeyframeInterval = 30;

}  // namespace

const std::vector<SemanticRung>& DefaultSemanticLadder() {
  // Approximate frame bytes measured over the keypoint generator's steady
  // state; used only for the controller's nominal-rate matching, so rough
  // numbers are fine.
  static const std::vector<SemanticRung> kLadder = {
      {{.quantize_bits = 0, .temporal_delta = false, .lz_compress = true}, 830, "float32+lz"},
      {{.quantize_bits = 12, .temporal_delta = false, .lz_compress = true}, 420, "q12"},
      {{.quantize_bits = 12, .temporal_delta = true, .lz_compress = true}, 230, "q12-temporal"},
      {{.quantize_bits = 10, .temporal_delta = true, .lz_compress = true}, 170, "q10-temporal"},
      {{.quantize_bits = 8, .temporal_delta = true, .lz_compress = true}, 120, "q8-temporal"},
  };
  return kLadder;
}

// ---------------------------------------------------------------------------
// SpatialPersonaSender
// ---------------------------------------------------------------------------

SpatialPersonaSender::SpatialPersonaSender(net::Simulator* sim, transport::QuicConnection* conn,
                                           std::uint8_t sender_id, std::uint64_t seed,
                                           semantic::SemanticCodecConfig codec_config, double fps,
                                           int fec_k, compress::CodecEngine* engine)
    : sim_(sim),
      conn_(conn),
      sender_id_(sender_id),
      fps_(fps),
      generator_(semantic::TrackConfig{.fps = fps}, seed),
      encoder_(codec_config),
      engine_(engine) {
  if (fec_k > 0) fec_.emplace(fec_k);
  if (engine_ != nullptr) encoder_.AttachEngine(engine_);
  obs::MetricRegistry& reg = sim_->metrics();
  const std::string scope = reg.UniqueScope("persona.tx");
  frames_sent_ = reg.NewCounter(scope + ".frames_sent");
  payload_bytes_sent_ = reg.NewCounter(scope + ".payload_bytes_sent");
  fec_parity_bytes_ = reg.NewCounter(scope + ".fec_parity_bytes");
  // The semantic codec's lzr stage, exposed as pull-probes so snapshots see
  // the encoder's byte flow and match-finder hit rate without per-frame
  // cost. With a shared engine the byte flow is an engine-wide aggregate;
  // the session registers it once under "codec.engine" instead, so the
  // per-sender probes exist only for standalone (embedded-lzr) senders.
  if (engine_ == nullptr) {
    reg.NewProbe(scope + ".lzr_bytes_in", [this] {
      return static_cast<double>(encoder_.lzr().io_stats().bytes_in);
    });
    reg.NewProbe(scope + ".lzr_bytes_out", [this] {
      return static_cast<double>(encoder_.lzr().io_stats().bytes_out);
    });
    reg.NewProbe(scope + ".lzr_match_hit_rate", [this] {
      const compress::LzrEncoder::IoStats io = encoder_.lzr().io_stats();
      const double tokens = static_cast<double>(io.literals + io.matches);
      return tokens > 0 ? static_cast<double>(io.matches) / tokens : 0.0;
    });
  }
}

void SpatialPersonaSender::Start(net::SimTime until) { Tick(until); }

void SpatialPersonaSender::ConfigureAdaptive(std::vector<semantic::SemanticCodecConfig> rungs,
                                             int fec_k) {
  adaptive_ = true;
  rungs_ = std::move(rungs);
  // Rung 0 defines the adaptive baseline regardless of the session codec
  // (no frames have been shipped yet, so the reconfigure is free).
  if (!rungs_.empty()) encoder_.Reconfigure(rungs_[0]);
  rung_ = 0;
  if (fec_k > 0 && !fec_) fec_.emplace(fec_k);
}

void SpatialPersonaSender::ApplyLevel(int rung, bool fec_on, bool freeze) {
  if (!adaptive_ || rungs_.empty()) return;
  rung = std::clamp(rung, 0, static_cast<int>(rungs_.size()) - 1);
  if (rung != rung_) {
    // Reconfigure clears temporal state, so the first frame on the new rung
    // encodes standalone and every decoder re-syncs from it.
    encoder_.Reconfigure(rungs_[static_cast<std::size_t>(rung)]);
    rung_ = rung;
    frames_since_key_ = 0;
  }
  fec_enabled_ = fec_on;
  freeze_ = freeze;
}

void SpatialPersonaSender::SetCoarseEnabled(bool on) { coarse_enabled_ = on; }

void SpatialPersonaSender::OnAdaptCtrl(std::span<const std::uint8_t> data) {
  // [relay_tag][sfu_origin_id][kMediaAdaptCtrl][target_sender][rung]
  if (data.size() < 5 || data[3] != sender_id_) return;
  SetCoarseEnabled(data[4] != 0);
}

void SpatialPersonaSender::Ship(std::uint8_t media, std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> payload;
  payload.reserve(body.size() + 3);
  payload.push_back(kRelayTagLocal);
  payload.push_back(sender_id_);
  payload.push_back(media);
  payload.insert(payload.end(), body.begin(), body.end());
  payload_bytes_sent_->Inc(payload.size());
  conn_->SendDatagram(payload);
}

void SpatialPersonaSender::Tick(net::SimTime until) {
  if (sim_->now() >= until) return;
  // The encoder's embedded frame index counts every captured frame (in
  // freeze mode, skipped frames too) — the tracer keys the lifecycle span
  // by (sender, that index), and receivers measure content lag against it.
  const std::uint64_t seq = encoder_.next_frame_index();
  obs::FrameTracer& tracer = sim_->tracer();
  const bool trace = tracer.enabled() && sender_id_ < obs::FrameTracer::kMaxPersonas;
  const net::SimTime now = sim_->now();

  if (freeze_ && seq % kFreezeStride != 0) {
    // Freeze mode: this frame is not shipped. The index must still advance
    // so the eventual recovery isn't judged permanently stale.
    encoder_.SkipFrame();
    sim_->After(static_cast<net::SimTime>(net::kSecond / fps_), [this, until] { Tick(until); });
    return;
  }
  if (trace) tracer.StampSource(sender_id_, seq, obs::Stage::kCapture, now);

  const semantic::KeypointFrame frame = generator_.Next();
  const std::vector<semantic::Vec3> subset = semantic::ExtractSemanticSubset(frame);
  if (freeze_) {
    encoder_.ForceKeyframe();  // shipped freeze frames must decode standalone
  } else if (adaptive_ && encoder_.config().temporal_delta) {
    if (frames_since_key_ >= kKeyframeInterval) {
      encoder_.ForceKeyframe();
      frames_since_key_ = 0;
    }
    ++frames_since_key_;
  }
  encoder_.EncodeFrameInto(subset, encode_scratch_);
  const std::span<const std::uint8_t> encoded = encode_scratch_;
  if (trace) tracer.StampSource(sender_id_, seq, obs::Stage::kEncode, sim_->now());
  frames_sent_->Inc();

  if (fec_ && fec_enabled_) {
    for (const auto& framed : fec_->Protect(encoded)) {
      if (!framed.empty() && framed[0] == 0x01) fec_parity_bytes_->Inc(framed.size());
      Ship(kMediaSemanticFec, framed);
    }
  } else {
    Ship(freeze_ ? kMediaSemanticFreeze : kMediaSemantic, encoded);
  }

  // Simulcast-lite: the coarse alternate stream rides along only while the
  // primary is at full quality — a degraded uplink has no headroom for two
  // streams, and a degraded primary is already coarse.
  if (adaptive_ && coarse_enabled_ && !freeze_ && rung_ == 0 && rungs_.size() > 1) {
    if (!coarse_encoder_) {
      coarse_encoder_.emplace(rungs_[1]);
      if (engine_ != nullptr) coarse_encoder_->AttachEngine(engine_);
    }
    coarse_encoder_->set_next_frame_index(seq);
    coarse_encoder_->EncodeFrameInto(subset, coarse_scratch_);
    Ship(kMediaSemanticAlt, coarse_scratch_);
  }

  if (trace) tracer.StampSource(sender_id_, seq, obs::Stage::kSend, sim_->now());
  sim_->After(static_cast<net::SimTime>(net::kSecond / fps_), [this, until] { Tick(until); });
}

// ---------------------------------------------------------------------------
// SpatialPersonaReceiver
// ---------------------------------------------------------------------------

namespace {

/// One private rig per non-null base. The caller keeps the meshes alive:
/// each rig holds a non-owning pointer (a shared_ptr with no owner).
std::map<std::uint8_t, std::shared_ptr<semantic::LazyRig>> OwnRigs(
    const std::map<std::uint8_t, const mesh::TriangleMesh*>& bases) {
  std::map<std::uint8_t, std::shared_ptr<semantic::LazyRig>> rigs;
  for (const auto& [sender, base] : bases) {
    if (base == nullptr) continue;
    rigs[sender] = std::make_shared<semantic::LazyRig>(
        std::shared_ptr<const mesh::TriangleMesh>(std::shared_ptr<void>(), base));
  }
  return rigs;
}

}  // namespace

SpatialPersonaReceiver::SpatialPersonaReceiver(
    net::Simulator* sim, std::map<std::uint8_t, std::shared_ptr<semantic::LazyRig>> rigs,
    std::size_t reconstruct_stride, double nominal_fps, compress::CodecEngine* engine)
    : sim_(sim),
      rigs_(std::move(rigs)),
      reconstruct_stride_(std::max<std::size_t>(1, reconstruct_stride)),
      nominal_fps_(nominal_fps),
      engine_(engine) {}

SpatialPersonaReceiver::SpatialPersonaReceiver(
    net::Simulator* sim, std::map<std::uint8_t, const mesh::TriangleMesh*> bases,
    std::size_t reconstruct_stride, double nominal_fps, compress::CodecEngine* engine)
    : SpatialPersonaReceiver(sim, OwnRigs(bases), reconstruct_stride, nominal_fps, engine) {}

void SpatialPersonaReceiver::OnDatagram(std::span<const std::uint8_t> data) {
  if (data.size() < 4) return;
  const std::uint8_t tag = data[0];
  if (tag != kRelayTagLocal && tag != kRelayTagRelayed) return;
  const std::uint8_t sender = data[1];
  const std::uint8_t media = data[2];

  const auto [it, created] = remotes_.try_emplace(sender);
  Remote& remote = it->second;
  if (created) {
    remote.decoder.AttachEngine(engine_, sender);
    if (const auto rig = rigs_.find(sender); rig != rigs_.end()) remote.rig = rig->second;
  }
  if (media == kMediaAudio) {
    ++remote.stats.audio_frames;
    return;
  }
  if (media == kMediaSemanticFec) {
    if (!remote.fec) {
      // Map node references are stable, so capturing &remote is safe.
      remote.fec = std::make_unique<transport::FecDecoder>(
          [this, sender, &remote](std::span<const std::uint8_t> payload) {
            ProcessSemantic(sender, remote, payload, /*freeze=*/false);
          });
    }
    remote.fec->OnDatagram(data.subspan(3));
    return;
  }
  if (media != kMediaSemantic && media != kMediaSemanticAlt &&
      media != kMediaSemanticFreeze) {
    return;
  }
  ProcessSemantic(sender, remote, data.subspan(3), media == kMediaSemanticFreeze);
}

void SpatialPersonaReceiver::ProcessSemantic(std::uint8_t sender, Remote& remote,
                                             std::span<const std::uint8_t> data,
                                             bool freeze) {
  try {
    // Arrival log, pre-decode: the frame index is in the payload header
    // ([tag][uleb128 index]...), so gaps are visible even on frames the
    // decoder then rejects. Feeds DownlinkLossEstimate.
    if (!data.empty()) {
      std::size_t pos = 1;
      const std::uint64_t arrival_index = compress::GetUleb128(data, &pos);
      const net::SimTime arrival_now = sim_->now();
      remote.recent_arrivals.emplace_back(arrival_now, arrival_index);
      while (!remote.recent_arrivals.empty() &&
             remote.recent_arrivals.front().first < arrival_now - net::kSecond) {
        remote.recent_arrivals.pop_front();
      }
    }
    const auto frame = remote.decoder.DecodeFrame(data);
    if (!frame) {
      ++remote.stats.decode_failures;  // temporal-delta desync
      return;
    }
    ++remote.stats.frames_decoded;
    const net::SimTime now = sim_->now();
    if (freeze != remote.freeze_mode) {
      remote.freeze_mode = freeze;
      remote.mode_changed_at = now;
    }
    remote.stats.last_frame_time = now;
    remote.stats.last_frame_index = frame->frame_index;
    if (!remote.saw_first) {
      remote.saw_first = true;
      remote.first_decode_time = now;
      remote.first_frame_index = frame->frame_index;
    }
    remote.recent_decodes.push_back(now);
    while (!remote.recent_decodes.empty() &&
           remote.recent_decodes.front() < now - net::kSecond) {
      remote.recent_decodes.pop_front();
    }
    bool reconstructed = false;
    if (remote.rig != nullptr &&
        ++remote.decoded_since_reconstruct >= reconstruct_stride_) {
      remote.decoded_since_reconstruct = 0;
      if (!remote.reconstructor) {
        remote.reconstructor =
            std::make_unique<semantic::PersonaReconstructor>(remote.rig->Get());
      }
      remote.reconstructor->Apply(frame->points);
      reconstructed = true;
    }
    // Close the frame's lifecycle span. Datagram delivery and decode share
    // the sim instant (decode is not modelled as taking sim time); playout
    // is stamped only on frames whose mesh was actually reconstructed.
    obs::FrameTracer& tracer = sim_->tracer();
    if (tracer.enabled() && sender < obs::FrameTracer::kMaxPersonas) {
      tracer.Complete(sender, self_id_, frame->frame_index, now, now,
                      reconstructed ? now : net::SimTime{-1});
    }
  } catch (const compress::CorruptStream&) {
    ++remote.stats.decode_failures;
  }
}

bool SpatialPersonaReceiver::PersonaAvailable(std::uint8_t sender, net::SimTime now) const {
  const auto it = remotes_.find(sender);
  if (it == remotes_.end()) return false;
  const Remote& remote = it->second;

  // 1. Recency.
  if (now - remote.stats.last_frame_time > kAvailabilityTimeout) return false;

  // 2. Sustained decode rate, against the stream's advertised cadence: the
  // capture rate normally, the freeze stride on the freeze rung. Skipped
  // during the initial ramp-up second and for a second after a mode flip
  // (the rate window still holds frames from the previous cadence).
  const double expected_fps =
      remote.freeze_mode ? nominal_fps_ / static_cast<double>(kFreezeStride)
                         : nominal_fps_;
  if (now - remote.first_decode_time > net::kSecond &&
      now - remote.mode_changed_at > net::kSecond) {
    std::size_t recent = 0;
    for (auto rit = remote.recent_decodes.rbegin(); rit != remote.recent_decodes.rend();
         ++rit) {
      if (*rit < now - net::kSecond) break;
      ++recent;
    }
    if (static_cast<double>(recent) < kMinRateFraction * expected_fps) return false;
  }

  // 3. Content freshness: frame indices must keep pace with the wall clock
  // (a rate-capped uplink delays frames ever more as its queue grows).
  const double elapsed_s = net::ToSeconds(now - remote.first_decode_time);
  const double expected_frames = elapsed_s * nominal_fps_;
  const double actual_frames =
      static_cast<double>(remote.stats.last_frame_index - remote.first_frame_index);
  const double lag_s = (expected_frames - actual_frames) / nominal_fps_;
  if (lag_s > net::ToSeconds(kMaxContentLag)) return false;

  return true;
}

double SpatialPersonaReceiver::DownlinkLossEstimate(std::uint8_t sender,
                                                    net::SimTime now) const {
  const auto it = remotes_.find(sender);
  if (it == remotes_.end()) return 0.0;
  const Remote& remote = it->second;

  std::uint64_t received = 0;
  std::uint64_t min_index = 0;
  std::uint64_t max_index = 0;
  for (auto rit = remote.recent_arrivals.rbegin(); rit != remote.recent_arrivals.rend();
       ++rit) {
    if (rit->first < now - net::kSecond) break;
    if (received == 0) {
      min_index = max_index = rit->second;
    } else {
      min_index = std::min(min_index, rit->second);
      max_index = std::max(max_index, rit->second);
    }
    ++received;
  }
  if (received == 0) {
    // A started stream that has gone silent for a full second is 100% lossy
    // as far as this subscriber is concerned.
    return remote.saw_first ? 1.0 : 0.0;
  }
  // On the freeze rung only every kFreezeStride-th index is shipped, so the
  // expected arrival count over the window is the index span divided by the
  // stride — without this a loss-free freeze stream would read as ~89% loss.
  const std::uint64_t stride = remote.freeze_mode ? kFreezeStride : 1;
  const std::uint64_t span = (max_index - min_index) / stride + 1;
  if (span <= received) return 0.0;
  return static_cast<double>(span - received) / static_cast<double>(span);
}

void SpatialPersonaReceiver::ResetDecoder(std::uint8_t sender) {
  const auto it = remotes_.find(sender);
  if (it == remotes_.end()) return;
  it->second.decoder = semantic::SemanticDecoder();
  it->second.decoder.AttachEngine(engine_, sender);
}

void SpatialPersonaReceiver::AttachEngine(compress::CodecEngine* engine) {
  engine_ = engine;
  for (auto& [sender, remote] : remotes_) remote.decoder.AttachEngine(engine_, sender);
}

std::uint64_t SpatialPersonaReceiver::total_frames_decoded() const {
  std::uint64_t total = 0;
  for (const auto& [id, remote] : remotes_) total += remote.stats.frames_decoded;
  return total;
}

const SpatialPersonaReceiver::RemoteStats& SpatialPersonaReceiver::remote(
    std::uint8_t sender) const {
  static const RemoteStats kEmpty;
  const auto it = remotes_.find(sender);
  return it == remotes_.end() ? kEmpty : it->second.stats;
}

// ---------------------------------------------------------------------------
// VideoPersonaSender
// ---------------------------------------------------------------------------

VideoPersonaSender::VideoPersonaSender(net::Medium* medium, net::NodeId node,
                                       std::uint16_t local_port, net::NodeId dst,
                                       std::uint16_t dst_port, const VcaProfile& profile,
                                       const video::CalibratedRateModel* model,
                                       std::uint32_t ssrc, std::uint64_t seed)
    : medium_(medium),
      node_(node),
      local_port_(local_port),
      dst_(dst),
      dst_port_(dst_port),
      ssrc_(ssrc),
      sender_(medium, node, local_port, dst, dst_port,
              transport::RtpSenderConfig{.payload_type = profile.rtp_payload_type,
                                         .ssrc = ssrc,
                                         .mtu_payload = 1200}),
      profile_(profile),
      model_(model),
      rate_(profile.target_bitrate_bps, profile.video_fps,
            model->QpForTargetBps(profile.target_bitrate_bps, profile.video_fps,
                                  profile.gop_length)),
      rng_(seed) {}

void VideoPersonaSender::Start(net::SimTime until) { Tick(until); }

void VideoPersonaSender::Tick(net::SimTime until) {
  if (medium_->sim().now() >= until) return;
  const bool keyframe = frames_sent_ % static_cast<std::uint64_t>(profile_.gop_length) == 0;
  const int qp = rate_.NextQp();
  const std::size_t bytes = model_->SampleFrameBytes(keyframe, qp, rng_);
  rate_.OnFrameEncoded(bytes);

  std::vector<std::uint8_t> frame(bytes, 0);
  sender_.SendFrame(frame, rtp_timestamp_);
  rtp_timestamp_ += static_cast<std::uint32_t>(90000.0 / profile_.video_fps);
  ++frames_sent_;

  // An RTCP sender report roughly once a second, so receivers can echo the
  // clock back (LSR/DLSR) and we learn the media-path RTT.
  if (frames_sent_ % static_cast<std::uint64_t>(profile_.video_fps) == 1) {
    transport::RtcpSenderReport sr;
    sr.sender_ssrc = ssrc_;
    sr.ntp_ms = static_cast<std::uint32_t>(net::ToMillis(medium_->sim().now()));
    sr.rtp_timestamp = rtp_timestamp_;
    rtcp_scratch_.clear();
    sr.SerializeTo(rtcp_scratch_);
    medium_->SendUdp(node_, local_port_, dst_, dst_port_, rtcp_scratch_);
  }

  medium_->sim().After(static_cast<net::SimTime>(net::kSecond / profile_.video_fps),
                        [this, until] { Tick(until); });
}

void VideoPersonaSender::OnLossFeedback(double loss_rate) {
  rate_.OnTransportFeedback(loss_rate);
}

void VideoPersonaSender::SetRateScale(double scale) {
  rate_.set_ceiling_bps(profile_.target_bitrate_bps * std::max(scale, 0.05));
}

// ---------------------------------------------------------------------------
// AudioSender
// ---------------------------------------------------------------------------

AudioSender::AudioSender(net::Medium* medium, net::NodeId node, std::uint16_t local_port,
                         net::NodeId dst, std::uint16_t dst_port, const VcaProfile& profile,
                         std::uint32_t ssrc, std::uint64_t seed)
    : sim_(&medium->sim()),
      rtp_(std::in_place, medium, node, local_port, dst, dst_port,
           transport::RtpSenderConfig{.payload_type = profile.rtp_payload_type_audio,
                                      .ssrc = ssrc,
                                      .mtu_payload = 1200}),
      source_({}, seed),
      encoder_(audio::AudioCodecConfig{.quality = profile.audio_quality, .dtx = true}) {}

AudioSender::AudioSender(net::Simulator* sim, transport::QuicConnection* conn,
                         std::uint8_t sender_id, int quality, std::uint64_t seed)
    : sim_(sim),
      quic_(conn),
      sender_id_(sender_id),
      source_({}, seed),
      encoder_(audio::AudioCodecConfig{.quality = quality, .dtx = true}) {}

void AudioSender::Start(net::SimTime until) { Tick(until); }

void AudioSender::Tick(net::SimTime until) {
  if (sim_->now() >= until) return;
  const std::vector<std::uint8_t> encoded = encoder_.EncodeFrame(source_.Next());
  if (quic_ != nullptr) {
    std::vector<std::uint8_t> payload;
    payload.reserve(encoded.size() + 3);
    payload.push_back(kRelayTagLocal);
    payload.push_back(sender_id_);
    payload.push_back(kMediaAudio);
    payload.insert(payload.end(), encoded.begin(), encoded.end());
    quic_->SendDatagram(payload);
  } else {
    rtp_->SendFrame(encoded, rtp_timestamp_);
    rtp_timestamp_ += 48000 / 50;  // 20 ms in 48 kHz units
  }
  ++frames_sent_;
  sim_->After(net::Millis(audio::kFrameMs), [this, until] { Tick(until); });
}

// ---------------------------------------------------------------------------
// VideoPersonaReceiver
// ---------------------------------------------------------------------------

VideoPersonaReceiver::VideoPersonaReceiver(net::Medium* medium, net::NodeId node,
                                           std::uint16_t port, net::NodeId feedback_dst,
                                           std::uint16_t feedback_port, std::uint32_t own_ssrc)
    : medium_(medium),
      node_(node),
      port_(port),
      feedback_dst_(feedback_dst),
      feedback_port_(feedback_port),
      own_ssrc_(own_ssrc),
      rtp_(medium, node, port,
           [this](std::uint32_t, std::vector<std::uint8_t>, std::uint32_t, net::SimTime) {
             ++frames_received_;
           }) {
  rtp_.set_rtcp_handler([this](const transport::RtcpReceiverReport& rr) {
    if (rr.source_ssrc != own_ssrc_) return;
    if (rr.lsr_ms != 0) {
      const double now_ms = net::ToMillis(medium_->sim().now());
      own_rtt_ms_ = now_ms - static_cast<double>(rr.lsr_ms) - static_cast<double>(rr.dlsr_ms);
    }
    if (on_own_loss_) on_own_loss_(rr.fraction_lost);
  });
}

void VideoPersonaReceiver::Start(net::SimTime until, net::SimTime interval) {
  medium_->sim().After(interval, [this, until, interval] { SendReports(until, interval); });
}

void VideoPersonaReceiver::SendReports(net::SimTime until, net::SimTime interval) {
  if (medium_->sim().now() >= until) return;
  for (const std::uint32_t ssrc : rtp_.KnownSsrcs()) {
    transport::RtcpReceiverReport rr;
    rr.reporter_ssrc = own_ssrc_;
    rr.source_ssrc = ssrc;
    rr.fraction_lost = rtp_.TakeIntervalLossRate(ssrc);
    const auto [lsr, dlsr] = rtp_.SenderReportEcho(ssrc);
    rr.lsr_ms = lsr;
    rr.dlsr_ms = dlsr;
    rtcp_scratch_.clear();
    rr.SerializeTo(rtcp_scratch_);
    medium_->SendUdp(node_, port_, feedback_dst_, feedback_port_, rtcp_scratch_);
  }
  medium_->sim().After(interval, [this, until, interval] { SendReports(until, interval); });
}

}  // namespace vtp::vca
