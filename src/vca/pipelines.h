// End-to-end media pipelines wired into sessions.
//
//   Spatial persona (FaceTime, all participants on Vision Pro):
//     keypoint capture (90 FPS) -> semantic encode -> QUIC DATAGRAM ->
//     SFU forward -> semantic decode -> base-mesh reconstruction.
//
//   2D persona (everything else):
//     talking-head codec rate model + leaky-bucket rate control ->
//     RTP packetization -> SFU forward (or P2P) -> RTP reassembly,
//     with RTCP receiver reports closing the adaptation loop.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "audio/codec.h"
#include "audio/speech_source.h"
#include "compress/codec_engine.h"
#include "netsim/event_queue.h"
#include "semantic/codec.h"
#include "semantic/generator.h"
#include "semantic/reconstruct.h"
#include "transport/fec.h"
#include "transport/quic.h"
#include "transport/rtp.h"
#include "vca/profile.h"
#include "vca/sfu.h"
#include "video/rate_control.h"
#include "video/rate_model.h"

namespace vtp::vca {

/// Media-type byte inside the spatial session's datagram wrapper
/// ([relay_tag][sender_id][media_type][payload]).
inline constexpr std::uint8_t kMediaSemantic = 0;
inline constexpr std::uint8_t kMediaAudio = 1;
inline constexpr std::uint8_t kMediaSemanticFec = 2;  ///< FEC-framed semantics
/// Control message from a receiver to its SFU: byte 3 is a bitmask of
/// sender ids whose *semantic* stream this receiver wants delivered
/// (viewport-aware delivery culling, the §4.4 extension). Audio is always
/// delivered. Never forwarded to other participants.
inline constexpr std::uint8_t kMediaSubscription = 3;
/// Per-subscriber adaptation control (VTP_ADAPT): body is
/// [target_sender_id][rung] where rung 0 = full stream, nonzero = coarse
/// alternate stream. Client -> SFU: "deliver me `target`'s semantics at
/// this rung". SFU -> sender (on the sender's own connection): "at least
/// one subscriber wants your coarse stream" (aggregate, same encoding).
/// Never forwarded to other participants.
inline constexpr std::uint8_t kMediaAdaptCtrl = 4;
/// Coarse-rung alternate semantic stream (simulcast-lite). Encoded
/// standalone per frame (no temporal chain) so a subscriber can switch onto
/// it at any packet; frame indices are in lockstep with the primary stream.
inline constexpr std::uint8_t kMediaSemanticAlt = 5;
/// Freeze-frame semantic stream: the ladder's last rung ships standalone
/// frames at 1/kFreezeStride of the capture rate. The distinct media byte
/// tells receivers to judge stream health against the advertised freeze
/// cadence — the persona is presented frozen-but-present instead of being
/// torn down like the non-adaptive cliff.
inline constexpr std::uint8_t kMediaSemanticFreeze = 6;

/// Freeze mode ships every Nth captured frame. Frame indices still advance
/// at the capture rate, so content lag stays measurable across the gap.
inline constexpr std::uint64_t kFreezeStride = 9;

/// One rung of the semantic rate ladder: the codec config plus the rough
/// per-frame wire size used for the controller's nominal-rate matching.
struct SemanticRung {
  semantic::SemanticCodecConfig codec;
  double approx_frame_bytes = 0;
  const char* name = "";
};

/// The ~5x degradation ladder the paper's discussion motivates (§4.3d):
/// rung 0 is the measured float32+LZ scheme, deeper rungs trade precision
/// for rate. Rung 1 (q12 spatial-delta) doubles as the simulcast coarse
/// stream because its frames decode standalone.
const std::vector<SemanticRung>& DefaultSemanticLadder();

/// Captures keypoints and ships semantic frames over a QUIC connection.
class SpatialPersonaSender {
 public:
  /// `fec_k` > 0 protects the semantic stream with XOR parity every k
  /// frames (the loss-resilience extension the paper's findings motivate);
  /// 0 reproduces FaceTime's measured unprotected behaviour.
  /// `engine` (optional) routes this sender's LZ stage through a
  /// session-shared compress::CodecEngine — one warm arena for every
  /// persona, with engine-level metrics registered by the session. When
  /// null the sender embeds its own lzr state and registers the per-sender
  /// lzr probes (the seeded behaviour, kept for standalone constructions).
  SpatialPersonaSender(net::Simulator* sim, transport::QuicConnection* conn,
                       std::uint8_t sender_id, std::uint64_t seed,
                       semantic::SemanticCodecConfig codec_config = {}, double fps = 90.0,
                       int fec_k = 0, compress::CodecEngine* engine = nullptr);

  /// Starts ticking now and stops at `until`.
  void Start(net::SimTime until);

  /// Arms the adaptive-delivery hooks (VTP_ADAPT sessions only): the rung
  /// ladder ApplyLevel() indexes into, and the FEC group size used when a
  /// level enables FEC. Without this call the sender behaves exactly as
  /// seeded (no keyframe cadence, no freeze path, no simulcast).
  void ConfigureAdaptive(std::vector<semantic::SemanticCodecConfig> rungs, int fec_k);

  /// Applies one controller decision: switch the encoder to `rung` (the
  /// first frame after a switch encodes standalone, so decoders follow
  /// without resync), enable/disable FEC, and enter/leave freeze mode
  /// (ship only every 9th frame, each standalone, ~10 fps).
  void ApplyLevel(int rung, bool fec_on, bool freeze);

  /// SFU aggregate notification: at least one subscriber wants the coarse
  /// alternate stream. Simulcast is suppressed while the sender itself is
  /// degraded (rung > 0 or frozen) — the uplink has no headroom for two
  /// streams then, and the primary is already coarse.
  void SetCoarseEnabled(bool on);

  /// Routes a kMediaAdaptCtrl datagram from the SFU ([.., target, rung]).
  void OnAdaptCtrl(std::span<const std::uint8_t> data);

  int current_rung() const { return rung_; }
  bool frozen() const { return freeze_; }
  bool fec_enabled() const { return fec_.has_value() && fec_enabled_; }
  bool coarse_enabled() const { return coarse_enabled_; }

  /// Back-compat views of the "persona.tx<N>" registry counters.
  std::uint64_t frames_sent() const { return frames_sent_->value(); }
  std::uint64_t payload_bytes_sent() const { return payload_bytes_sent_->value(); }
  std::uint64_t fec_parity_bytes_sent() const { return fec_parity_bytes_->value(); }

 private:
  void Tick(net::SimTime until);
  void Ship(std::uint8_t media, std::span<const std::uint8_t> body);

  net::Simulator* sim_;
  transport::QuicConnection* conn_;
  std::uint8_t sender_id_;
  double fps_;
  semantic::KeypointTrackGenerator generator_;
  semantic::SemanticEncoder encoder_;
  compress::CodecEngine* engine_ = nullptr;  ///< session-shared LZ stage (optional)
  std::vector<std::uint8_t> encode_scratch_;  // reused per-frame encode buffer
  std::optional<transport::FecEncoder> fec_;

  // Adaptive-delivery state (inert until ConfigureAdaptive).
  bool adaptive_ = false;
  std::vector<semantic::SemanticCodecConfig> rungs_;
  int rung_ = 0;
  bool fec_enabled_ = true;   ///< effective only when fec_ exists
  bool freeze_ = false;
  std::uint64_t frames_since_key_ = 0;
  bool coarse_enabled_ = false;
  std::optional<semantic::SemanticEncoder> coarse_encoder_;
  std::vector<std::uint8_t> coarse_scratch_;

  obs::Counter* frames_sent_ = nullptr;
  obs::Counter* payload_bytes_sent_ = nullptr;
  obs::Counter* fec_parity_bytes_ = nullptr;
};

/// Decodes semantic frames from every remote sender; optionally reconstructs
/// the persona mesh; tracks per-sender availability.
///
/// Availability models FaceTime's "poor connection" policy (§4.3): a
/// persona is shown only while its semantic stream is *healthy* —
///   1. a decodable frame arrived within kAvailabilityTimeout,
///   2. the decoded frame rate over the last second is at least
///      kMinRateFraction of the stream's advertised rate — the nominal
///      capture rate normally, or the freeze cadence while the sender is
///      on the kMediaSemanticFreeze rung (a frozen persona is degraded,
///      not gone; only the non-adaptive cliff tears it down), and
///   3. content is not stale: the newest frame's index keeps pace with
///      wall-clock time (a rate-capped uplink queues packets, so frames
///      arrive increasingly late — the paper's <700 Kbps cliff).
class SpatialPersonaReceiver {
 public:
  static constexpr net::SimTime kAvailabilityTimeout = net::Seconds(1);
  static constexpr double kMinRateFraction = 0.7;
  static constexpr net::SimTime kMaxContentLag = net::Millis(400);

  struct RemoteStats {
    std::uint64_t frames_decoded = 0;
    std::uint64_t decode_failures = 0;
    net::SimTime last_frame_time = -net::Seconds(3600);
    std::uint64_t last_frame_index = 0;
    std::uint64_t audio_frames = 0;
  };

  /// `rigs` maps sender id -> that persona's reconstruction rig (senders
  /// without an entry are not reconstructed). A session hands every
  /// receiver of one persona the same LazyRig, so the rig is built once.
  /// `reconstruct_stride` applies the deformation on every Nth decoded
  /// frame (measurement sampling; availability accounting sees every frame).
  /// `engine` (optional) routes every decoder's LZ stage through a
  /// session-shared compress::CodecEngine, whose memo decodes each relayed
  /// body once for all receivers. The engine must outlive this receiver.
  SpatialPersonaReceiver(net::Simulator* sim,
                         std::map<std::uint8_t, std::shared_ptr<semantic::LazyRig>> rigs,
                         std::size_t reconstruct_stride = 9, double nominal_fps = 90.0,
                         compress::CodecEngine* engine = nullptr);

  /// Same, with a rig of this receiver's own per base mesh in `bases`
  /// (pass nullptr meshes or an empty map to skip reconstruction). The
  /// meshes must outlive this receiver.
  SpatialPersonaReceiver(net::Simulator* sim,
                         std::map<std::uint8_t, const mesh::TriangleMesh*> bases,
                         std::size_t reconstruct_stride = 9, double nominal_fps = 90.0,
                         compress::CodecEngine* engine = nullptr);

  /// Feeds one received QUIC datagram (with the relay-tag wrapper).
  void OnDatagram(std::span<const std::uint8_t> data);

  /// True if `sender`'s persona stream is currently healthy (see above).
  bool PersonaAvailable(std::uint8_t sender, net::SimTime now) const;

  /// Downlink loss estimate for `sender`'s semantic stream over the last
  /// second, from gaps in the arriving frame-index sequence (frame indices
  /// are contiguous at the sender, so span - arrivals = losses). Feeds the
  /// per-subscriber adaptation loop; returns 1.0 when a started stream has
  /// gone silent, 0.0 before the stream starts.
  double DownlinkLossEstimate(std::uint8_t sender, net::SimTime now) const;

  /// Drops `sender`'s decoder state (rung-switch resync: the next
  /// standalone frame restarts the temporal chain cleanly instead of
  /// delta-decoding against a mismatched quantization grid). The fresh
  /// decoder stays on the shared engine.
  void ResetDecoder(std::uint8_t sender);

  /// Routes decoders created from now on, and every existing one, through
  /// `engine`; nullptr detaches them (each decodes its own copy).
  void AttachEngine(compress::CodecEngine* engine);

  const RemoteStats& remote(std::uint8_t sender) const;
  std::size_t known_senders() const { return remotes_.size(); }

  /// Semantic frames decoded across every remote sender (the `vtp client`
  /// end-to-end delivery gate).
  std::uint64_t total_frames_decoded() const;

  /// This participant's own sender id, used only to label completed frame
  /// spans in the tracer (sessions set it; standalone receivers may not).
  void set_self_id(std::uint8_t id) { self_id_ = id; }

 private:
  struct Remote {
    semantic::SemanticDecoder decoder;
    std::unique_ptr<semantic::PersonaReconstructor> reconstructor;
    std::unique_ptr<transport::FecDecoder> fec;
    std::shared_ptr<semantic::LazyRig> rig;  ///< null: not reconstructed
    RemoteStats stats;
    std::uint64_t decoded_since_reconstruct = 0;
    std::deque<net::SimTime> recent_decodes;      // decode times, last second
    // Arrival log (time, frame index) over the last second, pre-decode —
    // the per-subscriber loss estimator's input.
    std::deque<std::pair<net::SimTime, std::uint64_t>> recent_arrivals;
    net::SimTime first_decode_time = 0;
    std::uint64_t first_frame_index = 0;
    bool saw_first = false;
    // Stream mode of the newest decoded frame: true while the sender is on
    // the freeze rung. Flips re-arm a one-second rate-check grace period
    // (the decode-rate window still holds the previous cadence).
    bool freeze_mode = false;
    net::SimTime mode_changed_at = -net::Seconds(3600);
  };

  void ProcessSemantic(std::uint8_t sender, Remote& remote,
                       std::span<const std::uint8_t> payload, bool freeze);

  net::Simulator* sim_;
  std::map<std::uint8_t, std::shared_ptr<semantic::LazyRig>> rigs_;
  std::size_t reconstruct_stride_;
  double nominal_fps_;
  compress::CodecEngine* engine_ = nullptr;  ///< session-shared LZ stage (optional)
  std::uint8_t self_id_ = 0xFF;  ///< 0xFF = unset (spans keep receiver 0xFF)
  std::map<std::uint8_t, Remote> remotes_;
};

/// 2D-persona sender: rate-controlled frame sizes from the calibrated codec
/// model, packetized over RTP toward one destination (SFU or peer).
class VideoPersonaSender {
 public:
  VideoPersonaSender(net::Medium* medium, net::NodeId node, std::uint16_t local_port,
                     net::NodeId dst, std::uint16_t dst_port, const VcaProfile& profile,
                     const video::CalibratedRateModel* model, std::uint32_t ssrc,
                     std::uint64_t seed);

  void Start(net::SimTime until);

  /// RTCP loss feedback from any receiver of this stream.
  void OnLossFeedback(double loss_rate);

  /// Adaptive-delivery hook ("coarsen video rate model"): scales the rate
  /// ceiling relative to the profile target; 1.0 restores full quality.
  void SetRateScale(double scale);

  double current_target_bps() const { return rate_.target_bps(); }
  std::uint64_t frames_sent() const { return frames_sent_; }

 private:
  void Tick(net::SimTime until);

  net::Medium* medium_;
  net::NodeId node_;
  std::uint16_t local_port_;
  net::NodeId dst_;
  std::uint16_t dst_port_;
  std::uint32_t ssrc_;
  transport::RtpSender sender_;
  const VcaProfile& profile_;
  const video::CalibratedRateModel* model_;
  video::RateController rate_;
  net::Rng rng_;
  std::uint64_t frames_sent_ = 0;
  std::uint32_t rtp_timestamp_ = 0;
  std::vector<std::uint8_t> rtcp_scratch_;  // reused across periodic SRs
};

/// Voice sender: synthetic conversational speech through the real audio
/// codec, 50 frames/s. Over RTP toward an SFU/peer (2D sessions) or as
/// QUIC datagrams on the session connection (spatial sessions).
class AudioSender {
 public:
  /// RTP flavour (2D sessions); shares the media port with the video SSRC.
  AudioSender(net::Medium* medium, net::NodeId node, std::uint16_t local_port,
              net::NodeId dst, std::uint16_t dst_port, const VcaProfile& profile,
              std::uint32_t ssrc, std::uint64_t seed);

  /// QUIC-datagram flavour (spatial sessions).
  AudioSender(net::Simulator* sim, transport::QuicConnection* conn, std::uint8_t sender_id,
              int quality, std::uint64_t seed);

  void Start(net::SimTime until);

  std::uint64_t frames_sent() const { return frames_sent_; }

 private:
  void Tick(net::SimTime until);

  net::Simulator* sim_;
  std::optional<transport::RtpSender> rtp_;
  transport::QuicConnection* quic_ = nullptr;
  std::uint8_t sender_id_ = 0;
  audio::SpeechSource source_;
  audio::AudioEncoder encoder_;
  std::uint64_t frames_sent_ = 0;
  std::uint32_t rtp_timestamp_ = 0;
};

/// 2D-persona receiver: RTP reassembly plus periodic RTCP receiver reports
/// (loss feedback routed back through the SFU or directly to the peer).
class VideoPersonaReceiver {
 public:
  VideoPersonaReceiver(net::Medium* medium, net::NodeId node, std::uint16_t port,
                       net::NodeId feedback_dst, std::uint16_t feedback_port,
                       std::uint32_t own_ssrc);

  /// Starts the RTCP report timer (every `interval`) until `until`.
  void Start(net::SimTime until, net::SimTime interval = net::Seconds(1));

  transport::RtpReceiver& rtp() { return rtp_; }
  const transport::RtpReceiver& rtp() const { return rtp_; }
  std::uint64_t frames_received() const { return frames_received_; }

  /// Round-trip time of this participant's own media path (sender SR ->
  /// peer RR echo), in ms; 0 until the first echo arrives.
  double own_path_rtt_ms() const { return own_rtt_ms_; }

  /// Invoked when an RTCP RR for `own_ssrc` comes back (sender side wiring).
  void set_on_own_loss_report(std::function<void(double)> fn) { on_own_loss_ = std::move(fn); }

 private:
  void SendReports(net::SimTime until, net::SimTime interval);

  net::Medium* medium_;
  net::NodeId node_;
  std::uint16_t port_;
  net::NodeId feedback_dst_;
  std::uint16_t feedback_port_;
  std::uint32_t own_ssrc_;
  transport::RtpReceiver rtp_;
  std::uint64_t frames_received_ = 0;
  double own_rtt_ms_ = 0;
  std::function<void(double)> on_own_loss_;
  std::vector<std::uint8_t> rtcp_scratch_;  // reused across periodic RRs
};

}  // namespace vtp::vca
