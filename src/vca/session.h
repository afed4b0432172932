// Telepresence session orchestration — the system under measurement.
//
// A TelepresenceSession builds the whole world the paper's testbed sees:
// the US backbone, participant hosts behind WiFi-AP access links with
// Wireshark-style captures, the application's server fleet with the
// nearest-to-initiator allocation policy (§4.1), the media pipelines
// (spatial/semantic over QUIC, or 2D video over RTP, with P2P rules), and
// per-participant 90 FPS render loops driven by behavioural scenarios.
//
// Benches configure a session, optionally inject impairments (netem on the
// access links), Run() it, and read the SessionReport.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/stats.h"
#include "netsim/capture.h"
#include "netsim/netem.h"
#include "netsim/network.h"
#include "render/frame_loop.h"
#include "render/lod.h"
#include "render/scenario.h"
#include "transport/adapt.h"
#include "transport/taps.h"
#include "transport/tcp_ping.h"
#include "vca/pipelines.h"
#include "vca/profile.h"
#include "vca/sfu.h"

namespace vtp::vca {

/// One human in the call.
struct Participant {
  std::string name;
  std::string metro;                         ///< net::MetroDb name
  DeviceType device = DeviceType::kVisionPro;
};

/// How servers are allocated to a session.
enum class ServerStrategy {
  kNearestToInitiator,  ///< what all four VCAs do (§4.1)
  kGeoDistributed,      ///< the paper's proposed fix (§4.1/§5): per-client
                        ///< nearest server + private inter-server backbone
};

/// Full experiment configuration.
struct SessionConfig {
  VcaApp app = VcaApp::kFaceTime;
  std::vector<Participant> participants;  ///< [0] initiates the call
  net::SimTime duration = net::Seconds(30);
  std::uint64_t seed = 1;
  ServerStrategy strategy = ServerStrategy::kNearestToInitiator;

  /// Replaces the app's server fleet (e.g. a hypothetical global fleet for
  /// the §5 geo-distributed ablation). Empty = use the profile's metros.
  std::vector<std::string> server_metros_override;

  /// Voice stream alongside the persona media (on, as in any real call).
  bool enable_audio = true;

  // Render side.
  bool enable_render = true;
  render::LodPolicy lod_policy{};
  render::CostModelConfig cost_model{};
  double render_fps = 90.0;
  std::size_t persona_triangles = mesh::kPersonaTriangles;

  // Spatial pipeline.
  double spatial_fps = 90.0;
  semantic::SemanticCodecConfig semantic_codec{};
  bool enable_reconstruction = true;
  std::size_t reconstruct_stride = 9;  ///< deform every Nth decoded frame

  /// XOR-FEC group size for the semantic stream: 0 = off (FaceTime's
  /// measured behaviour), k > 0 adds one parity datagram per k frames (the
  /// loss-resilience extension evaluated in bench_ablation).
  int spatial_fec_k = 0;

  /// Viewport-aware delivery culling (§4.4's unexploited optimization):
  /// receivers unsubscribe out-of-viewport personas at the SFU, so their
  /// semantics are not delivered at all. Off = FaceTime's measured
  /// behaviour (cull at rendering only).
  bool delivery_culling = false;

  /// Adaptive delivery control loop (transport/adapt.*, DESIGN §9). Off =
  /// FaceTime's measured behaviour: no estimator, controller or timer is
  /// built, so the session is event-for-event identical to one without
  /// adaptation (the AdaptOff goldens in test_transport_ext pin this).
  bool adapt = false;

  /// Frame-lifecycle span tracing (obs::FrameTracer) for spatial sessions.
  /// Registry metrics are always on; this arms only the span stamps.
  bool trace_frames = true;
};

/// Per-participant results.
struct ParticipantReport {
  std::string name;
  std::string metro;

  core::Summary uplink_mbps;    ///< 1-second bins over the steady state
  core::Summary downlink_mbps;
  std::string uplink_protocol;  ///< from the capture classifier
  int rtp_payload_type = -1;    ///< dominant PT if RTP, else -1

  // 2D-session QoE (from the RTP/RTCP machinery; zero for spatial).
  double media_rtt_ms = 0;      ///< own media path RTT via SR/RR echo
  double rtp_loss_rate = 0;     ///< aggregate received-loss estimate
  double rtp_jitter_ms = 0;     ///< RFC 3550 interarrival jitter

  core::Summary gpu_ms;         ///< per-frame render cost (spatial only)
  core::Summary cpu_ms;
  core::Summary triangles;
  double deadline_miss_rate = 0;
  double persona_available_fraction = 1.0;
};

/// Whole-session results.
struct SessionReport {
  std::string app;
  PersonaKind persona_kind = PersonaKind::k2d;
  bool p2p = false;
  std::vector<std::string> server_metros;
  std::vector<ParticipantReport> participants;
};

/// The canonical two-party spatial call — SF and NY Vision Pros on FaceTime,
/// reconstruction off so runs isolate delivery. bench_adapt, the
/// poor-connection demo, and impairment tests all start from this config
/// (it used to be duplicated inline at each site).
SessionConfig TwoPartySpatialConfig(net::SimTime duration);

/// Builds, runs, and reports one telepresence session.
class TelepresenceSession {
 public:
  explicit TelepresenceSession(SessionConfig config);
  ~TelepresenceSession();

  TelepresenceSession(const TelepresenceSession&) = delete;
  TelepresenceSession& operator=(const TelepresenceSession&) = delete;

  /// Pre-run hooks for impairment experiments.
  net::Simulator& sim() { return *sim_; }
  net::Network& network() { return *network_; }
  net::Netem UplinkNetem(std::size_t participant);
  net::Netem DownlinkNetem(std::size_t participant);

  /// Runs the session to completion (duration + drain time).
  void Run();

  /// Results (valid after Run()).
  SessionReport BuildReport() const;
  const net::Capture& capture(std::size_t participant) const;
  const render::RenderLoop* render_loop(std::size_t participant) const;
  const SpatialPersonaReceiver* spatial_receiver(std::size_t participant) const;
  /// Pre-run hook, e.g. to detach a receiver from the session's codec
  /// engine for an A/B run.
  SpatialPersonaReceiver* spatial_receiver(std::size_t participant) {
    return participant < spatial_receivers_.size() ? spatial_receivers_[participant].get()
                                                   : nullptr;
  }
  const SpatialPersonaSender* spatial_sender(std::size_t participant) const;
  const VideoPersonaReceiver* video_receiver(std::size_t participant) const;

  /// Uplink adaptation controller for `participant` (SessionConfig::adapt
  /// sessions; nullptr when adaptation is off). Spatial sessions drive the semantic
  /// ladder; 2D sessions drive the video rate-scale ladder.
  const transport::AdaptController* adapt_controller(std::size_t participant) const {
    return participant < adapt_controllers_.size() ? adapt_controllers_[participant].get()
                                                   : nullptr;
  }
  bool adapt_enabled() const { return config_.adapt; }

  /// How often each LOD class was selected across a participant's rendered
  /// frames (indexed by LodClass; valid after Run, spatial sessions only).
  const std::array<std::uint64_t, 5>& lod_histogram(std::size_t participant) const {
    return lod_histograms_.at(participant);
  }

  PersonaKind persona_kind() const { return persona_kind_; }
  bool p2p() const { return p2p_; }
  const std::vector<std::string>& server_metros_used() const { return server_metros_; }
  net::NodeId host(std::size_t participant) const { return hosts_.at(participant); }
  net::NodeId server_node(std::size_t index = 0) const;

  /// The server a participant connects to (throws for P2P sessions).
  net::NodeId assigned_server_node(std::size_t participant) const {
    return server_nodes_.at(assigned_server_.empty() ? 0 : assigned_server_.at(participant));
  }

  /// Ports used by the session (exposed for probes and tests).
  static constexpr std::uint16_t kMediaPort = 7000;
  static constexpr std::uint16_t kQuicServerPort = 4433;
  static constexpr std::uint16_t kQuicClientPortBase = 9000;
  static constexpr std::uint16_t kProbePort = 443;

 private:
  void SetupServers();
  void SetupSpatialPipelines();
  void Setup2dPipelines();
  void SetupRenderLoops();
  void SetupSpatialAdaptation();
  void AdaptTick();
  void CullingTick(std::size_t self);
  void UpdateSubscriberAdapt(net::SimTime now);
  void SendRungRequest(std::size_t participant, std::uint8_t target, bool coarse);

  SessionConfig config_;
  const VcaProfile& profile_;
  PersonaKind persona_kind_;
  bool p2p_;

  std::unique_ptr<net::Simulator> sim_;
  std::unique_ptr<net::Network> network_;

  std::vector<net::NodeId> hosts_;
  std::vector<std::unique_ptr<net::Capture>> captures_;

  std::vector<std::string> server_metros_;
  std::vector<net::NodeId> server_nodes_;
  std::vector<std::unique_ptr<SfuServer>> servers_;
  std::vector<std::unique_ptr<transport::TcpResponder>> responders_;
  std::vector<std::size_t> assigned_server_;  ///< per participant

  // Spatial mode.
  /// Per participant; shared so each persona's reconstruction rig can hold
  /// the ladder's base mesh without a copy.
  std::vector<std::shared_ptr<render::PersonaLodLadder>> ladders_;
  /// Per-participant TAPS connections to their assigned SFU (the façade owns
  /// the underlying QUIC endpoints); quic_conns_ caches the protocol handles
  /// the demux/adapt/subscription machinery needs.
  std::vector<std::unique_ptr<transport::taps::Connection>> connections_;
  std::vector<transport::QuicConnection*> quic_conns_;
  /// Session-shared codec engine: one lzr arena for every spatial sender
  /// and one decode memo for every receiver (metrics under "codec.engine").
  std::unique_ptr<compress::CodecEngine> codec_engine_;
  std::vector<std::unique_ptr<SpatialPersonaSender>> spatial_senders_;
  std::vector<std::unique_ptr<SpatialPersonaReceiver>> spatial_receivers_;

  // 2D mode.
  std::vector<std::unique_ptr<VideoPersonaSender>> video_senders_;
  std::vector<std::unique_ptr<VideoPersonaReceiver>> video_receivers_;

  // Voice (both modes).
  std::vector<std::unique_ptr<AudioSender>> audio_senders_;

  // Render side.
  std::vector<std::unique_ptr<render::SeatedConversation>> scenarios_;
  std::vector<std::unique_ptr<render::RenderLoop>> render_loops_;
  struct AvailabilityCount {
    std::uint64_t samples = 0;
    std::uint64_t unavailable = 0;
  };
  std::vector<AvailabilityCount> availability_;
  std::vector<std::array<std::uint64_t, 5>> lod_histograms_;
  std::vector<std::uint8_t> desired_masks_;  // per participant, delivery culling
  std::vector<std::uint8_t> sent_masks_;
  std::vector<std::vector<std::uint8_t>> remote_ids_;  ///< per participant

  // Adaptive delivery (SessionConfig::adapt).
  std::vector<std::unique_ptr<transport::PathEstimator>> path_estimators_;
  std::vector<std::unique_ptr<transport::AdaptController>> adapt_controllers_;
  /// Per-(subscriber, remote sender) coarse-stream request hysteresis.
  struct SubscriberAdapt {
    bool coarse = false;
    int high_loss_samples = 0;
    net::SimTime low_loss_since = -1;
    net::SimTime last_refresh = 0;
  };
  std::vector<std::map<std::uint8_t, SubscriberAdapt>> subscriber_adapt_;
};

}  // namespace vtp::vca
