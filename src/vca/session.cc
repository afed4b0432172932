#include "vca/session.h"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.h"
#include "transport/classifier.h"

namespace vtp::vca {

namespace {

/// Warm-up excluded from throughput accounting (handshakes, ramp-up).
constexpr net::SimTime kWarmup = net::Seconds(3);

std::vector<DeviceType> Devices(const std::vector<Participant>& participants) {
  std::vector<DeviceType> devices;
  devices.reserve(participants.size());
  for (const Participant& p : participants) devices.push_back(p.device);
  return devices;
}

// --- Adaptive-delivery ladders (SessionConfig::adapt, DESIGN §9) -----------------------

/// Approximate wire rate of a semantic rung: framed payload plus per-frame
/// wrapper/QUIC overhead at `fps`, plus the always-on audio stream.
double SemanticNominalBps(double frame_bytes, double fps) {
  constexpr double kPerFrameOverheadBytes = 50;  // wrapper + QUIC + UDP/IP
  constexpr double kAudioBps = 50e3;
  return (frame_bytes + kPerFrameOverheadBytes) * 8.0 * fps + kAudioBps;
}

/// The 7-level spatial degradation ladder: drop FEC, then coarsen through
/// the semantic rate ladder, then freeze-frame (~10 fps standalone frames).
std::vector<transport::AdaptLevel> BuildSpatialLevels(double fps, int fec_k) {
  const std::vector<SemanticRung>& ladder = DefaultSemanticLadder();
  std::vector<transport::AdaptLevel> levels;
  const double fec_factor = 1.0 + 1.0 / static_cast<double>(fec_k);
  levels.push_back({0, true, false,
                    SemanticNominalBps(ladder[0].approx_frame_bytes * fec_factor, fps),
                    std::string(ladder[0].name) + "+fec"});
  for (std::size_t r = 0; r < ladder.size(); ++r) {
    levels.push_back({static_cast<int>(r), false, false,
                      SemanticNominalBps(ladder[r].approx_frame_bytes, fps),
                      ladder[r].name});
  }
  // Freeze: every kFreezeStride-th frame, each standalone (larger than a
  // temporal delta).
  const double freeze_frame_bytes = ladder.back().approx_frame_bytes * 1.8;
  levels.push_back({static_cast<int>(ladder.size() - 1), false, true,
                    SemanticNominalBps(freeze_frame_bytes,
                                       fps / static_cast<double>(kFreezeStride)),
                    "freeze"});
  return levels;
}

/// The 2D ladder maps levels onto video rate-control ceilings: `rung`
/// indexes kVideoScales and `freeze` marks the bottom (slideshow) level.
constexpr double kVideoScales[] = {1.0, 0.7, 0.5, 0.35, 0.25, 0.12};

std::vector<transport::AdaptLevel> BuildVideoLevels(double target_bps) {
  constexpr const char* kNames[] = {"video-100", "video-70",  "video-50",
                                    "video-35",  "video-25",  "video-slideshow"};
  std::vector<transport::AdaptLevel> levels;
  for (int r = 0; r < 6; ++r) {
    levels.push_back({r, false, r == 5, target_bps * kVideoScales[r] + 50e3, kNames[r]});
  }
  return levels;
}

// Subscriber-side coarse-request hysteresis (per remote sender).
constexpr double kCoarseEnterLoss = 0.08;   ///< two consecutive samples above
constexpr double kCoarseExitLoss = 0.02;    ///< sustained below, for...
constexpr net::SimTime kCoarseExitHold = net::Seconds(3);
constexpr net::SimTime kCoarseRefresh = net::Seconds(1);

}  // namespace

SessionConfig TwoPartySpatialConfig(net::SimTime duration) {
  SessionConfig config;
  config.participants = {
      {.name = "U1", .metro = "SanFrancisco", .device = DeviceType::kVisionPro},
      {.name = "U2", .metro = "NewYork", .device = DeviceType::kVisionPro}};
  config.duration = duration;
  config.enable_reconstruction = false;
  return config;
}

TelepresenceSession::TelepresenceSession(SessionConfig config)
    : config_(std::move(config)),
      profile_(GetProfile(config_.app)),
      persona_kind_(SessionPersonaKind(config_.app, Devices(config_.participants))),
      p2p_(SessionUsesP2p(config_.app, Devices(config_.participants))) {
  if (config_.participants.size() < 2) {
    throw std::invalid_argument("a session needs at least two participants");
  }
  if (persona_kind_ == PersonaKind::kSpatial &&
      config_.participants.size() > profile_.max_spatial_personas) {
    throw std::invalid_argument("FaceTime supports at most five spatial personas (§4.5)");
  }

  sim_ = std::make_unique<net::Simulator>(config_.seed);
  network_ = std::make_unique<net::Network>(sim_.get());
  network_->BuildBackbone();

  for (std::size_t i = 0; i < config_.participants.size(); ++i) {
    hosts_.push_back(network_->AddHost(config_.participants[i].name,
                                       config_.participants[i].metro));
  }

  SetupServers();
  network_->ComputeRoutes();

  // Wireshark at each participant's AP (§3.2): tap the access link.
  for (const net::NodeId host : hosts_) {
    auto capture = std::make_unique<net::Capture>();
    capture->AttachToLink(*network_, host, network_->AccessRouter(host));
    captures_.push_back(std::move(capture));
  }

  if (persona_kind_ == PersonaKind::kSpatial) {
    SetupSpatialPipelines();
    if (config_.enable_render) SetupRenderLoops();
  } else {
    Setup2dPipelines();
  }
}

TelepresenceSession::~TelepresenceSession() = default;

void TelepresenceSession::SetupServers() {
  if (p2p_) return;  // no server in the data path

  const TransportKind kind = persona_kind_ == PersonaKind::kSpatial
                                 ? TransportKind::kQuicDatagram
                                 : TransportKind::kRtp;

  const auto add_server = [&](std::string_view metro) -> std::size_t {
    server_metros_.emplace_back(metro);
    const net::NodeId node =
        network_->AddHost("server." + std::string(metro), metro, /*access_rate_bps=*/10e9,
                          /*access_delay=*/net::Micros(200));
    server_nodes_.push_back(node);
    return server_nodes_.size() - 1;
  };

  std::vector<std::string_view> fleet(profile_.server_metros.begin(),
                                      profile_.server_metros.end());
  if (!config_.server_metros_override.empty()) {
    fleet.assign(config_.server_metros_override.begin(), config_.server_metros_override.end());
  }

  const auto nearest_metro = [&](const std::string& from_metro) -> std::string_view {
    const net::GeoPoint from = net::MetroDb()[net::MetroIndex(from_metro)].location;
    std::string_view best = fleet.front();
    double best_km = 1e18;
    for (const std::string_view metro : fleet) {
      const double km =
          net::HaversineKm(from, net::MetroDb()[net::MetroIndex(metro)].location);
      if (km < best_km) {
        best_km = km;
        best = metro;
      }
    }
    return best;
  };

  if (config_.strategy == ServerStrategy::kNearestToInitiator) {
    // §4.1: every VCA assigns the single session server closest to the
    // *initiating* user, wherever the others are.
    add_server(nearest_metro(config_.participants.front().metro));
    assigned_server_.assign(config_.participants.size(), 0);
  } else {
    // Geo-distributed (the paper's proposed fix): each participant uses its
    // nearest server; servers interconnect over a private backbone.
    assigned_server_.clear();
    for (const Participant& p : config_.participants) {
      const std::string_view metro = nearest_metro(p.metro);
      auto it = std::find(server_metros_.begin(), server_metros_.end(), metro);
      if (it == server_metros_.end()) {
        assigned_server_.push_back(add_server(metro));
      } else {
        assigned_server_.push_back(static_cast<std::size_t>(it - server_metros_.begin()));
      }
    }
    // Private backbone: direct high-capacity links between the servers.
    for (std::size_t i = 0; i < server_nodes_.size(); ++i) {
      for (std::size_t j = i + 1; j < server_nodes_.size(); ++j) {
        net::LinkConfig cfg;
        cfg.rate_bps = 100e9;
        cfg.prop_delay = 0;  // derive from geography (single direct hop)
        network_->Connect(server_nodes_[i], server_nodes_[j], cfg);
      }
    }
  }

  for (std::size_t s = 0; s < server_nodes_.size(); ++s) {
    servers_.push_back(
        std::make_unique<SfuServer>(network_.get(), server_nodes_[s], kQuicServerPort, kind));
    responders_.push_back(
        std::make_unique<transport::TcpResponder>(network_.get(), server_nodes_[s], kProbePort));
  }
}

void TelepresenceSession::SetupSpatialPipelines() {
  const std::size_t n = config_.participants.size();

  // Frame-lifecycle tracing (SessionConfig::trace_frames). Capacity covers
  // every (sender, receiver) frame pair for the whole run plus 20% slack so
  // the tracer never reallocates mid-session; overflow is counted, not grown.
  if (config_.trace_frames) {
    const double frames = net::ToSeconds(config_.duration) * config_.spatial_fps;
    const std::size_t pairs = n * (n - 1);
    sim_->tracer().Enable(
        static_cast<std::size_t>(frames * static_cast<double>(pairs) * 1.2) + 64);
  }

  // Pre-captured persona (enrollment) and its LOD ladder, per participant.
  // Each persona's reconstruction rig is shared by all its receivers and
  // built on the first reconstruct, so setup does not pay for it.
  std::vector<std::shared_ptr<semantic::LazyRig>> rigs;
  for (std::size_t i = 0; i < n; ++i) {
    auto ladder = std::make_shared<render::PersonaLodLadder>(
        config_.seed * 1000 + i, config_.lod_policy, config_.persona_triangles);
    rigs.push_back(std::make_shared<semantic::LazyRig>(
        std::shared_ptr<const mesh::TriangleMesh>(ladder, &ladder->base())));
    ladders_.push_back(std::move(ladder));
  }

  // One codec engine for the whole session: every spatial sender's LZ
  // stage shares a single warm match-finder arena, and every receiver's LZ
  // decode goes through its memo, so each relayed body is decoded once.
  // Engine-level counters surface in snapshots under "codec.engine".
  codec_engine_ = std::make_unique<compress::CodecEngine>();
  {
    obs::MetricRegistry& reg = sim_->metrics();
    compress::CodecEngine* eng = codec_engine_.get();
    reg.NewProbe("codec.engine.frames",
                 [eng] { return static_cast<double>(eng->stats().frames); });
    reg.NewProbe("codec.engine.bytes_in",
                 [eng] { return static_cast<double>(eng->stats().bytes_in); });
    reg.NewProbe("codec.engine.bytes_out",
                 [eng] { return static_cast<double>(eng->stats().bytes_out); });
    reg.NewProbe("codec.engine.decode_hits",
                 [eng] { return static_cast<double>(eng->stats().decode_hits); });
    reg.NewProbe("codec.engine.decode_misses",
                 [eng] { return static_cast<double>(eng->stats().decode_misses); });
  }

  // Connect everyone to their assigned server; peer-connect servers after
  // construction (geo-distributed mode).
  if (config_.strategy == ServerStrategy::kGeoDistributed && servers_.size() > 1) {
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      for (std::size_t j = i + 1; j < servers_.size(); ++j) {
        servers_[i]->ConnectPeerServer(server_nodes_[j], kQuicServerPort);
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t server = assigned_server_.empty() ? 0 : assigned_server_[i];
    auto connection =
        transport::taps::Preconnection{}
            .WithLocal({hosts_[i], static_cast<std::uint16_t>(kQuicClientPortBase + i)})
            .WithRemote({server_nodes_.at(server), kQuicServerPort})
            .Initiate(*network_);
    transport::QuicConnection* conn = connection->quic();
    quic_conns_.push_back(conn);
    connections_.push_back(std::move(connection));

    // Receiver: reconstruct every other participant's persona.
    std::map<std::uint8_t, std::shared_ptr<semantic::LazyRig>> remote_rigs;
    std::vector<std::uint8_t> remote_ids;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      remote_ids.push_back(static_cast<std::uint8_t>(j));
      if (config_.enable_reconstruction) remote_rigs[static_cast<std::uint8_t>(j)] = rigs[j];
    }
    remote_ids_.push_back(std::move(remote_ids));
    auto receiver = std::make_unique<SpatialPersonaReceiver>(
        sim_.get(), std::move(remote_rigs), config_.reconstruct_stride, config_.spatial_fps,
        codec_engine_.get());
    receiver->set_self_id(static_cast<std::uint8_t>(i));
    if (config_.adapt) {
      // Demux: SFU coarse-stream notifications route to the sender (created
      // below — looked up at dispatch time), media to the receiver.
      conn->set_on_datagram(
          [this, i, rx = receiver.get()](std::span<const std::uint8_t> data) {
            if (data.size() >= 5 && data[2] == kMediaAdaptCtrl) {
              if (i < spatial_senders_.size() && spatial_senders_[i]) {
                spatial_senders_[i]->OnAdaptCtrl(data);
              }
              return;
            }
            rx->OnDatagram(data);
          });
    } else {
      conn->set_on_datagram([rx = receiver.get()](std::span<const std::uint8_t> data) {
        rx->OnDatagram(data);
      });
    }
    spatial_receivers_.push_back(std::move(receiver));

    auto sender = std::make_unique<SpatialPersonaSender>(
        sim_.get(), conn, static_cast<std::uint8_t>(i), config_.seed * 77 + i,
        config_.semantic_codec, config_.spatial_fps, config_.spatial_fec_k,
        codec_engine_.get());
    spatial_senders_.push_back(std::move(sender));

    if (config_.enable_audio) {
      audio_senders_.push_back(std::make_unique<AudioSender>(
          sim_.get(), conn, static_cast<std::uint8_t>(i), profile_.audio_quality,
          config_.seed * 53 + i));
    }
  }

  // Start capture/encode after the handshakes settle.
  sim_->After(net::Millis(300), [this] {
    for (auto& sender : spatial_senders_) sender->Start(config_.duration);
    for (auto& sender : audio_senders_) sender->Start(config_.duration);
  });

  if (config_.adapt) SetupSpatialAdaptation();
}

void TelepresenceSession::SetupSpatialAdaptation() {
  const std::size_t n = config_.participants.size();
  const int fec_k = config_.spatial_fec_k > 0 ? config_.spatial_fec_k : 4;
  const std::vector<transport::AdaptLevel> levels =
      BuildSpatialLevels(config_.spatial_fps, fec_k);

  std::vector<semantic::SemanticCodecConfig> rungs;
  for (const SemanticRung& rung : DefaultSemanticLadder()) rungs.push_back(rung.codec);

  subscriber_adapt_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    spatial_senders_[i]->ConfigureAdaptive(rungs, fec_k);
    path_estimators_.push_back(std::make_unique<transport::PathEstimator>());
    adapt_controllers_.push_back(std::make_unique<transport::AdaptController>(
        sim_.get(), levels, transport::AdaptConfig{},
        "adapt.tx" + std::to_string(i)));
  }

  sim_->After(net::Millis(500), [this] { AdaptTick(); });
}

// The 200 ms control tick: sample each uplink's transport counters, run the
// controller, apply level changes, and drive the per-subscriber coarse-stream
// requests.
void TelepresenceSession::AdaptTick() {
  if (sim_->now() >= config_.duration) return;
  const net::SimTime now = sim_->now();
  for (std::size_t i = 0; i < quic_conns_.size(); ++i) {
    const transport::QuicStats st = quic_conns_[i]->stats();
    path_estimators_[i]->OnCounters(st.bytes_sent, st.packets_sent, st.packets_declared_lost,
                                    st.smoothed_rtt_ms, now);
    if (adapt_controllers_[i]->Update(path_estimators_[i]->estimate(), now)) {
      const transport::AdaptLevel& spec = adapt_controllers_[i]->level_spec();
      spatial_senders_[i]->ApplyLevel(spec.rung, spec.fec, spec.freeze);
    }
  }
  UpdateSubscriberAdapt(now);
  sim_->After(net::Millis(200), [this] { AdaptTick(); });
}

void TelepresenceSession::SendRungRequest(std::size_t participant, std::uint8_t target,
                                          bool coarse) {
  const std::vector<std::uint8_t> msg{kRelayTagLocal,
                                      static_cast<std::uint8_t>(participant),
                                      kMediaAdaptCtrl, target,
                                      static_cast<std::uint8_t>(coarse ? 1 : 0)};
  quic_conns_[participant]->SendDatagram(msg);
}

void TelepresenceSession::UpdateSubscriberAdapt(net::SimTime now) {
  for (std::size_t i = 0; i < spatial_receivers_.size(); ++i) {
    for (const std::uint8_t j : remote_ids_[i]) {
      // A delivery-culled persona has no stream to measure (silence would
      // read as 100% loss).
      if (config_.delivery_culling && i < desired_masks_.size() &&
          (desired_masks_[i] & (1u << j)) == 0) {
        continue;
      }
      const double loss = spatial_receivers_[i]->DownlinkLossEstimate(j, now);
      SubscriberAdapt& s = subscriber_adapt_[i][j];
      if (!s.coarse) {
        if (loss > kCoarseEnterLoss) {
          if (++s.high_loss_samples >= 2) {
            s.coarse = true;
            s.high_loss_samples = 0;
            s.low_loss_since = -1;
            s.last_refresh = now;
            SendRungRequest(i, j, /*coarse=*/true);
            spatial_receivers_[i]->ResetDecoder(j);
          }
        } else {
          s.high_loss_samples = 0;
        }
      } else {
        if (loss < kCoarseExitLoss) {
          if (s.low_loss_since < 0) s.low_loss_since = now;
          if (now - s.low_loss_since >= kCoarseExitHold) {
            s.coarse = false;
            s.low_loss_since = -1;
            SendRungRequest(i, j, /*coarse=*/false);
            spatial_receivers_[i]->ResetDecoder(j);
            continue;
          }
        } else {
          s.low_loss_since = -1;
        }
        // Refresh while coarse: the SFU's mask survives lost datagrams.
        if (now - s.last_refresh >= kCoarseRefresh) {
          s.last_refresh = now;
          SendRungRequest(i, j, /*coarse=*/true);
        }
      }
    }
  }
}

void TelepresenceSession::Setup2dPipelines() {
  const std::size_t n = config_.participants.size();
  const video::CalibratedRateModel& model =
      video::CalibratedRateModel::For(profile_.persona_resolution);

  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t ssrc = 0x5000 + static_cast<std::uint32_t>(i);
    net::NodeId dst;
    std::uint16_t dst_port;
    if (p2p_) {
      const std::size_t peer = i == 0 ? 1 : 0;
      dst = hosts_[peer];
      dst_port = kMediaPort;
    } else {
      const std::size_t server = assigned_server_.empty() ? 0 : assigned_server_[i];
      dst = server_nodes_.at(server);
      dst_port = kQuicServerPort;  // the SFU's single media port
      servers_[server]->AddRtpMember(hosts_[i], kMediaPort);
    }

    auto receiver = std::make_unique<VideoPersonaReceiver>(network_.get(), hosts_[i],
                                                           kMediaPort, dst, dst_port, ssrc);
    auto sender = std::make_unique<VideoPersonaSender>(network_.get(), hosts_[i], kMediaPort,
                                                       dst, dst_port, profile_, &model, ssrc,
                                                       config_.seed * 131 + i);
    if (config_.adapt) {
      // The RTCP RR loss report (1/s) doubles as the estimator feed; levels
      // map onto rate-control ceiling scales ("coarsen the video rate
      // model"), with the bottom level a slideshow stand-in for freeze.
      path_estimators_.push_back(std::make_unique<transport::PathEstimator>());
      adapt_controllers_.push_back(std::make_unique<transport::AdaptController>(
          sim_.get(), BuildVideoLevels(profile_.target_bitrate_bps), transport::AdaptConfig{},
          "adapt.tx" + std::to_string(i)));
      receiver->set_on_own_loss_report([this, i, tx = sender.get()](double loss) {
        tx->OnLossFeedback(loss);
        const net::SimTime now = sim_->now();
        path_estimators_[i]->OnLossFraction(loss, now);
        if (adapt_controllers_[i]->Update(path_estimators_[i]->estimate(), now)) {
          tx->SetRateScale(kVideoScales[adapt_controllers_[i]->level_spec().rung]);
        }
      });
    } else {
      receiver->set_on_own_loss_report(
          [tx = sender.get()](double loss) { tx->OnLossFeedback(loss); });
    }
    video_receivers_.push_back(std::move(receiver));
    video_senders_.push_back(std::move(sender));

    if (config_.enable_audio) {
      audio_senders_.push_back(std::make_unique<AudioSender>(
          network_.get(), hosts_[i], kMediaPort, dst, dst_port, profile_,
          /*ssrc=*/0x6000 + static_cast<std::uint32_t>(i), config_.seed * 53 + i));
    }
  }

  sim_->After(net::Millis(200), [this] {
    for (std::size_t i = 0; i < video_senders_.size(); ++i) {
      video_senders_[i]->Start(config_.duration);
      video_receivers_[i]->Start(config_.duration);
    }
    for (auto& sender : audio_senders_) sender->Start(config_.duration);
  });
}

void TelepresenceSession::SetupRenderLoops() {
  const std::size_t n = config_.participants.size();
  availability_.resize(n);
  lod_histograms_.assign(n, {});
  desired_masks_.assign(n, 0xFF);
  sent_masks_.assign(n, 0xFF);
  for (std::size_t i = 0; i < n; ++i) {
    render::ScenarioConfig scenario;
    scenario.remote_personas = n - 1;
    scenario.fps = config_.render_fps;
    scenarios_.push_back(std::make_unique<render::SeatedConversation>(
        scenario, config_.seed * 997 + i));
    render_loops_.push_back(std::make_unique<render::RenderLoop>(
        sim_.get(), config_.cost_model, config_.render_fps));

    const std::size_t self = i;
    auto on_frame = [this, self](net::SimTime now) {
      render::FrameSubmission submission;
      const render::FrameView view = scenarios_[self]->Next();
      const auto& remotes = remote_ids_[self];
      std::uint8_t wanted_mask = 0;
      for (std::size_t k = 0; k < remotes.size(); ++k) {
        // The other personas are potential occluders of this one.
        std::vector<render::Placement> others;
        for (std::size_t m = 0; m < view.placements.size(); ++m) {
          if (m != k) others.push_back(view.placements[m]);
        }
        const render::Visibility vis =
            render::EvaluateVisibility(view.camera, view.placements[k], others);
        const render::LodClass lod = render::SelectLod(vis, config_.lod_policy);
        ++lod_histograms_[self][static_cast<std::size_t>(lod)];

        if (lod == render::LodClass::kProxy) {
          // Out of the viewport: a static bounding-box proxy renders from
          // the last known pose — no fresh semantics needed (the basis of
          // delivery culling; availability is only judged when visible).
          render::RenderItem item;
          item.triangles = ladders_[remotes[k]]->TriangleCount(lod);
          item.coverage = 0.0;
          item.peripheral_shading = false;
          submission.items.push_back(item);
          continue;
        }
        wanted_mask = static_cast<std::uint8_t>(wanted_mask | (1u << remotes[k]));

        ++availability_[self].samples;
        if (!spatial_receivers_[self]->PersonaAvailable(remotes[k], now)) {
          ++availability_[self].unavailable;
          continue;
        }
        render::RenderItem item;
        item.triangles = ladders_[remotes[k]]->TriangleCount(lod);
        item.coverage = render::NormalizedScreenCoverage(view.camera, view.placements[k]);
        item.peripheral_shading = lod == render::LodClass::kPeripheral;
        submission.items.push_back(item);
        ++submission.active_personas;
      }
      desired_masks_[self] = wanted_mask;
      return submission;
    };

    if (config_.delivery_culling) {
      sim_->After(net::Millis(600), [this, self] { CullingTick(self); });
    }

    // Rendering starts once media is flowing.
    sim_->After(net::Millis(500), [this, self, on_frame] {
      render_loops_[self]->Start(config_.duration, on_frame);
    });
  }
}

// Pushes participant `self`'s subscription changes to the SFU four times a
// second.
void TelepresenceSession::CullingTick(std::size_t self) {
  if (sim_->now() >= config_.duration) return;
  if (desired_masks_[self] != sent_masks_[self]) {
    sent_masks_[self] = desired_masks_[self];
    std::vector<std::uint8_t> msg = {kRelayTagLocal, static_cast<std::uint8_t>(self),
                                     kMediaSubscription, sent_masks_[self]};
    quic_conns_[self]->SendDatagram(msg);
  }
  sim_->After(net::Millis(250), [this, self] { CullingTick(self); });
}

net::Netem TelepresenceSession::UplinkNetem(std::size_t participant) {
  return net::Netem(network_.get(), hosts_.at(participant),
                    network_->AccessRouter(hosts_.at(participant)));
}

net::Netem TelepresenceSession::DownlinkNetem(std::size_t participant) {
  return net::Netem(network_.get(), network_->AccessRouter(hosts_.at(participant)),
                    hosts_.at(participant));
}

void TelepresenceSession::Run() { sim_->RunUntil(config_.duration + net::Seconds(2)); }

const net::Capture& TelepresenceSession::capture(std::size_t participant) const {
  return *captures_.at(participant);
}

const render::RenderLoop* TelepresenceSession::render_loop(std::size_t participant) const {
  return participant < render_loops_.size() ? render_loops_[participant].get() : nullptr;
}

const SpatialPersonaReceiver* TelepresenceSession::spatial_receiver(
    std::size_t participant) const {
  return participant < spatial_receivers_.size() ? spatial_receivers_[participant].get()
                                                 : nullptr;
}

const SpatialPersonaSender* TelepresenceSession::spatial_sender(std::size_t participant) const {
  return participant < spatial_senders_.size() ? spatial_senders_[participant].get() : nullptr;
}

const VideoPersonaReceiver* TelepresenceSession::video_receiver(std::size_t participant) const {
  return participant < video_receivers_.size() ? video_receivers_[participant].get() : nullptr;
}

net::NodeId TelepresenceSession::server_node(std::size_t index) const {
  return server_nodes_.at(index);
}

SessionReport TelepresenceSession::BuildReport() const {
  SessionReport report;
  report.app = std::string(profile_.name);
  report.persona_kind = persona_kind_;
  report.p2p = p2p_;
  report.server_metros = server_metros_;

  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    ParticipantReport pr;
    pr.name = config_.participants[i].name;
    pr.metro = config_.participants[i].metro;

    // Throughput: 1-second bins over the steady state, from the capture.
    const net::Capture& cap = *captures_[i];
    const net::NodeId host = hosts_[i];
    std::vector<double> up, down;
    for (net::SimTime t = kWarmup; t + net::kSecond <= config_.duration; t += net::kSecond) {
      up.push_back(cap.MeanThroughputBps(net::Capture::FromNode(host), t, t + net::kSecond) /
                   1e6);
      down.push_back(cap.MeanThroughputBps(net::Capture::ToNode(host), t, t + net::kSecond) /
                     1e6);
    }
    pr.uplink_mbps = core::Summarize(up);
    pr.downlink_mbps = core::Summarize(down);

    // Protocol identification, Wireshark-style.
    const auto flows = transport::ClassifyFlows(cap);
    transport::FlowProtocol dominant = transport::FlowProtocol::kUnknown;
    std::uint64_t best_bytes = 0;
    const auto flow_bytes = cap.Flows(net::Capture::FromNode(host));
    for (const auto& [key, stats] : flow_bytes) {
      const auto it = flows.find(key);
      if (it == flows.end()) continue;
      if (stats.bytes > best_bytes) {
        best_bytes = stats.bytes;
        dominant = it->second;
        if (it->second == transport::FlowProtocol::kRtp) {
          pr.rtp_payload_type = transport::DominantRtpPayloadType(cap, key);
        } else {
          pr.rtp_payload_type = -1;
        }
      }
    }
    switch (dominant) {
      case transport::FlowProtocol::kRtp: pr.uplink_protocol = "RTP"; break;
      case transport::FlowProtocol::kQuic: pr.uplink_protocol = "QUIC"; break;
      case transport::FlowProtocol::kTcpProbe: pr.uplink_protocol = "TCP"; break;
      case transport::FlowProtocol::kMixed: pr.uplink_protocol = "mixed"; break;
      case transport::FlowProtocol::kUnknown: pr.uplink_protocol = "unknown"; break;
    }

    // 2D-session QoE from the RTP machinery.
    if (i < video_receivers_.size() && video_receivers_[i] != nullptr) {
      const VideoPersonaReceiver& rx = *video_receivers_[i];
      pr.media_rtt_ms = rx.own_path_rtt_ms();
      const transport::RtpReceiverStats& rs = rx.rtp().stats();
      const std::uint64_t expected = rs.packets_received + rs.packets_lost;
      pr.rtp_loss_rate = expected == 0 ? 0
                                       : static_cast<double>(rs.packets_lost) /
                                             static_cast<double>(expected);
      pr.rtp_jitter_ms = rs.jitter_rtp_units / 90.0;  // 90 kHz -> ms
    }

    // Render statistics.
    if (i < render_loops_.size() && render_loops_[i] != nullptr) {
      std::vector<double> gpu, cpu, tri;
      for (const render::FrameStats& f : render_loops_[i]->frames()) {
        gpu.push_back(f.gpu_ms);
        cpu.push_back(f.cpu_ms);
        tri.push_back(static_cast<double>(f.triangles));
      }
      pr.gpu_ms = core::Summarize(gpu);
      pr.cpu_ms = core::Summarize(cpu);
      pr.triangles = core::Summarize(tri);
      pr.deadline_miss_rate = render_loops_[i]->MissRate();
    }
    if (i < availability_.size() && availability_[i].samples > 0) {
      pr.persona_available_fraction =
          1.0 - static_cast<double>(availability_[i].unavailable) /
                    static_cast<double>(availability_[i].samples);
    }
    report.participants.push_back(std::move(pr));
  }
  return report;
}

}  // namespace vtp::vca
