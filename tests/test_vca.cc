// Integration tests for the VCA layer: profiles, the SFU, and end-to-end
// telepresence sessions.
#include <gtest/gtest.h>

#include <cstdlib>

#include "obs/snapshot.h"
#include "semantic/generator.h"
#include "transport/classifier.h"
#include "vca/profile.h"
#include "vca/session.h"
#include "vca/sfu.h"

namespace vtp::vca {
namespace {

std::vector<Participant> TwoVisionPros() {
  return {{.name = "U1", .metro = "SanFrancisco", .device = DeviceType::kVisionPro},
          {.name = "U2", .metro = "NewYork", .device = DeviceType::kVisionPro}};
}

// --- profiles -----------------------------------------------------------------

TEST(Profiles, ServerFootprintsMatchSection41) {
  EXPECT_EQ(GetProfile(VcaApp::kFaceTime).server_metros.size(), 4u);
  EXPECT_EQ(GetProfile(VcaApp::kZoom).server_metros.size(), 2u);
  EXPECT_EQ(GetProfile(VcaApp::kWebex).server_metros.size(), 3u);
  EXPECT_EQ(GetProfile(VcaApp::kTeams).server_metros.size(), 1u);
}

TEST(Profiles, ResolutionsMatchSection42) {
  EXPECT_EQ(GetProfile(VcaApp::kWebex).persona_resolution.width, 1920);
  EXPECT_EQ(GetProfile(VcaApp::kZoom).persona_resolution.width, 640);
}

TEST(Profiles, PersonaKindRules) {
  const std::vector<DeviceType> all_vp = {DeviceType::kVisionPro, DeviceType::kVisionPro};
  const std::vector<DeviceType> mixed = {DeviceType::kVisionPro, DeviceType::kMacBook};
  EXPECT_EQ(SessionPersonaKind(VcaApp::kFaceTime, all_vp), PersonaKind::kSpatial);
  // FaceTime reverts to 2D when any participant lacks a Vision Pro (§4.1).
  EXPECT_EQ(SessionPersonaKind(VcaApp::kFaceTime, mixed), PersonaKind::k2d);
  // The other apps never deliver spatial personas.
  EXPECT_EQ(SessionPersonaKind(VcaApp::kZoom, all_vp), PersonaKind::k2d);
  EXPECT_EQ(SessionPersonaKind(VcaApp::kWebex, all_vp), PersonaKind::k2d);
}

TEST(Profiles, P2pRules) {
  const std::vector<DeviceType> all_vp = {DeviceType::kVisionPro, DeviceType::kVisionPro};
  const std::vector<DeviceType> mixed = {DeviceType::kVisionPro, DeviceType::kMacBook};
  const std::vector<DeviceType> three(3, DeviceType::kVisionPro);
  // Zoom & FaceTime use P2P for two parties (§4.1)...
  EXPECT_TRUE(SessionUsesP2p(VcaApp::kZoom, all_vp));
  EXPECT_TRUE(SessionUsesP2p(VcaApp::kFaceTime, mixed));
  // ...except FaceTime with two Vision Pros (§4.1's exception)...
  EXPECT_FALSE(SessionUsesP2p(VcaApp::kFaceTime, all_vp));
  // ...and never for >2 participants or for Webex/Teams.
  EXPECT_FALSE(SessionUsesP2p(VcaApp::kZoom, three));
  EXPECT_FALSE(SessionUsesP2p(VcaApp::kWebex, mixed));
  EXPECT_FALSE(SessionUsesP2p(VcaApp::kTeams, mixed));
}

// --- spatial sessions --------------------------------------------------------------

TEST(SpatialSession, ReproducesPaperHeadlineNumbers) {
  SessionConfig config;
  config.participants = TwoVisionPros();
  config.duration = net::Seconds(12);
  config.seed = 1;
  TelepresenceSession session(std::move(config));
  session.Run();
  const SessionReport report = session.BuildReport();

  EXPECT_EQ(report.persona_kind, PersonaKind::kSpatial);
  EXPECT_FALSE(report.p2p);  // two Vision Pros still relay via a server
  ASSERT_EQ(report.server_metros.size(), 1u);
  EXPECT_EQ(report.server_metros[0], "SanJose");  // nearest to initiator (SF)

  for (const ParticipantReport& p : report.participants) {
    EXPECT_EQ(p.uplink_protocol, "QUIC");       // §4.1
    EXPECT_NEAR(p.uplink_mbps.mean, 0.67, 0.15);   // §4.2: ~0.67 Mbps
    EXPECT_NEAR(p.downlink_mbps.mean, 0.67, 0.15); // server forwards 1 peer
    EXPECT_NEAR(p.triangles.mean, 70000, 15000);   // mostly full-LOD persona
    EXPECT_NEAR(p.cpu_ms.mean, 5.67, 0.5);         // Fig. 6(b) 2-user point
    EXPECT_NEAR(p.gpu_ms.mean, 5.65, 0.9);         // Fig. 6(b) 2-user point
    EXPECT_GT(p.persona_available_fraction, 0.97);
    EXPECT_LT(p.deadline_miss_rate, 0.05);
  }
}

TEST(SpatialSession, ServerFollowsInitiator) {
  SessionConfig config;
  config.participants = {{.name = "U1", .metro = "NewYork", .device = DeviceType::kVisionPro},
                         {.name = "U2", .metro = "SanFrancisco", .device = DeviceType::kVisionPro}};
  config.duration = net::Seconds(4);
  TelepresenceSession session(std::move(config));
  // Initiator in NYC -> eastern FaceTime server regardless of U2 (§4.1).
  EXPECT_EQ(session.server_metros_used().front(), "Ashburn");
}

TEST(SpatialSession, RejectsMoreThanFiveUsers) {
  SessionConfig config;
  for (int i = 0; i < 6; ++i) {
    config.participants.push_back(
        {.name = "U", .metro = "Chicago", .device = DeviceType::kVisionPro});
  }
  EXPECT_THROW(TelepresenceSession{std::move(config)}, std::invalid_argument);
}

TEST(SpatialSession, UplinkCapBelow700KbpsKillsThePersona) {
  // §4.3: no rate adaptation — capping the uplink under ~700 Kbps makes the
  // spatial persona unavailable ("poor connection").
  SessionConfig config;
  config.participants = TwoVisionPros();
  config.duration = net::Seconds(12);
  config.enable_reconstruction = false;  // speed: availability is the metric
  TelepresenceSession session(std::move(config));
  net::Netem netem = session.UplinkNetem(0);
  session.sim().After(net::Seconds(5), [&netem] { netem.SetRateBps(400e3); });
  session.Run();
  const SessionReport report = session.BuildReport();
  // U2 (viewing U1's persona) loses it for a large share of the session.
  EXPECT_LT(report.participants[1].persona_available_fraction, 0.75);
  // U1's view of U2 is unaffected.
  EXPECT_GT(report.participants[0].persona_available_fraction, 0.95);
}

TEST(SpatialSession, GeoDistributedStrategyUsesMultipleServers) {
  SessionConfig config;
  config.participants = TwoVisionPros();
  config.duration = net::Seconds(8);
  config.strategy = ServerStrategy::kGeoDistributed;
  config.enable_reconstruction = false;
  TelepresenceSession session(std::move(config));
  EXPECT_EQ(session.server_metros_used().size(), 2u);  // SJ for SF, Ashburn for NYC
  session.Run();
  const SessionReport report = session.BuildReport();
  for (const ParticipantReport& p : report.participants) {
    EXPECT_GT(p.persona_available_fraction, 0.95);  // relay mesh delivers
    EXPECT_NEAR(p.uplink_mbps.mean, 0.67, 0.15);
  }
}

// --- fan-out decode memo ---------------------------------------------------------------

SessionConfig FiveUserFaceTime(net::SimTime duration) {
  SessionConfig config;
  for (const char* metro : {"NewYork", "Chicago", "Dallas", "Seattle", "Miami"}) {
    config.participants.push_back(
        {.name = metro, .metro = metro, .device = DeviceType::kVisionPro});
  }
  config.duration = duration;
  return config;
}

double EngineGauge(TelepresenceSession& session, const std::string& name) {
  return obs::Snapshot::Capture(session.sim().metrics()).gauge("codec.engine." + name);
}

/// Semantic payloads that reached an LZ decode on any receiver: every frame
/// decoded or refused by its decoder (these sessions carry no corrupt
/// payloads, so no failure stops before the LZ stage).
double ReceiverDecodes(const TelepresenceSession& session, std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const auto& remote = session.spatial_receiver(i)->remote(static_cast<std::uint8_t>(j));
      total += remote.frames_decoded + remote.decode_failures;
    }
  }
  return static_cast<double>(total);
}

TEST(SpatialSession, FiveUserCallDecodesEachRelayedBodyOnce) {
  TelepresenceSession session(FiveUserFaceTime(net::Seconds(4)));
  session.Run();
  const double hits = EngineGauge(session, "decode_hits");
  const double misses = EngineGauge(session, "decode_misses");
  // Four receivers per sender frame: one decodes, three copy.
  EXPECT_GT(misses, 1000);
  EXPECT_EQ(hits, 3 * misses);
  EXPECT_EQ(hits + misses, ReceiverDecodes(session, 5));
}

TEST(SpatialReceiver, CorruptCopyMissesTheMemoAndFailsAlone) {
  net::Simulator sim(1);
  compress::CodecEngine engine;
  std::vector<std::unique_ptr<SpatialPersonaReceiver>> receivers;
  for (int r = 0; r < 4; ++r) {
    receivers.push_back(std::make_unique<SpatialPersonaReceiver>(
        &sim, std::map<std::uint8_t, const mesh::TriangleMesh*>{}, 9, 90.0, &engine));
  }
  constexpr std::uint8_t kSender = 3;
  constexpr int kFrames = 20;
  semantic::KeypointTrackGenerator track({}, 5);
  semantic::SemanticEncoder encoder;
  for (int f = 0; f < kFrames; ++f) {
    std::vector<std::uint8_t> datagram = {kRelayTagRelayed, kSender, kMediaSemantic};
    const auto payload = encoder.EncodeFrame(semantic::ExtractSemanticSubset(track.Next()));
    datagram.insert(datagram.end(), payload.begin(), payload.end());
    for (std::size_t r = 0; r < receivers.size(); ++r) {
      std::vector<std::uint8_t> copy = datagram;
      // Frame 5 reaches receiver 0 corrupt before anyone decoded it; frame
      // 12 reaches receiver 3 corrupt after the others did. Byte 5 is the
      // first of the body's LZR1 magic (wrapper, mode tag, frame index).
      if ((f == 5 && r == 0) || (f == 12 && r == 3)) copy[5] ^= 0xFF;
      receivers[r]->OnDatagram(copy);
    }
  }
  for (std::size_t r = 0; r < receivers.size(); ++r) {
    const std::uint64_t corrupted = (r == 0 || r == 3) ? 1 : 0;
    const auto& remote = receivers[r]->remote(kSender);
    EXPECT_EQ(remote.decode_failures, corrupted) << r;
    EXPECT_EQ(remote.frames_decoded, kFrames - corrupted) << r;
  }
  EXPECT_EQ(engine.stats().decode_misses, kFrames + 2u);
  EXPECT_EQ(engine.stats().decode_hits, 4u * kFrames - (kFrames + 2u));
}

/// A five-user call with 5% loss on user 0's uplink (as `vtp run
/// --loss=0.05` applies it) and on user 2's downlink, so receivers see
/// different frame sets.
struct LossyRun {
  SessionReport report;
  std::vector<SpatialPersonaReceiver::RemoteStats> remotes;  ///< [receiver][sender]
  double decode_hits = 0;
  double decode_misses = 0;
  std::uint64_t user0_frames_at_user1 = 0;
  std::uint64_t user0_frames_at_user2 = 0;
};

LossyRun RunLossyFiveUser(bool shared_decode) {
  TelepresenceSession session(FiveUserFaceTime(net::Seconds(4)));
  session.UplinkNetem(0).SetLoss(0.05);
  session.DownlinkNetem(2).SetLoss(0.05);
  if (!shared_decode) {
    for (std::size_t i = 0; i < 5; ++i) session.spatial_receiver(i)->AttachEngine(nullptr);
  }
  session.Run();
  LossyRun run;
  run.report = session.BuildReport();
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::uint8_t j = 0; j < 5; ++j) {
      run.remotes.push_back(session.spatial_receiver(i)->remote(j));
    }
  }
  run.decode_hits = EngineGauge(session, "decode_hits");
  run.decode_misses = EngineGauge(session, "decode_misses");
  run.user0_frames_at_user1 = session.spatial_receiver(1)->remote(0).frames_decoded;
  run.user0_frames_at_user2 = session.spatial_receiver(2)->remote(0).frames_decoded;
  return run;
}

void ExpectSameSummary(const core::Summary& a, const core::Summary& b, const std::string& what) {
  EXPECT_EQ(a.n, b.n) << what;
  EXPECT_EQ(a.mean, b.mean) << what;
  EXPECT_EQ(a.min, b.min) << what;
  EXPECT_EQ(a.max, b.max) << what;
  EXPECT_EQ(a.p50, b.p50) << what;
  EXPECT_EQ(a.p95, b.p95) << what;
}

TEST(SpatialSession, LossyCallMatchesDetachedDecoders) {
  const LossyRun shared = RunLossyFiveUser(true);
  const LossyRun detached = RunLossyFiveUser(false);
  EXPECT_GT(shared.decode_hits, 0);
  EXPECT_EQ(detached.decode_hits + detached.decode_misses, 0);
  EXPECT_NE(shared.user0_frames_at_user1, shared.user0_frames_at_user2);

  ASSERT_EQ(shared.remotes.size(), detached.remotes.size());
  for (std::size_t k = 0; k < shared.remotes.size(); ++k) {
    const auto& a = shared.remotes[k];
    const auto& b = detached.remotes[k];
    EXPECT_EQ(a.frames_decoded, b.frames_decoded) << k;
    EXPECT_EQ(a.decode_failures, b.decode_failures) << k;
    EXPECT_EQ(a.last_frame_time, b.last_frame_time) << k;
    EXPECT_EQ(a.last_frame_index, b.last_frame_index) << k;
    EXPECT_EQ(a.audio_frames, b.audio_frames) << k;
  }
  // Every field `vtp run --json` prints.
  ASSERT_EQ(shared.report.participants.size(), detached.report.participants.size());
  EXPECT_EQ(shared.report.server_metros, detached.report.server_metros);
  for (std::size_t i = 0; i < shared.report.participants.size(); ++i) {
    const ParticipantReport& a = shared.report.participants[i];
    const ParticipantReport& b = detached.report.participants[i];
    EXPECT_EQ(a.uplink_protocol, b.uplink_protocol);
    EXPECT_EQ(a.rtp_payload_type, b.rtp_payload_type);
    ExpectSameSummary(a.uplink_mbps, b.uplink_mbps, a.name + " uplink");
    ExpectSameSummary(a.downlink_mbps, b.downlink_mbps, a.name + " downlink");
    ExpectSameSummary(a.gpu_ms, b.gpu_ms, a.name + " gpu");
    ExpectSameSummary(a.cpu_ms, b.cpu_ms, a.name + " cpu");
    EXPECT_EQ(a.triangles.mean, b.triangles.mean) << a.name;
    EXPECT_EQ(a.persona_available_fraction, b.persona_available_fraction) << a.name;
    EXPECT_EQ(a.deadline_miss_rate, b.deadline_miss_rate) << a.name;
  }
}

TEST(SpatialSession, DecoderResetKeepsTheSharedEngine) {
  // VTP_ADAPT is read once, when the session is built.
  setenv("VTP_ADAPT", "1", 1);
  SessionConfig config;
  for (const char* metro : {"SanFrancisco", "NewYork", "Chicago"}) {
    config.participants.push_back(
        {.name = metro, .metro = metro, .device = DeviceType::kVisionPro});
  }
  config.duration = net::Seconds(12);
  config.enable_reconstruction = false;
  TelepresenceSession session(std::move(config));
  unsetenv("VTP_ADAPT");
  ASSERT_TRUE(session.adapt_enabled());
  // A lossy downlink moves user 1 onto the coarse streams and back, and
  // each switch resets the matching decoder.
  net::Netem netem = session.DownlinkNetem(1);
  netem.SetLoss(0.25);
  session.sim().At(net::Seconds(5), [&netem] { netem.SetLoss(0); });
  session.Run();

  std::uint64_t rung_requests = 0;
  for (const auto& [name, counter] : session.sim().metrics().counters()) {
    if (name.ends_with(".rung_requests")) rung_requests += counter.value();
  }
  EXPECT_GT(rung_requests, 0u);
  // Every decode after a reset still goes through the engine.
  const double hits = EngineGauge(session, "decode_hits");
  EXPECT_GT(hits, 0);
  EXPECT_EQ(hits + EngineGauge(session, "decode_misses"), ReceiverDecodes(session, 3));
}

TEST(SpatialSession, LostHandshakeReplyDoesNotStrandTheUplink) {
  // Loss on user 1's downlink from t=0 can take the server's answer to user
  // 1's Initial. The client must keep retransmitting its Initial, and the
  // server must answer each one, or user 1 never sends a frame.
  for (double loss : {0.25, 0.5}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      setenv("VTP_ADAPT", "1", 1);
      SessionConfig config;
      for (const char* metro : {"SanFrancisco", "NewYork", "Chicago"}) {
        config.participants.push_back(
            {.name = metro, .metro = metro, .device = DeviceType::kVisionPro});
      }
      config.duration = net::Seconds(4);
      config.enable_reconstruction = false;
      config.seed = seed;
      TelepresenceSession session(std::move(config));
      unsetenv("VTP_ADAPT");
      session.DownlinkNetem(1).SetLoss(loss);
      session.Run();
      EXPECT_GT(session.spatial_receiver(0)->remote(1).frames_decoded, 0u)
          << "loss=" << loss << " seed=" << seed;
      EXPECT_GT(session.spatial_receiver(2)->remote(1).frames_decoded, 0u)
          << "loss=" << loss << " seed=" << seed;
    }
  }
}

// --- 2D sessions ---------------------------------------------------------------------

TEST(TwoDSession, WebexOutweighsZoomPerResolution) {
  const auto run = [](VcaApp app) {
    SessionConfig config;
    config.app = app;
    config.participants = {{.name = "U1", .metro = "SanFrancisco", .device = DeviceType::kVisionPro},
                           {.name = "U2", .metro = "NewYork", .device = DeviceType::kMacBook}};
    config.duration = net::Seconds(12);
    TelepresenceSession session(std::move(config));
    session.Run();
    return session.BuildReport();
  };
  const SessionReport webex = run(VcaApp::kWebex);
  const SessionReport zoom = run(VcaApp::kZoom);

  EXPECT_EQ(webex.persona_kind, PersonaKind::k2d);
  EXPECT_FALSE(webex.p2p);
  EXPECT_TRUE(zoom.p2p);  // two-party Zoom is P2P (§4.1)
  EXPECT_EQ(webex.participants[0].uplink_protocol, "RTP");
  EXPECT_EQ(zoom.participants[0].uplink_protocol, "RTP");
  // §4.2: Webex (1080p) consumes ~3x Zoom (360p).
  EXPECT_GT(webex.participants[0].uplink_mbps.mean,
            zoom.participants[0].uplink_mbps.mean * 1.8);
}

TEST(TwoDSession, MixedFaceTimeFallsBackToRtpWithVideoPayloadType) {
  SessionConfig config;
  config.app = VcaApp::kFaceTime;
  config.participants = {{.name = "U1", .metro = "Chicago", .device = DeviceType::kVisionPro},
                         {.name = "U2", .metro = "Dallas", .device = DeviceType::kIphone}};
  config.duration = net::Seconds(10);
  TelepresenceSession session(std::move(config));
  session.Run();
  const SessionReport report = session.BuildReport();
  EXPECT_EQ(report.persona_kind, PersonaKind::k2d);
  EXPECT_TRUE(report.p2p);  // mixed two-party FaceTime is P2P
  // §4.1: RTP with the same payload type as FaceTime's 2D video calls.
  EXPECT_EQ(report.participants[0].uplink_protocol, "RTP");
  EXPECT_EQ(report.participants[0].rtp_payload_type, 123);
}

TEST(TwoDSession, ThreePartyZoomGoesThroughAServer) {
  SessionConfig config;
  config.app = VcaApp::kZoom;
  config.participants = {{.name = "U1", .metro = "Miami", .device = DeviceType::kMacBook},
                         {.name = "U2", .metro = "Seattle", .device = DeviceType::kIpad},
                         {.name = "U3", .metro = "Dallas", .device = DeviceType::kMacBook}};
  config.duration = net::Seconds(10);
  TelepresenceSession session(std::move(config));
  session.Run();
  const SessionReport report = session.BuildReport();
  EXPECT_FALSE(report.p2p);
  EXPECT_EQ(report.server_metros.front(), "Ashburn");  // nearest to Miami
  // Each participant receives two remote streams: downlink ~2x uplink.
  const ParticipantReport& u1 = report.participants[0];
  EXPECT_NEAR(u1.downlink_mbps.mean, 2 * u1.uplink_mbps.mean, u1.uplink_mbps.mean * 0.6);
}

TEST(TwoDSession, RateAdaptationRespondsToUplinkCap) {
  // The 2D pipelines DO adapt (§4.3, contrast with the spatial persona).
  SessionConfig config;
  config.app = VcaApp::kWebex;
  config.participants = {{.name = "U1", .metro = "SanFrancisco", .device = DeviceType::kMacBook},
                         {.name = "U2", .metro = "NewYork", .device = DeviceType::kMacBook}};
  config.duration = net::Seconds(25);
  TelepresenceSession session(std::move(config));
  net::Netem netem = session.UplinkNetem(0);
  session.sim().After(net::Seconds(10), [&netem] { netem.SetRateBps(1.2e6); });
  session.Run();

  // Uplink throughput before the cap is much higher than after; after the
  // cap, the sender settles near (below) the cap instead of collapsing.
  const net::Capture& cap = session.capture(0);
  const auto from_u1 = net::Capture::FromNode(session.host(0));
  const double before = cap.MeanThroughputBps(from_u1, net::Seconds(5), net::Seconds(10)) / 1e6;
  const double after = cap.MeanThroughputBps(from_u1, net::Seconds(18), net::Seconds(24)) / 1e6;
  EXPECT_GT(before, 3.0);
  EXPECT_LT(after, 1.35);
  EXPECT_GT(after, 0.4);
}

// --- SFU ------------------------------------------------------------------------------

TEST(Sfu, RtpFanOutForwardsToAllOtherMembers) {
  net::Simulator sim(1);
  net::Network network(&sim);
  network.BuildBackbone();
  const auto s = network.AddHost("sfu", "Chicago", 10e9, net::Micros(200));
  const auto a = network.AddHost("a", "Dallas");
  const auto b = network.AddHost("b", "Miami");
  const auto c = network.AddHost("c", "Seattle");
  network.ComputeRoutes();

  SfuServer sfu(&network, s, 5000, TransportKind::kRtp);
  sfu.AddRtpMember(a, 6000);
  sfu.AddRtpMember(b, 6000);
  sfu.AddRtpMember(c, 6000);

  int b_packets = 0, c_packets = 0, a_packets = 0;
  network.BindUdp(b, 6000, [&](const net::Packet&) { ++b_packets; });
  network.BindUdp(c, 6000, [&](const net::Packet&) { ++c_packets; });
  network.BindUdp(a, 6000, [&](const net::Packet&) { ++a_packets; });

  transport::RtpSender sender(&network, a, 6000, s, 5000,
                              transport::RtpSenderConfig{.ssrc = 42});
  for (int i = 0; i < 7; ++i) {
    sender.SendFrame(std::vector<std::uint8_t>(500, 0), static_cast<std::uint32_t>(i));
  }
  sim.Run();
  EXPECT_EQ(b_packets, 7);
  EXPECT_EQ(c_packets, 7);
  EXPECT_EQ(a_packets, 0);  // never echoed to the sender
  EXPECT_EQ(sfu.forwarded_count(), 14u);
}

TEST(Sfu, RtcpRoutedOnlyToTheReportedSource) {
  net::Simulator sim(1);
  net::Network network(&sim);
  network.BuildBackbone();
  const auto s = network.AddHost("sfu", "Chicago", 10e9, net::Micros(200));
  const auto a = network.AddHost("a", "Dallas");
  const auto b = network.AddHost("b", "Miami");
  network.ComputeRoutes();

  SfuServer sfu(&network, s, 5000, TransportKind::kRtp);
  sfu.AddRtpMember(a, 6000);
  sfu.AddRtpMember(b, 6000);

  // a sends media (so the SFU learns ssrc 42 belongs to a)...
  transport::RtpSender sender(&network, a, 6000, s, 5000,
                              transport::RtpSenderConfig{.ssrc = 42});
  sender.SendFrame(std::vector<std::uint8_t>(100, 0), 0);

  int a_rtcp = 0;
  network.BindUdp(a, 6000, [&](const net::Packet& p) {
    if (transport::LooksLikeRtcp(p.payload)) ++a_rtcp;
  });
  network.BindUdp(b, 6000, [&](const net::Packet&) {});

  // ...then b reports loss on ssrc 42.
  sim.After(net::Millis(100), [&] {
    transport::RtcpReceiverReport rr;
    rr.reporter_ssrc = 7;
    rr.source_ssrc = 42;
    rr.fraction_lost = 0.1;
    network.SendUdp(b, 6000, s, 5000, rr.Serialize());
  });
  sim.Run();
  EXPECT_EQ(a_rtcp, 1);
}

TEST(Sfu, SubscriptionEntriesFreedOnReclassifyAndClose) {
  net::Simulator sim(1);
  net::Network network(&sim);
  network.BuildBackbone();
  const auto s = network.AddHost("sfu", "Chicago", 10e9, net::Micros(200));
  const auto a = network.AddHost("a", "Dallas");
  const auto b = network.AddHost("b", "Miami");
  network.ComputeRoutes();

  SfuServer sfu(&network, s, 5000, TransportKind::kQuicDatagram);
  transport::QuicEndpoint ep_a(&network, a, 9000), ep_b(&network, b, 9000);
  transport::QuicConnection* conn_a = ep_a.Connect(s, 5000);
  transport::QuicConnection* conn_b = ep_b.Connect(s, 5000);
  sim.RunUntil(net::Millis(300));
  ASSERT_TRUE(conn_a->established());
  ASSERT_TRUE(conn_b->established());

  // Both connections register a viewport subscription
  // ([tag][receiver_id][kMediaSubscription][bitmask]).
  conn_a->SendDatagram(std::vector<std::uint8_t>{kRelayTagLocal, 1, 3, 0x0F});
  conn_b->SendDatagram(std::vector<std::uint8_t>{kRelayTagLocal, 2, 3, 0xF0});
  sim.RunUntil(sim.now() + net::Millis(300));
  EXPECT_EQ(sfu.semantic_subscription_count(), 2u);

  // b announces itself as a peer server: the reclassify must drop its
  // subscription entry (server links never subscribe).
  conn_b->SendDatagram(std::vector<std::uint8_t>{kRelayTagHello});
  sim.RunUntil(sim.now() + net::Millis(300));
  EXPECT_EQ(sfu.semantic_subscription_count(), 1u);

  // a closes: its entry must go with the connection.
  conn_a->Close(0);
  sim.RunUntil(sim.now() + net::Millis(500));
  EXPECT_EQ(sfu.semantic_subscription_count(), 0u);
}

TEST(Sfu, LegacyAccessorsMatchMetricRegistry) {
  // Back-compat contract: forwarded_count() and the subscription-table gauge
  // are views of the registry metrics an obs::Snapshot exports.
  net::Simulator sim(1);
  net::Network network(&sim);
  network.BuildBackbone();
  const auto s = network.AddHost("sfu", "Chicago", 10e9, net::Micros(200));
  const auto a = network.AddHost("a", "Dallas");
  const auto b = network.AddHost("b", "Miami");
  const auto c = network.AddHost("c", "Seattle");
  network.ComputeRoutes();

  SfuServer sfu(&network, s, 5000, TransportKind::kRtp);
  EXPECT_EQ(sfu.metrics_scope(), "sfu0");
  sfu.AddRtpMember(a, 6000);
  sfu.AddRtpMember(b, 6000);
  sfu.AddRtpMember(c, 6000);
  network.BindUdp(a, 6000, [](const net::Packet&) {});
  network.BindUdp(b, 6000, [](const net::Packet&) {});
  network.BindUdp(c, 6000, [](const net::Packet&) {});

  transport::RtpSender sender(&network, a, 6000, s, 5000,
                              transport::RtpSenderConfig{.ssrc = 42});
  for (int i = 0; i < 5; ++i) {
    sender.SendFrame(std::vector<std::uint8_t>(500, 0), static_cast<std::uint32_t>(i));
  }
  sim.Run();

  const obs::Snapshot snap = obs::Snapshot::Capture(sim.metrics());
  EXPECT_EQ(sfu.forwarded_count(), 10u);
  EXPECT_EQ(snap.counter("sfu0.forwarded"), sfu.forwarded_count());
  EXPECT_DOUBLE_EQ(snap.gauge("sfu0.subscription_table_size"),
                   static_cast<double>(sfu.semantic_subscription_count()));

  // A second server on the same simulator gets its own scope.
  SfuServer sfu2(&network, s, 5001, TransportKind::kRtp);
  EXPECT_EQ(sfu2.metrics_scope(), "sfu1");
  EXPECT_EQ(sfu2.forwarded_count(), 0u);
}

}  // namespace
}  // namespace vtp::vca
