// vtp — the command-line measurement tool.
//
// The paper commits to releasing "the source code of our tools"; this is
// that tool for the simulated stack. Subcommands:
//
//   vtp run    — run a telepresence session and report what the testbed
//                would measure (table or --json), with optional tc-style
//                impairments, the adaptive delivery loop (--adapt) and a
//                --dump-trace=FILE packet-trace export.
//   vtp serve  — host a real SFU process on UDP sockets (the socket Medium
//                backend, DESIGN §14); clients dial in over the wire.
//   vtp client — generate N personas of traffic against a vtp serve
//                (--medium=socket) or a self-contained in-process SFU
//                (--medium=sim, the default — deterministic smoke).
//   vtp rtt    — Table 1-style TCP-ping RTT matrix between arbitrary
//                client metros and VCA server fleets.
//   vtp probe  — the §4.3 display-latency probe at a given injected delay.
//   vtp knobs  — every VTP_* environment knob the build understands
//                (also reachable as `vtp --knobs`).
//
// All subcommands share one flag parser (core::Flags) and one
// --obs-dump=FILE snapshot path.
//
// Examples (an indented line continues the command above it):
//   vtp run --app=facetime --metros=SanFrancisco,NewYork --duration=20
//   vtp run --app=webex --metros=SanFrancisco,Chicago,Miami
//           --devices=vp,mac,ipad --cap-uplink-kbps=1200 --json
//   vtp run --app=facetime --metros=SanFrancisco,NewYork --obs-dump=obs.json
//   vtp serve --port=4433 --duration=10 --obs-dump=server_obs.json
//   vtp client --medium=socket --connect=127.0.0.1:4433 --personas=5
//           --duration=5 --obs-dump=client_obs.json
//   vtp rtt --clients=SanFrancisco,Dallas,NewYork --apps=facetime,zoom
//   vtp probe --mode=remote --delay-ms=500
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>

#include "core/display_latency.h"
#include "core/flags.h"
#include "core/json.h"
#include "core/knobs.h"
#include "core/rtt_matrix.h"
#include "core/table.h"
#include "netsim/socket_medium.h"
#include "netsim/trace_io.h"
#include "obs/snapshot.h"
#include "transport/taps.h"
#include "vca/session.h"
#include "vca/sfu.h"

using namespace vtp;

namespace {

int Usage() {
  std::cerr <<
      R"(usage: vtp <run|serve|client|rtt|probe|knobs> [flags]

vtp run    --app=facetime|zoom|webex|teams --metros=A,B[,C...]
           [--devices=vp|mac|ipad|iphone per user] [--duration=SECONDS]
           [--seed=N] [--strategy=nearest|geo] [--no-audio] [--adapt]
           [--cap-uplink-kbps=K] [--delay-ms=D] [--loss=P]   (applied to user 0)
           [--dump-trace=FILE] [--obs-dump=FILE] [--json]
vtp serve  [--host=ADDR] [--port=P] [--duration=SECONDS (0 = until SIGINT)]
           [--obs-dump=FILE] [--json]
vtp client [--connect=HOST:PORT] [--personas=N] [--duration=SECONDS]
           [--port-base=P] [--id-base=N] [--fps=F] [--seed=N]
           [--medium=sim|socket] [--obs-dump=FILE] [--json]
vtp rtt    --clients=MetroA,MetroB,... [--apps=facetime,zoom,webex,teams]
           [--servers=MetroX,MetroY,...] [--pings=N] [--json]
vtp probe  [--mode=local|remote] [--delay-ms=D] [--json]
vtp knobs  [--json]          (also: vtp --knobs)

serve binds 127.0.0.1 by default; client defaults to --medium=sim and, with
--medium=socket, dials 127.0.0.1:4433.
)";
  return 2;
}

/// The one --obs-dump=FILE path every subcommand shares: snapshot of `sim`'s
/// registry (+ tracer spans) as JSON. Returns false on write failure.
bool DumpObsSnapshot(const core::Flags& flags, const char* cmd, net::Simulator& sim) {
  const std::string path = flags.Get("obs-dump");
  if (path.empty()) return true;
  std::ofstream os(path);
  if (!os) {
    std::cerr << "vtp " << cmd << ": cannot write " << path << "\n";
    return false;
  }
  const obs::Snapshot snap = obs::Snapshot::Capture(sim.metrics(), &sim.tracer());
  os << snap.ToJson() << "\n";
  std::cerr << "wrote obs snapshot (" << snap.counters.size() << " counters, " << snap.spans
            << " spans) to " << path << "\n";
  return true;
}

/// Figure-4-style per-stage latency table from the tracer's completed spans.
void PrintStageTable(const obs::Snapshot& snap, std::ostream& out) {
  if (snap.stages.empty()) {
    out << "(no completed frame spans — per-stage latency unavailable)\n";
    return;
  }
  core::TextTable table;
  table.SetHeader({"stage", "mean ms", "p50 ms", "p95 ms"});
  for (const obs::Snapshot::StageRow& row : snap.stages) {
    table.AddRow({row.label, core::Fmt(row.summary.mean, 2), core::Fmt(row.summary.p50, 2),
                  core::Fmt(row.summary.p95, 2)});
  }
  table.Print(out);
}

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

vca::VcaApp ParseApp(const std::string& name) {
  if (name == "facetime") return vca::VcaApp::kFaceTime;
  if (name == "zoom") return vca::VcaApp::kZoom;
  if (name == "webex") return vca::VcaApp::kWebex;
  if (name == "teams") return vca::VcaApp::kTeams;
  throw std::invalid_argument("unknown app: " + name);
}

vca::DeviceType ParseDevice(const std::string& name) {
  if (name == "vp" || name == "visionpro") return vca::DeviceType::kVisionPro;
  if (name == "mac" || name == "macbook") return vca::DeviceType::kMacBook;
  if (name == "ipad") return vca::DeviceType::kIpad;
  if (name == "iphone") return vca::DeviceType::kIphone;
  throw std::invalid_argument("unknown device: " + name);
}

void PrintSummaryJson(core::JsonWriter& w, const core::Summary& s) {
  w.BeginObject();
  w.Key("mean");
  w.Number(s.mean);
  w.Key("stddev");
  w.Number(s.stddev);
  w.Key("p5");
  w.Number(s.p5);
  w.Key("p50");
  w.Number(s.p50);
  w.Key("p95");
  w.Number(s.p95);
  w.EndObject();
}

int CmdRun(const core::Flags& flags) {
  vca::SessionConfig config;
  config.app = ParseApp(flags.Get("app", "facetime"));
  const std::vector<std::string> metros = flags.GetList("metros");
  if (metros.size() < 2) {
    std::cerr << "vtp run: need --metros=A,B with at least two metros\n";
    return 2;
  }
  const std::vector<std::string> devices = flags.GetList("devices");
  for (std::size_t i = 0; i < metros.size(); ++i) {
    vca::Participant p;
    p.name = "U" + std::to_string(i + 1);
    p.metro = metros[i];
    p.device = i < devices.size() ? ParseDevice(devices[i]) : vca::DeviceType::kVisionPro;
    config.participants.push_back(std::move(p));
  }
  config.duration = net::Seconds(flags.GetDouble("duration", 20));
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  config.enable_audio = !flags.GetBool("no-audio", false);
  config.adapt = flags.GetBool("adapt", false);
  if (flags.Get("strategy", "nearest") == "geo") {
    config.strategy = vca::ServerStrategy::kGeoDistributed;
  }

  vca::TelepresenceSession session(std::move(config));

  // Impairments on user 0's uplink, like tc at its AP.
  net::Netem netem = session.UplinkNetem(0);
  if (flags.Has("cap-uplink-kbps")) {
    netem.SetRateBps(flags.GetDouble("cap-uplink-kbps", 0) * 1e3);
  }
  if (flags.Has("delay-ms")) netem.SetDelay(net::Millis(flags.GetDouble("delay-ms", 0)));
  if (flags.Has("loss")) netem.SetLoss(flags.GetDouble("loss", 0));

  session.Run();
  const vca::SessionReport report = session.BuildReport();

  if (const std::string path = flags.Get("dump-trace"); !path.empty()) {
    std::ofstream os(path);
    if (!os) {
      std::cerr << "vtp run: cannot write " << path << "\n";
      return 1;
    }
    net::WriteCaptureCsv(session.capture(0), os);
    std::cerr << "wrote " << session.capture(0).records().size() << " packets to " << path
              << "\n";
  }

  if (!DumpObsSnapshot(flags, "run", session.sim())) return 1;

  if (flags.GetBool("json", false)) {
    core::JsonWriter w;
    w.BeginObject();
    w.Key("app");
    w.String(report.app);
    w.Key("persona");
    w.String(report.persona_kind == vca::PersonaKind::kSpatial ? "spatial" : "2d");
    w.Key("p2p");
    w.Bool(report.p2p);
    w.Key("servers");
    w.BeginArray();
    for (const std::string& s : report.server_metros) w.String(s);
    w.EndArray();
    w.Key("participants");
    w.BeginArray();
    for (const vca::ParticipantReport& p : report.participants) {
      w.BeginObject();
      w.Key("name");
      w.String(p.name);
      w.Key("metro");
      w.String(p.metro);
      w.Key("protocol");
      w.String(p.uplink_protocol);
      w.Key("rtp_payload_type");
      w.Int(p.rtp_payload_type);
      w.Key("uplink_mbps");
      PrintSummaryJson(w, p.uplink_mbps);
      w.Key("downlink_mbps");
      PrintSummaryJson(w, p.downlink_mbps);
      w.Key("gpu_ms");
      PrintSummaryJson(w, p.gpu_ms);
      w.Key("cpu_ms");
      PrintSummaryJson(w, p.cpu_ms);
      w.Key("triangles_mean");
      w.Number(p.triangles.mean);
      w.Key("persona_available");
      w.Number(p.persona_available_fraction);
      w.Key("deadline_miss_rate");
      w.Number(p.deadline_miss_rate);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::cout << w.str() << "\n";
    return 0;
  }

  std::cout << "app " << report.app << ", persona "
            << (report.persona_kind == vca::PersonaKind::kSpatial ? "spatial" : "2D")
            << ", " << (report.p2p ? "P2P" : "server-relayed");
  for (const std::string& s : report.server_metros) std::cout << " " << s;
  std::cout << "\n\n";
  core::TextTable table;
  table.SetHeader({"user", "metro", "proto", "up Mbps", "down Mbps", "GPU ms", "CPU ms",
                   "avail"});
  for (const vca::ParticipantReport& p : report.participants) {
    table.AddRow({p.name, p.metro, p.uplink_protocol, core::Fmt(p.uplink_mbps.mean),
                  core::Fmt(p.downlink_mbps.mean), core::Fmt(p.gpu_ms.mean),
                  core::Fmt(p.cpu_ms.mean),
                  core::Fmt(100 * p.persona_available_fraction, 1) + "%"});
  }
  table.Print(std::cout);
  return 0;
}

// ---- serve / client: the socket-backend SFU and persona load generator ----

/// Splits "host:port"; throws std::invalid_argument on malformed input.
std::pair<std::string, std::uint16_t> ParseHostPort(const std::string& s) {
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon + 1 >= s.size()) {
    throw std::invalid_argument("expected HOST:PORT, got: " + s);
  }
  return {s.substr(0, colon), static_cast<std::uint16_t>(std::stoi(s.substr(colon + 1)))};
}

int CmdServe(const core::Flags& flags) {
  const std::string host = flags.Get("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(flags.GetInt("port", 4433));
  const double duration_s = flags.GetDouble("duration", 0);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));

  net::SocketMedium medium(seed, host);
  medium.sim().tracer().Enable(/*max_spans=*/8192);
  vca::SfuServer sfu(&medium, medium.local_node(), port, vca::TransportKind::kQuicDatagram);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::cerr << "vtp serve: SFU on " << host << ":" << port
            << (duration_s > 0 ? " for " + core::Fmt(duration_s, 1) + " s"
                               : " until SIGINT")
            << "\n";

  const net::SimTime end = duration_s > 0 ? net::Seconds(duration_s) : 0;
  while (!g_stop && (end == 0 || medium.sim().now() < end)) medium.Pump(/*max_wait_ms=*/100);

  const net::WallClockStats& wall = medium.wall_stats();
  if (flags.GetBool("json", false)) {
    core::JsonWriter w;
    w.BeginObject();
    w.Key("forwarded");
    w.Int(static_cast<std::int64_t>(sfu.forwarded_count()));
    w.Key("datagrams_received");
    w.Int(static_cast<std::int64_t>(medium.datagrams_received()));
    w.Key("datagrams_sent");
    w.Int(static_cast<std::int64_t>(medium.datagrams_sent()));
    w.Key("timers_fired");
    w.Int(static_cast<std::int64_t>(wall.timers_fired));
    w.Key("late_ticks");
    w.Int(static_cast<std::int64_t>(wall.late_ticks));
    w.Key("early_fires");
    w.Int(static_cast<std::int64_t>(wall.early_fires));
    w.EndObject();
    std::cout << w.str() << "\n";
  } else {
    std::cout << "vtp serve: relayed " << sfu.forwarded_count() << " datagrams ("
              << medium.datagrams_received() << " in / " << medium.datagrams_sent()
              << " out), " << wall.timers_fired << " timers, " << wall.late_ticks
              << " late ticks (" << wall.coalesced_ticks << " coalesced), "
              << wall.early_fires << " early fires\n";
    PrintStageTable(obs::Snapshot::Capture(medium.sim().metrics(), &medium.sim().tracer()),
                    std::cout);
  }
  if (!DumpObsSnapshot(flags, "serve", medium.sim())) return 1;
  return wall.early_fires == 0 ? 0 : 1;
}

/// One client persona: a TAPS connection to the SFU carrying a spatial
/// sender (90 FPS semantic frames) and a receiver decoding everyone else.
struct ClientPersona {
  std::unique_ptr<transport::taps::Connection> conn;
  std::unique_ptr<vca::SpatialPersonaSender> sender;
  std::unique_ptr<vca::SpatialPersonaReceiver> receiver;
};

ClientPersona MakePersona(net::Medium& medium, transport::taps::Endpoint local,
                          transport::taps::Endpoint remote, std::uint8_t id, double fps,
                          std::uint64_t seed) {
  ClientPersona p;
  p.conn = transport::taps::Preconnection{}
               .WithLocal(local)
               .WithRemote(remote)
               .Initiate(medium);
  p.receiver = std::make_unique<vca::SpatialPersonaReceiver>(
      &medium.sim(), std::map<std::uint8_t, const mesh::TriangleMesh*>{},
      /*reconstruct_stride=*/9, fps);
  p.receiver->set_self_id(id);
  p.conn->set_on_received(
      [rx = p.receiver.get()](std::span<const std::uint8_t> data) { rx->OnDatagram(data); });
  p.sender = std::make_unique<vca::SpatialPersonaSender>(
      &medium.sim(), p.conn->quic(), id, seed * 77 + id, semantic::SemanticCodecConfig{}, fps);
  return p;
}

/// Shared tail of both client modes: start senders once handshakes settle,
/// run to `end` (+ drain), then report and gate on >0 decoded frames.
int FinishClient(const core::Flags& flags, net::Simulator& sim,
                 std::vector<ClientPersona>& personas, net::SimTime end,
                 const std::function<void(net::SimTime)>& run_until,
                 const net::WallClockStats* wall) {
  sim.After(net::Millis(300), [&personas, end] {
    for (ClientPersona& p : personas) p.sender->Start(end);
  });
  run_until(end + net::Millis(500));  // drain in-flight frames past the send window

  std::uint64_t sent = 0, decoded = 0;
  for (const ClientPersona& p : personas) {
    sent += p.sender->frames_sent();
    decoded += p.receiver->total_frames_decoded();
  }

  if (flags.GetBool("json", false)) {
    core::JsonWriter w;
    w.BeginObject();
    w.Key("personas");
    w.Int(static_cast<std::int64_t>(personas.size()));
    w.Key("frames_sent");
    w.Int(static_cast<std::int64_t>(sent));
    w.Key("frames_decoded");
    w.Int(static_cast<std::int64_t>(decoded));
    if (wall != nullptr) {
      w.Key("timers_fired");
      w.Int(static_cast<std::int64_t>(wall->timers_fired));
      w.Key("late_ticks");
      w.Int(static_cast<std::int64_t>(wall->late_ticks));
      w.Key("early_fires");
      w.Int(static_cast<std::int64_t>(wall->early_fires));
    }
    w.EndObject();
    std::cout << w.str() << "\n";
  } else {
    std::cout << "vtp client: " << personas.size() << " personas, " << sent
              << " frames sent, " << decoded << " frames decoded end-to-end\n";
    if (wall != nullptr) {
      std::cout << wall->timers_fired << " timers, " << wall->late_ticks << " late ticks ("
                << wall->coalesced_ticks << " coalesced), " << wall->early_fires
                << " early fires\n";
    }
    PrintStageTable(obs::Snapshot::Capture(sim.metrics(), &sim.tracer()), std::cout);
  }
  if (!DumpObsSnapshot(flags, "client", sim)) return 1;
  if (wall != nullptr && wall->early_fires != 0) return 1;
  // The end-to-end delivery gate: persona frames must have round-tripped
  // through the SFU and decoded. (With one persona nothing fans back.)
  return personas.size() < 2 || decoded > 0 ? 0 : 1;
}

int CmdClient(const core::Flags& flags) {
  const int persona_count = static_cast<int>(flags.GetInt("personas", 2));
  const double duration_s = flags.GetDouble("duration", 5);
  const double fps = flags.GetDouble("fps", 90);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  const auto port_base = static_cast<std::uint16_t>(flags.GetInt("port-base", 9000));
  const auto id_base = static_cast<std::uint8_t>(flags.GetInt("id-base", 0));
  const std::string medium_kind = flags.Get("medium", "sim");
  const net::SimTime end = net::Seconds(duration_s);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  if (medium_kind == "socket") {
    const auto [host, port] = ParseHostPort(flags.Get("connect", "127.0.0.1:4433"));
    net::SocketMedium medium(seed, "0.0.0.0", net::Ipv4ToNode("127.0.0.1"));
    medium.sim().tracer().Enable(/*max_spans=*/8192);
    const transport::taps::Endpoint remote{net::Ipv4ToNode(host), port};
    std::vector<ClientPersona> personas;
    for (int i = 0; i < persona_count; ++i) {
      personas.push_back(MakePersona(
          medium, {medium.local_node(), static_cast<std::uint16_t>(port_base + i)}, remote,
          static_cast<std::uint8_t>(id_base + i), fps, seed));
    }
    std::cerr << "vtp client: " << persona_count << " personas -> " << host << ":" << port
              << " for " << core::Fmt(duration_s, 1) << " s (socket medium)\n";
    return FinishClient(
        flags, medium.sim(), personas, end,
        [&](net::SimTime until) {
          while (!g_stop && medium.sim().now() < until) medium.Pump(/*max_wait_ms=*/50);
        },
        &medium.wall_stats());
  }

  // sim medium: a self-contained star topology with an in-process SFU —
  // byte-deterministic, no sockets (the CLI smoke tests run this mode).
  net::Simulator sim(seed);
  sim.tracer().Enable(/*max_spans=*/8192);
  net::Network network(&sim);
  const net::GeoPoint here{41.88, -87.63};
  const net::NodeId hub = network.AddNode("hub", here, net::Region::kMiddleUs, true);
  const net::LinkConfig access{.rate_bps = 1e9, .prop_delay = net::Millis(1)};
  const net::NodeId server = network.AddNode("sfu", here, net::Region::kMiddleUs, false);
  network.Connect(server, hub, access);
  std::vector<net::NodeId> clients;
  for (int i = 0; i < persona_count; ++i) {
    clients.push_back(
        network.AddNode("c" + std::to_string(i), here, net::Region::kMiddleUs, false));
    network.Connect(clients.back(), hub, access);
  }
  network.ComputeRoutes();
  const auto port = static_cast<std::uint16_t>(flags.GetInt("port", 4433));
  vca::SfuServer sfu(&network, server, port, vca::TransportKind::kQuicDatagram);

  std::vector<ClientPersona> personas;
  for (int i = 0; i < persona_count; ++i) {
    personas.push_back(MakePersona(
        network, {clients[static_cast<std::size_t>(i)], static_cast<std::uint16_t>(port_base + i)},
        {server, port}, static_cast<std::uint8_t>(id_base + i), fps, seed));
  }
  std::cerr << "vtp client: " << persona_count << " personas, in-process SFU for "
            << core::Fmt(duration_s, 1) << " s (sim medium)\n";
  return FinishClient(flags, sim, personas, end,
                      [&](net::SimTime until) { sim.RunUntil(until); }, nullptr);
}

int CmdRtt(const core::Flags& flags) {
  core::RttProbeSpec spec;
  for (const std::string& metro : flags.GetList("clients")) {
    spec.clients.push_back({metro, metro});
  }
  if (spec.clients.empty()) {
    spec.clients = {{"W", "SanFrancisco"}, {"M", "Dallas"}, {"E", "NewYork"}};
  }
  for (const std::string& app_name : flags.GetList("apps")) {
    const vca::VcaProfile& profile = vca::GetProfile(ParseApp(app_name));
    for (const std::string_view metro : profile.server_metros) {
      spec.servers.push_back({std::string(profile.name), std::string(metro)});
    }
  }
  for (const std::string& metro : flags.GetList("servers")) {
    spec.servers.push_back({metro, metro});
  }
  if (spec.servers.empty()) {
    std::cerr << "vtp rtt: need --apps=... and/or --servers=...\n";
    return 2;
  }
  spec.pings_per_pair = static_cast<int>(flags.GetInt("pings", 10));
  const core::RttMatrix result = core::MeasureRttMatrix(spec);

  if (flags.GetBool("json", false)) {
    core::JsonWriter w;
    w.BeginObject();
    w.Key("servers");
    w.BeginArray();
    for (std::size_t s = 0; s < spec.servers.size(); ++s) {
      w.BeginObject();
      w.Key("label");
      w.String(spec.servers[s].label);
      w.Key("metro");
      w.String(spec.servers[s].metro);
      w.Key("region");
      w.String(std::string(net::RegionCode(result.server_regions[s])));
      w.EndObject();
    }
    w.EndArray();
    w.Key("rtt_ms");
    w.BeginArray();
    for (const auto& row : result.rtt_ms) {
      w.BeginArray();
      for (const core::Summary& s : row) w.Number(s.mean);
      w.EndArray();
    }
    w.EndArray();
    w.EndObject();
    std::cout << w.str() << "\n";
    return 0;
  }

  core::TextTable table;
  std::vector<std::string> header = {"client"};
  for (std::size_t s = 0; s < spec.servers.size(); ++s) {
    header.push_back(spec.servers[s].label + "." +
                     std::string(net::RegionCode(result.server_regions[s])));
  }
  table.SetHeader(header);
  for (std::size_t c = 0; c < spec.clients.size(); ++c) {
    std::vector<std::string> row = {spec.clients[c].label};
    for (const core::Summary& s : result.rtt_ms[c]) row.push_back(core::Fmt(s.mean, 1));
    table.AddRow(row);
  }
  table.Print(std::cout);
  return 0;
}

int CmdProbe(const core::Flags& flags) {
  core::DisplayLatencyConfig config;
  config.mode = flags.Get("mode", "local") == "remote"
                    ? core::DeliveryMode::kRemotePrerendered
                    : core::DeliveryMode::kLocalReconstruction;
  config.injected_delay = net::Millis(flags.GetDouble("delay-ms", 0));
  const core::DisplayLatencyResult r = core::MeasureDisplayLatency(config);

  if (flags.GetBool("json", false)) {
    core::JsonWriter w;
    w.BeginObject();
    w.Key("mode");
    w.String(flags.Get("mode", "local"));
    w.Key("injected_delay_ms");
    w.Number(net::ToMillis(config.injected_delay));
    w.Key("real_world_ms");
    w.Number(r.real_world_ms);
    w.Key("persona_ms");
    w.Number(r.persona_ms);
    w.Key("difference_ms");
    w.Number(r.difference_ms);
    w.EndObject();
    std::cout << w.str() << "\n";
  } else {
    std::cout << "real-world: " << core::Fmt(r.real_world_ms, 1) << " ms, persona: "
              << core::Fmt(r.persona_ms, 1) << " ms, difference: "
              << core::Fmt(r.difference_ms, 1) << " ms\n";
  }
  return 0;
}

// Dumps every registered VTP_* knob: name, type, default, the value it
// currently resolves to, and whether the environment overrides it. The
// catalogue is populated by including core/knobs.h above — each knob handle
// self-registers with core::Config during static initialization.
int CmdKnobs(const core::Flags& flags) {
  const std::vector<const core::Config::KnobInfo*> knobs = core::Config::Instance().List();

  if (flags.GetBool("json", false)) {
    core::JsonWriter w;
    w.BeginObject();
    w.Key("knobs");
    w.BeginArray();
    for (const core::Config::KnobInfo* k : knobs) {
      w.BeginObject();
      w.Key("name");
      w.String(k->name);
      w.Key("type");
      w.String(k->type);
      w.Key("default");
      w.String(k->def);
      w.Key("current");
      w.String(k->current());
      w.Key("overridden");
      w.Bool(k->overridden());
      w.Key("help");
      w.String(k->help);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::cout << w.str() << "\n";
    return 0;
  }

  core::TextTable table;
  table.SetHeader({"knob", "type", "default", "current", "set", "help"});
  for (const core::Config::KnobInfo* k : knobs) {
    table.AddRow({k->name, k->type, k->def, k->current(), k->overridden() ? "env" : "-",
                  k->help});
  }
  table.Print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const core::Flags flags(argc, argv);
  if (flags.GetBool("knobs", false)) return CmdKnobs(flags);
  if (flags.positional().empty()) return Usage();
  const std::string command = flags.positional().front();
  try {
    if (command == "run") return CmdRun(flags);
    if (command == "serve") return CmdServe(flags);
    if (command == "client") return CmdClient(flags);
    if (command == "rtt") return CmdRtt(flags);
    if (command == "probe") return CmdProbe(flags);
    if (command == "knobs") return CmdKnobs(flags);
    return Usage();
  } catch (const std::exception& e) {
    std::cerr << "vtp " << command << ": " << e.what() << "\n";
    return 1;
  }
}
