// vtpbench — one process's worth of one north-star workload.
//
//   vtpbench <facetime5|webex2|fleet10k|loopback4> --seed=N [--reps=K] [--trace] [--short]
//
// Builds the workload's world (the first build timed as the cold setup),
// runs it (timed in wall and process CPU), checks its outputs, and prints
// one JSON object on stdout with the raw measurements and every check.
// --reps=K runs K phases in the process, phase k on seed N+k and on a
// freshly built world.
// perfbench/run.py spawns fresh processes, so setup is always paid cold
// (video::CalibratedRateModel::For caches for the life of a process), and
// folds them into the benchmark's metrics.
//
// --trace adds the per-layer numbers. They are timed from here, around calls
// into each layer's public functions, replaying the seeds and inputs the
// workload itself used (vca/session.cc derives them from the session seed);
// loopback4 instead times the live run through a net::Medium decorator.
// --short shrinks every workload for the self-test.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "audio/codec.h"
#include "audio/speech_source.h"
#include "compress/codec_engine.h"
#include "compress/lzr.h"
#include "compress/varint.h"
#include "core/json.h"
#include "netsim/socket_medium.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "render/lod.h"
#include "render/scenario.h"
#include "render/visibility.h"
#include "semantic/codec.h"
#include "semantic/generator.h"
#include "semantic/keypoints.h"
#include "semantic/reconstruct.h"
#include "transport/taps.h"
#include "vca/fleet.h"
#include "vca/pipelines.h"
#include "vca/session.h"
#include "vca/sfu.h"
#include "video/rate_model.h"

using namespace vtp;

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of the whole process (every thread).
double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// CPU seconds of the calling thread.
double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set of this process image. VmHWM rather than ru_maxrss:
/// ru_maxrss survives execve, so a small benchmark process would report the
/// high-water mark of the interpreter that spawned it.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Accumulated wall time and call count of one layer's calls.
struct LayerTimer {
  double seconds = 0;
  std::uint64_t calls = 0;

  template <typename F>
  decltype(auto) Time(F&& f) {
    const Clock::time_point t0 = Clock::now();
    struct Stop {
      LayerTimer* timer;
      Clock::time_point t0;
      ~Stop() {
        timer->seconds += Since(t0);
        ++timer->calls;
      }
    } stop{this, t0};
    return f();
  }
  double us_per_call() const { return calls == 0 ? 0 : seconds * 1e6 / static_cast<double>(calls); }
};

/// Sum of every counter whose name starts with `prefix` and ends with `suffix`.
std::uint64_t SumCounters(const obs::Snapshot& snap, const std::string& prefix,
                          const std::string& suffix) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.size() >= prefix.size() + suffix.size() && name.starts_with(prefix) &&
        name.ends_with(suffix)) {
      total += value;
    }
  }
  return total;
}

/// One run phase: the world runs to completion once.
struct Phase {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t frames = 0;     ///< frames decoded (the frames_per_wall_s numerator)
  std::uint64_t expected = 0;   ///< frames sent x receivers
  std::uint64_t delivered = 0;  ///< frames of `expected` that arrived and decoded
  /// Wall-clock capture-to-decode time of every decoded frame, and the p99
  /// of each latency window of capture time (loopback4 only; batch
  /// workloads have no real-time clock for a frame).
  std::vector<double> latency_ms;
  std::vector<double> window_p99_ms;
};

/// What one process reports: one cold setup, then one or more run phases
/// (later phases build their world again, warm). run.py turns these into
/// metrics.
struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  double setup_s = 0;
  std::vector<Phase> phases;
  std::map<std::string, double> layers;  ///< per-layer metrics (--trace)
  std::map<std::string, double> info;    ///< output-check context
  std::map<std::string, bool> checks;    ///< name -> passed in every phase

  void Check(const std::string& name, bool ok) {
    const auto [it, fresh] = checks.emplace(name, ok);
    if (!fresh) it->second = it->second && ok;
  }
  void Layer(const std::string& name, double value) { layers[name] = value; }
  void Info(const std::string& name, double value) { info[name] = value; }

  /// Starts a phase: the caller has just built its world.
  Phase& NewPhase() { return phases.emplace_back(); }
  Phase& phase() { return phases.back(); }

  bool ok() const {
    return std::all_of(checks.begin(), checks.end(), [](const auto& c) { return c.second; });
  }

  std::string ToJson() const {
    core::JsonWriter w;
    w.BeginObject();
    w.Key("workload"); w.String(workload);
    w.Key("seed"); w.Int(static_cast<std::int64_t>(seed));
    w.Key("trace"); w.Bool(trace);
#ifdef NDEBUG
    w.Key("ndebug"); w.Bool(true);
#else
    w.Key("ndebug"); w.Bool(false);
#endif
    w.Key("setup_s"); w.Number(setup_s);
    w.Key("phases");
    w.BeginArray();
    for (const Phase& p : phases) {
      w.BeginObject();
      w.Key("wall_s"); w.Number(p.wall_s);
      w.Key("cpu_s"); w.Number(p.cpu_s);
      w.Key("frames"); w.Int(static_cast<std::int64_t>(p.frames));
      w.Key("expected"); w.Int(static_cast<std::int64_t>(p.expected));
      w.Key("delivered"); w.Int(static_cast<std::int64_t>(p.delivered));
      w.Key("latency_ms");
      w.BeginArray();
      for (const double ms : p.latency_ms) w.Number(ms);
      w.EndArray();
      w.Key("window_p99_ms");
      w.BeginArray();
      for (const double ms : p.window_p99_ms) w.Number(ms);
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.Key("peak_rss_mb"); w.Number(PeakRssMb());
    w.Key("layers");
    w.BeginObject();
    for (const auto& [name, value] : layers) {
      w.Key(name);
      w.Number(value);
    }
    w.EndObject();
    w.Key("info");
    w.BeginObject();
    for (const auto& [name, value] : info) {
      w.Key(name);
      w.Number(value);
    }
    w.EndObject();
    w.Key("checks");
    w.BeginObject();
    for (const auto& [name, passed] : checks) {
      w.Key(name);
      w.Bool(passed);
    }
    w.EndObject();
    w.Key("ok"); w.Bool(ok());
    w.EndObject();
    return w.str();
  }
};

/// Nearest-rank quantile of a non-empty `v` (sorted in place).
double Quantile(std::vector<double>& v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

/// Builds a world (timing the first build as the cold setup), then runs one
/// phase of it, timed in wall and process CPU.
template <typename World, typename Build, typename Run>
std::unique_ptr<World> TimedPhase(Report& r, Build&& build, Run&& run) {
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<World> world = build();
  if (r.phases.empty()) r.setup_s = Since(t0);
  Phase& p = r.NewPhase();
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t1 = Clock::now();
  run(*world);
  p.wall_s = Since(t1);
  p.cpu_s = ProcessCpuSeconds() - cpu0;
  return world;
}

// ---------------------------------------------------------------------------
// facetime5 — Fig. 6: five Vision Pros on FaceTime, everything on.
// ---------------------------------------------------------------------------

vca::SessionConfig FaceTime5Config(std::uint64_t seed, bool short_run) {
  vca::SessionConfig config;
  config.app = vca::VcaApp::kFaceTime;
  const char* names[] = {"U1", "U2", "U3", "U4", "U5"};
  const char* metros[] = {"SanFrancisco", "NewYork", "Chicago", "Dallas", "Seattle"};
  for (std::size_t i = 0; i < 5; ++i) {
    config.participants.push_back(
        {.name = names[i], .metro = metros[i], .device = vca::DeviceType::kVisionPro});
  }
  config.duration = net::Seconds(short_run ? 2 : 8);
  config.seed = seed;
  return config;  // audio, render loops and reconstruction (stride 9) on by default
}

/// Replays the session's own per-layer work with its seeds, checking that
/// the replay reproduces the session's wire bytes, audio and render counts.
void TraceFaceTime5(vca::TelepresenceSession& session, const vca::SessionConfig& config,
                    Report& r) {
  const std::size_t n = config.participants.size();
  const obs::Snapshot snap = obs::Snapshot::Capture(session.sim().metrics());
  r.Layer("netsim.events", static_cast<double>(session.sim().events_executed()));
  r.Layer("netsim.datagrams", static_cast<double>(snap.counter("net.udp.datagrams_delivered")));
  r.Layer("transport.quic_packets", static_cast<double>(SumCounters(snap, "quic.conn", ".packets_sent")));
  r.Layer("transport.quic_lost",
          static_cast<double>(SumCounters(snap, "quic.conn", ".packets_declared_lost")));
  r.Layer("vca.sfu_forwarded", static_cast<double>(SumCounters(snap, "sfu", ".forwarded")));
  const double lz_in = snap.gauge("codec.engine.bytes_in");
  r.Layer("compress.ratio", lz_in > 0 ? snap.gauge("codec.engine.bytes_out") / lz_in : 0);

  // Persona assets: the LOD ladders the session builds in its constructor.
  LayerTimer ladder_t;
  std::vector<std::unique_ptr<render::PersonaLodLadder>> ladders;
  for (std::size_t i = 0; i < n; ++i) {
    ladders.push_back(ladder_t.Time([&] {
      return std::make_unique<render::PersonaLodLadder>(config.seed * 1000 + i, config.lod_policy,
                                                        config.persona_triangles);
    }));
  }

  // Capture: every frame each sender shipped.
  std::vector<std::uint64_t> sent(n);
  std::uint64_t most = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sent[i] = session.spatial_sender(i)->frames_sent();
    most = std::max(most, sent[i]);
  }
  LayerTimer capture_t;
  std::vector<std::vector<std::vector<semantic::Vec3>>> subsets(n);
  for (std::size_t i = 0; i < n; ++i) {
    semantic::KeypointTrackGenerator gen(semantic::TrackConfig{.fps = config.spatial_fps},
                                         config.seed * 77 + i);
    for (std::uint64_t f = 0; f < sent[i]; ++f) {
      subsets[i].push_back(
          capture_t.Time([&] { return semantic::ExtractSemanticSubset(gen.Next()); }));
    }
  }

  // Encode through one shared engine, interleaved frame by frame as the
  // senders tick; the serialized bodies (lz off) feed the LZ-only timing.
  LayerTimer encode_t;
  compress::CodecEngine engine;
  semantic::SemanticCodecConfig plain_config = config.semantic_codec;
  plain_config.lz_compress = false;
  std::vector<semantic::SemanticEncoder> encoders, plain;
  encoders.reserve(n);
  plain.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    encoders.emplace_back(config.semantic_codec).AttachEngine(&engine);
    plain.emplace_back(plain_config);
  }
  std::vector<std::vector<std::vector<std::uint8_t>>> encoded(n);
  std::vector<std::vector<std::uint8_t>> bodies;
  std::uint64_t replay_wire_bytes = 0;
  for (std::uint64_t f = 0; f < most; ++f) {
    for (std::size_t i = 0; i < n; ++i) {
      if (f >= sent[i]) continue;
      std::vector<std::uint8_t> out;
      encode_t.Time([&] { encoders[i].EncodeFrameInto(subsets[i][f], out); });
      replay_wire_bytes += out.size() + 3;  // + [relay_tag][sender_id][media] wrapper
      encoded[i].push_back(std::move(out));
      std::vector<std::uint8_t> body = plain[i].EncodeFrame(subsets[i][f]);
      std::size_t header = 1;  // tag, then the uleb128 frame index
      compress::GetUleb128(body, &header);
      if (plain_config.quantize_bits > 0) ++header;
      bodies.emplace_back(body.begin() + static_cast<std::ptrdiff_t>(header), body.end());
    }
  }
  const std::uint64_t session_wire_bytes = SumCounters(snap, "persona.tx", ".payload_bytes_sent");
  r.Info("replay_wire_bytes", static_cast<double>(replay_wire_bytes));
  r.Info("session_wire_bytes", static_cast<double>(session_wire_bytes));
  r.Check("replay_semantic_bytes_match", replay_wire_bytes == session_wire_bytes);

  // The LZ stage alone on the same bodies.
  LayerTimer lz_encode_t, lz_decode_t;
  compress::CodecEngine lz_engine;
  std::vector<std::uint8_t> packed, unpacked;
  bool lz_roundtrip = true;
  for (const std::vector<std::uint8_t>& body : bodies) {
    packed.clear();
    lz_encode_t.Time([&] { lz_engine.CompressInto(body, packed); });
    lz_decode_t.Time([&] { compress::LzrDecompressInto(packed, unpacked); });
    lz_roundtrip = lz_roundtrip && unpacked == body;
  }
  r.Check("replay_lz_roundtrip", lz_roundtrip);

  // Decode per (receiver, sender) stream, reconstructing every Nth frame.
  LayerTimer decode_t, recon_setup_t, recon_t;
  struct Stream {
    semantic::SemanticDecoder decoder;
    std::unique_ptr<semantic::PersonaReconstructor> reconstructor;
    std::uint64_t since_reconstruct = 0;
  };
  std::map<std::pair<std::size_t, std::size_t>, Stream> streams;
  std::uint64_t decode_failures = 0;
  for (std::uint64_t f = 0; f < most; ++f) {
    for (std::size_t s = 0; s < n; ++s) {
      if (f >= sent[s]) continue;
      for (std::size_t rx = 0; rx < n; ++rx) {
        if (rx == s) continue;
        Stream& st = streams[{rx, s}];
        const std::optional<semantic::SemanticFrame> frame =
            decode_t.Time([&] { return st.decoder.DecodeFrame(encoded[s][f]); });
        if (!frame) {
          ++decode_failures;
          continue;
        }
        if (config.enable_reconstruction && ++st.since_reconstruct >= config.reconstruct_stride) {
          st.since_reconstruct = 0;
          if (!st.reconstructor) {
            st.reconstructor = recon_setup_t.Time([&] {
              return std::make_unique<semantic::PersonaReconstructor>(ladders[s]->base());
            });
          }
          recon_t.Time([&] { st.reconstructor->Apply(frame->points); });
        }
      }
    }
  }
  r.Check("replay_decodes_clean", decode_failures == 0);

  // Voice: every receiver counts each sender's audio frames; all must agree,
  // and the replay encodes that many. Voice rides in QUIC datagrams next to
  // the semantic stream and no session counter holds its bytes alone, so
  // unlike webex2 the replayed speech seeds are not byte-checked here.
  LayerTimer audio_t;
  const int audio_quality = vca::GetProfile(config.app).audio_quality;
  bool audio_agree = true;
  std::uint64_t audio_frames = 0;
  for (std::size_t i = 0; i < n && config.enable_audio; ++i) {
    const std::uint64_t frames = session.spatial_receiver(i == 0 ? 1 : 0)->remote(
        static_cast<std::uint8_t>(i)).audio_frames;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) {
        audio_agree = audio_agree && session.spatial_receiver(j)->remote(
                                         static_cast<std::uint8_t>(i)).audio_frames == frames;
      }
    }
    audio::SpeechSource source({}, config.seed * 53 + i);
    audio::AudioEncoder encoder({.quality = audio_quality, .dtx = true});
    for (std::uint64_t f = 0; f < frames; ++f) {
      audio_t.Time([&] { return encoder.EncodeFrame(source.Next()); });
    }
    audio_frames += frames;
  }
  r.Info("replay_audio_frames", static_cast<double>(audio_frames));
  r.Check("audio_frames_agree_across_receivers",
          audio_agree && (audio_frames > 0 || !config.enable_audio));

  // Render side: the seated-conversation scenario, visibility and LOD per
  // rendered frame. The replayed LOD histogram must equal the session's.
  LayerTimer vis_t;
  bool lod_match = true;
  for (std::size_t i = 0; i < n && config.enable_render; ++i) {
    render::ScenarioConfig scenario;
    scenario.remote_personas = n - 1;
    scenario.fps = config.render_fps;
    render::SeatedConversation conversation(scenario, config.seed * 997 + i);
    std::array<std::uint64_t, 5> hist{};
    const std::size_t frames = session.render_loop(i)->frames().size();
    for (std::size_t f = 0; f < frames; ++f) {
      vis_t.Time([&] {
        const render::FrameView view = conversation.Next();
        for (std::size_t k = 0; k < view.placements.size(); ++k) {
          std::vector<render::Placement> others;
          for (std::size_t m = 0; m < view.placements.size(); ++m) {
            if (m != k) others.push_back(view.placements[m]);
          }
          const render::Visibility vis =
              render::EvaluateVisibility(view.camera, view.placements[k], others);
          ++hist[static_cast<std::size_t>(render::SelectLod(vis, config.lod_policy))];
        }
      });
    }
    lod_match = lod_match && hist == session.lod_histogram(i);
  }
  r.Check("replay_render_lod_histogram_match", lod_match);

  r.Layer("render.lod_ladder_s", ladder_t.seconds);
  r.Layer("semantic.reconstruct_setup_s", recon_setup_t.seconds);
  r.Layer("semantic.capture_us", capture_t.us_per_call());
  r.Layer("semantic.encode_us", encode_t.us_per_call());
  r.Layer("semantic.decode_us", decode_t.us_per_call());
  r.Layer("compress.encode_us", lz_encode_t.us_per_call());
  r.Layer("compress.decode_us", lz_decode_t.us_per_call());
  r.Layer("semantic.reconstruct_us", recon_t.us_per_call());
  r.Layer("audio.encode_us", audio_t.us_per_call());
  r.Layer("render.visibility_us", vis_t.us_per_call());
  const double replayed = capture_t.seconds + encode_t.seconds + decode_t.seconds +
                          recon_setup_t.seconds + recon_t.seconds + audio_t.seconds +
                          vis_t.seconds;
  r.Layer("unattributed_share", 1.0 - replayed / r.phases.front().wall_s);
}

void RunFaceTime5(Report& r, bool short_run, int reps) {
  for (int k = 0; k < reps; ++k) {
    const vca::SessionConfig config = FaceTime5Config(r.seed + k, short_run);
    const std::size_t n = config.participants.size();
    const auto session = TimedPhase<vca::TelepresenceSession>(
        r, [&] { return std::make_unique<vca::TelepresenceSession>(config); },
        [](vca::TelepresenceSession& s) { s.Run(); });
    Phase& p = r.phase();
    std::uint64_t sent = 0, decoded = 0, failures = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sent += session->spatial_sender(i)->frames_sent();
      decoded += session->spatial_receiver(i)->total_frames_decoded();
      for (std::size_t j = 0; j < n; ++j) {
        if (j != i) {
          failures += session->spatial_receiver(i)->remote(static_cast<std::uint8_t>(j)).decode_failures;
        }
      }
    }
    p.expected = sent * (n - 1);
    p.delivered = std::min(decoded, p.expected);
    p.frames = decoded;
    const obs::FrameTracer& tracer = session->sim().tracer();
    r.Check("decoded_eq_fanout_x_sent", decoded == p.expected);
    r.Check("no_decode_failures", failures == 0);
    r.Check("no_dropped_spans", tracer.enabled() && tracer.dropped_spans() == 0);

    if (r.trace && k == 0) TraceFaceTime5(*session, config, r);
  }
}

// ---------------------------------------------------------------------------
// webex2 — Fig. 4 config "W": Webex 1080p, two MacBooks, RTP via the SFU.
// ---------------------------------------------------------------------------

/// Nominal wire rate of the full-quality spatial persona stream (rung 0 of
/// the semantic ladder at 90 FPS plus wrapper, QUIC and voice overhead), the
/// spatial uplink the paper contrasts 2D video against.
double SpatialUplinkMbps() {
  const double frame_bytes = vca::DefaultSemanticLadder().front().approx_frame_bytes + 50;
  return (frame_bytes * 8 * 90 + 50e3) / 1e6;
}

/// The webex2 checks and (traced) per-layer replay of a session that ran.
void CheckWebex2(Report& r, vca::TelepresenceSession& session, const vca::SessionConfig& config) {
  // RTP senders register in construction order: participant i's video
  // sender is rtp.tx<2i>, its voice sender rtp.tx<2i+1> (vca/session.cc).
  const std::size_t n = config.participants.size();
  const obs::Snapshot snap = obs::Snapshot::Capture(session.sim().metrics());
  const auto tx = [&](std::size_t k, const char* what) {
    return snap.counter("rtp.tx" + std::to_string(k) + "." + what);
  };
  std::uint64_t video_sent = 0, all_sent = 0, delivered = 0, damaged = 0, lost = 0;
  for (std::size_t i = 0; i < n; ++i) {
    video_sent += tx(2 * i, "frames_sent");
    all_sent += tx(2 * i, "frames_sent") + tx(2 * i + 1, "frames_sent");
    const std::string rx = "rtp.rx" + std::to_string(i) + ".";
    delivered += snap.counter(rx + "frames_delivered");
    damaged += snap.counter(rx + "frames_damaged");
    lost += snap.counter(rx + "packets_lost");
  }
  Phase& p = r.phase();
  p.expected = video_sent * (n - 1);
  r.Check("every_frame_received", delivered == all_sent * (n - 1) && damaged == 0 && lost == 0);
  p.delivered = delivered == all_sent * (n - 1) ? p.expected : 0;
  p.frames = p.delivered;
  r.Check("video_frames_sent", video_sent > 0);
  const vca::SessionReport report = session.BuildReport();
  bool above_spatial = true;
  for (const vca::ParticipantReport& p : report.participants) {
    above_spatial = above_spatial && p.uplink_mbps.mean > SpatialUplinkMbps();
    r.Info("uplink_mbps_" + p.name, p.uplink_mbps.mean);
  }
  r.Info("spatial_uplink_mbps", SpatialUplinkMbps());
  r.Check("webex_uplink_above_spatial", above_spatial);

  if (!r.trace || r.phases.size() != 1) return;
  r.Layer("netsim.events", static_cast<double>(session.sim().events_executed()));
  r.Layer("netsim.datagrams", static_cast<double>(snap.counter("net.udp.datagrams_delivered")));
  r.Layer("vca.sfu_forwarded", static_cast<double>(SumCounters(snap, "sfu", ".forwarded")));

  LayerTimer calibrate_t;
  const vca::VcaProfile& profile = vca::GetProfile(config.app);
  calibrate_t.Time([&] { return video::CalibratedRateModel(profile.persona_resolution); });
  r.Layer("video.calibrate_s", calibrate_t.seconds);

  // Voice replay: the same speech seeds; the encoded bytes must equal what
  // the session's voice RTP senders carried.
  LayerTimer audio_t;
  std::uint64_t replay_bytes = 0, session_bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    audio::SpeechSource source({}, config.seed * 53 + i);
    audio::AudioEncoder encoder({.quality = profile.audio_quality, .dtx = true});
    const std::uint64_t frames = tx(2 * i + 1, "frames_sent");
    for (std::uint64_t f = 0; f < frames; ++f) {
      replay_bytes += audio_t.Time([&] { return encoder.EncodeFrame(source.Next()); }).size();
    }
    session_bytes += tx(2 * i + 1, "payload_bytes_sent");
  }
  r.Info("replay_audio_bytes", static_cast<double>(replay_bytes));
  r.Info("session_audio_bytes", static_cast<double>(session_bytes));
  r.Check("replay_audio_bytes_match", replay_bytes == session_bytes);
  r.Layer("audio.encode_us", audio_t.us_per_call());
  r.Layer("unattributed_share", 1.0 - audio_t.seconds / p.wall_s);
}

void RunWebex2(Report& r, bool short_run, int reps) {
  vca::SessionConfig config;
  config.app = vca::VcaApp::kWebex;
  config.participants = {
      {.name = "U1", .metro = "SanFrancisco", .device = vca::DeviceType::kMacBook},
      {.name = "U2", .metro = "NewYork", .device = vca::DeviceType::kMacBook}};
  config.duration = net::Seconds(short_run ? 4 : 20);
  for (int k = 0; k < reps; ++k) {
    config.seed = r.seed + k;
    const auto session = TimedPhase<vca::TelepresenceSession>(
        r, [&] { return std::make_unique<vca::TelepresenceSession>(config); },
        [](vca::TelepresenceSession& s) { s.Run(); });
    CheckWebex2(r, *session, config);
  }
}

// ---------------------------------------------------------------------------
// fleet10k — 10k concurrent two-party sessions on the sharded fabric.
// ---------------------------------------------------------------------------

void RunFleet10k(Report& r, bool short_run, int reps) {
  vca::FleetConfig config;
  config.seed = r.seed;
  config.shards = 2;
  config.target_sessions = short_run ? 500 : 10000;
  config.duration = net::Seconds(short_run ? 2 : 6);
  config.mean_session_s = 60;
  config.diurnal_period_s = 20;
  config.path = "express";

  vca::FleetResult result;
  for (int k = 0; k < reps; ++k) {
    config.seed = r.seed + k;
    const auto fleet = TimedPhase<vca::FleetSim>(
        r, [&] { return std::make_unique<vca::FleetSim>(config); },
        [&](vca::FleetSim& f) { result = f.Run(); });
    Phase& p = r.phase();
    p.expected = result.frames_sent;
    p.delivered = std::min(result.frames_delivered, result.frames_sent);
    p.frames = result.frames_delivered;
    r.Info("sessions_scheduled", static_cast<double>(fleet->schedule().size()));
    r.Check("delivered_eq_sent", result.frames_delivered == result.frames_sent);
    r.Check("frames_sent", result.frames_sent > 0);
  }

  if (!r.trace) return;
  r.Layer("vca.fleet_schedule_s", r.setup_s);
  vca::FleetConfig single = config;
  single.shards = 1;
  vca::FleetSim fleet1(single);
  const Clock::time_point t2 = Clock::now();
  const vca::FleetResult one = fleet1.Run();
  const double one_wall = Since(t2);
  r.Check("digest_2shard_eq_1shard", one.digest == result.digest);
  const double fps2 = static_cast<double>(result.frames_delivered) / r.phase().wall_s;
  const double fps1 = static_cast<double>(one.frames_delivered) / one_wall;
  r.Layer("netsim.shard_speedup", fps2 / fps1);
  const double frames = static_cast<double>(std::max<std::uint64_t>(result.frames_delivered, 1));
  r.Layer("netsim.handoffs_per_frame", static_cast<double>(result.handoffs) / frames);
  r.Layer("netsim.spills", static_cast<double>(result.spills));
  r.Layer("netsim.windows", static_cast<double>(result.windows));
  r.Layer("netsim.hops", static_cast<double>(result.hops));
  r.Layer("netsim.fastforward_share",
          result.hops == 0 ? 0 : static_cast<double>(result.fastforwards) / static_cast<double>(result.hops));
  r.Layer("netsim.events", static_cast<double>(result.events));
}

// ---------------------------------------------------------------------------
// loopback4 — vtp serve + vtp client over 127.0.0.1 UDP, one process.
// ---------------------------------------------------------------------------

/// Wall time the calling thread spent inside timed calls nested in the
/// current handler (for handler self time). One pump thread per medium.
thread_local double tl_nested_s = 0;

/// Forwards to a real medium and times the calls through it: SendUdp, and
/// the self time of every bound DatagramHandler (transport parsing, the SFU
/// relay), nested sends and persona decodes excluded.
class TimedMedium final : public net::Medium {
 public:
  explicit TimedMedium(net::Medium* inner) : inner_(inner) {}

  void BindUdp(net::NodeId node, std::uint16_t port, net::DatagramHandler handler) override {
    inner_->BindUdp(node, port, [this, h = std::move(handler)](const net::Packet& p) {
      const double nested0 = tl_nested_s;
      const Clock::time_point t0 = Clock::now();
      h(p);
      const double dt = Since(t0);
      rx.seconds += dt - (tl_nested_s - nested0);
      ++rx.calls;
      tl_nested_s = nested0 + dt;
    });
  }
  void UnbindUdp(net::NodeId node, std::uint16_t port) override { inner_->UnbindUdp(node, port); }
  void SendUdp(net::NodeId src, std::uint16_t src_port, net::NodeId dst, std::uint16_t dst_port,
               const std::vector<std::uint8_t>& payload) override {
    const double s0 = send.seconds;
    send.Time([&] { inner_->SendUdp(src, src_port, dst, dst_port, payload); });
    tl_nested_s += send.seconds - s0;
  }
  void SendUdp(net::NodeId src, std::uint16_t src_port, net::NodeId dst, std::uint16_t dst_port,
               net::PacketBuffer payload) override {
    const double s0 = send.seconds;
    send.Time([&] { inner_->SendUdp(src, src_port, dst, dst_port, std::move(payload)); });
    tl_nested_s += send.seconds - s0;
  }
  net::Simulator& sim() override { return inner_->sim(); }

  LayerTimer send;
  LayerTimer rx;  ///< handler self time

 private:
  net::Medium* inner_;
};

struct Persona {
  std::unique_ptr<transport::taps::Connection> conn;
  std::unique_ptr<vca::SpatialPersonaSender> sender;
  std::unique_ptr<vca::SpatialPersonaReceiver> receiver;
};

/// One loopback phase on a freshly built world: the first one's build is
/// the cold setup.
void LoopbackPhase(Report& r, bool short_run, std::uint64_t seed) {
  constexpr int kPersonas = 4;
  constexpr double kFps = 90;
  // Half a second is 540 decodes at full rate, five of them beyond the p99.
  // A partial window at either edge of the run is left out.
  constexpr net::SimTime kLatencyWindow = net::Millis(500);
  constexpr std::size_t kMinWindowFrames = 400;
  const double send_s = short_run ? 1.0 : 2.0;
  // Ports from the pid, so concurrent runs on one host do not collide.
  const auto base_port = static_cast<std::uint16_t>(20000 + (getpid() % 4000) * 8);

  const Clock::time_point t0 = Clock::now();
  net::SocketMedium server_socket(seed, "127.0.0.1");
  net::SocketMedium client_socket(seed, "127.0.0.1");
  TimedMedium server_timed(&server_socket), client_timed(&client_socket);
  net::Medium& server = r.trace ? static_cast<net::Medium&>(server_timed) : server_socket;
  net::Medium& client = r.trace ? static_cast<net::Medium&>(client_timed) : client_socket;

  // Every (sender, receiver, frame) triple gets a span, with slack.
  const double frames_per_persona = (send_s + 1) * kFps;
  client.sim().tracer().Enable(static_cast<std::size_t>(
      frames_per_persona * kPersonas * (kPersonas - 1) * 1.2));
  vca::SfuServer sfu(&server, server_socket.local_node(), base_port,
                     vca::TransportKind::kQuicDatagram);
  LayerTimer decode_t;
  std::vector<Persona> personas;
  for (int i = 0; i < kPersonas; ++i) {
    Persona p;
    p.conn = transport::taps::Preconnection{}
                 .WithLocal({client_socket.local_node(), static_cast<std::uint16_t>(base_port + 1 + i)})
                 .WithRemote({server_socket.local_node(), base_port})
                 .Initiate(client);
    p.receiver = std::make_unique<vca::SpatialPersonaReceiver>(
        &client.sim(), std::map<std::uint8_t, const mesh::TriangleMesh*>{}, 9, kFps);
    p.receiver->set_self_id(static_cast<std::uint8_t>(i));
    vca::SpatialPersonaReceiver* rx = p.receiver.get();
    if (r.trace) {
      p.conn->set_on_received([rx, &decode_t](std::span<const std::uint8_t> data) {
        const double s0 = decode_t.seconds;
        decode_t.Time([&] { rx->OnDatagram(data); });
        tl_nested_s += decode_t.seconds - s0;
      });
    } else {
      p.conn->set_on_received([rx](std::span<const std::uint8_t> data) { rx->OnDatagram(data); });
    }
    p.sender = std::make_unique<vca::SpatialPersonaSender>(
        &client.sim(), p.conn->quic(), static_cast<std::uint8_t>(i), seed * 77 + i,
        semantic::SemanticCodecConfig{}, kFps);
    personas.push_back(std::move(p));
  }
  const auto all_ready = [&] {
    return std::all_of(personas.begin(), personas.end(),
                       [](const Persona& p) { return p.conn->ready(); });
  };
  while (!all_ready()) {
    if (Since(t0) > 10) throw std::runtime_error("loopback4: handshakes did not complete");
    server_socket.Pump(0);
    client_socket.Pump(1);
  }
  if (r.phases.empty()) r.setup_s = Since(t0);

  // Open loop: every persona captures at 90 FPS on the timer wheel for
  // send_s seconds, whatever the receivers do.
  server_timed.send = server_timed.rx = client_timed.send = client_timed.rx = decode_t = {};
  const net::WallClockStats server_wall0 = server_socket.wall_stats();
  const net::WallClockStats client_wall0 = client_socket.wall_stats();
  const std::uint64_t in0 = server_socket.datagrams_received() + client_socket.datagrams_received();
  const std::uint64_t out0 = server_socket.datagrams_sent() + client_socket.datagrams_sent();
  const std::uint64_t forwarded0 = sfu.forwarded_count();
  const net::SimTime start = client.sim().now() + net::Millis(5);
  const net::SimTime until = start + net::Seconds(send_s);
  client.sim().At(start, [&personas, until] {
    for (Persona& p : personas) p.sender->Start(until);
  });

  std::atomic<bool> stop{false};
  double server_cpu = 0, client_cpu = 0;
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t1 = Clock::now();
  std::thread server_thread([&] {
    const double c0 = ThreadCpuSeconds();
    while (!stop.load(std::memory_order_relaxed)) server_socket.Pump(5);
    server_cpu = ThreadCpuSeconds() - c0;
  });
  std::thread client_thread([&] {
    const double c0 = ThreadCpuSeconds();
    const net::SimTime drain = until + net::Millis(300);
    while (client_socket.sim().now() < drain) client_socket.Pump(5);
    client_cpu = ThreadCpuSeconds() - c0;
  });
  client_thread.join();
  stop = true;
  server_thread.join();
  Phase& phase = r.NewPhase();
  phase.wall_s = Since(t1);
  phase.cpu_s = ProcessCpuSeconds() - cpu0;

  std::uint64_t sent = 0, decoded = 0;
  for (const Persona& p : personas) {
    sent += p.sender->frames_sent();
    decoded += p.receiver->total_frames_decoded();
  }
  phase.expected = sent * (kPersonas - 1);
  phase.delivered = std::min(decoded, phase.expected);
  phase.frames = decoded;
  const net::WallClockStats& sw = server_socket.wall_stats();
  const net::WallClockStats& cw = client_socket.wall_stats();
  const obs::FrameTracer& tracer = client.sim().tracer();
  r.Check("decoded_eq_3x_sent", decoded == phase.expected && sent > 0);
  r.Check("no_early_fires", sw.early_fires == 0 && cw.early_fires == 0);
  r.Check("no_dropped_spans", tracer.dropped_spans() == 0 && tracer.orphan_completions() == 0);

  // Capture-to-decode wall time of every frame, and the p99 of each
  // latency window by capture time. A stall of a shared host delays a burst
  // of frames inside one window, so the median window p99 (run.py) shows
  // the program's tail rather than how often the host stalled.
  std::map<net::SimTime, std::vector<double>> windows;
  for (const obs::FrameSpan& span : tracer.spans()) {
    if (!span.has(obs::Stage::kCapture) || !span.has(obs::Stage::kDecode)) continue;
    const double ms = net::ToMillis(span.at(obs::Stage::kDecode) - span.at(obs::Stage::kCapture));
    phase.latency_ms.push_back(ms);
    windows[(span.at(obs::Stage::kCapture) - start) / kLatencyWindow].push_back(ms);
  }
  for (auto& [index, ms] : windows) {
    if (ms.size() >= kMinWindowFrames) phase.window_p99_ms.push_back(Quantile(ms, 0.99));
  }
  r.Check("latency_sample_per_decode", phase.latency_ms.size() == decoded);

  if (!r.trace || r.phases.size() != 1) return;
  const double frames = static_cast<double>(std::max<std::uint64_t>(decoded, 1));
  const auto timers = [](const net::WallClockStats& now, const net::WallClockStats& then) {
    return std::make_pair(now.late_ticks - then.late_ticks, now.timers_fired - then.timers_fired);
  };
  const auto [server_late, server_fired] = timers(sw, server_wall0);
  const auto [client_late, client_fired] = timers(cw, client_wall0);
  const double fired = static_cast<double>(server_fired + client_fired);
  const double sends = static_cast<double>(server_timed.send.calls + client_timed.send.calls);
  const double handled = static_cast<double>(server_timed.rx.calls + client_timed.rx.calls);
  r.Layer("netsim.send_us",
          (server_timed.send.seconds + client_timed.send.seconds) * 1e6 / std::max(sends, 1.0));
  r.Layer("transport.rx_us",
          (server_timed.rx.seconds + client_timed.rx.seconds) * 1e6 / std::max(handled, 1.0));
  r.Layer("semantic.decode_us", decode_t.us_per_call());
  r.Layer("netsim.server_cpu_us", server_cpu * 1e6 / frames);
  r.Layer("netsim.client_cpu_us", client_cpu * 1e6 / frames);
  r.Layer("netsim.late_tick_share",
          fired > 0 ? static_cast<double>(server_late + client_late) / fired : 0);
  r.Layer("netsim.datagrams_in", static_cast<double>(server_socket.datagrams_received() +
                                                     client_socket.datagrams_received() - in0));
  r.Layer("netsim.datagrams_out", static_cast<double>(server_socket.datagrams_sent() +
                                                      client_socket.datagrams_sent() - out0));
  r.Layer("vca.sfu_forwarded", static_cast<double>(sfu.forwarded_count() - forwarded0));
  r.Layer("trace.cpu_us_per_frame", phase.cpu_s * 1e6 / frames);
}

void RunLoopback4(Report& r, bool short_run, int reps) {
  for (int k = 0; k < reps; ++k) LoopbackPhase(r, short_run, r.seed + k);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: vtpbench <facetime5|webex2|fleet10k|loopback4> --seed=N "
                 "[--reps=K] [--trace] [--short]\n";
    return 2;
  }
  Report r;
  r.workload = argv[1];
  bool short_run = false;
  int reps = 1;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.starts_with("--seed=")) {
      r.seed = std::stoull(arg.substr(7));
    } else if (arg.starts_with("--reps=")) {
      reps = std::max(1, std::stoi(arg.substr(7)));
    } else if (arg == "--trace") {
      r.trace = true;
    } else if (arg == "--short") {
      short_run = true;
    } else {
      std::cerr << "vtpbench: unknown argument " << arg << "\n";
      return 2;
    }
  }
  try {
    if (r.workload == "facetime5") {
      RunFaceTime5(r, short_run, reps);
    } else if (r.workload == "webex2") {
      RunWebex2(r, short_run, reps);
    } else if (r.workload == "fleet10k") {
      RunFleet10k(r, short_run, reps);
    } else if (r.workload == "loopback4") {
      RunLoopback4(r, short_run, reps);
    } else {
      std::cerr << "vtpbench: unknown workload " << r.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "vtpbench " << r.workload << ": " << e.what() << "\n";
    return 1;
  }
  std::cout << r.ToJson() << std::endl;
  return r.ok() ? 0 : 1;
}
