// Micro-benchmarks (google-benchmark) for the hot code paths: the lzr
// compressor, the mesh codec, the video codec, the semantic pipeline, and
// QUIC packet processing over the simulator.
#include <benchmark/benchmark.h>

#include "audio/codec.h"
#include "audio/speech_source.h"
#include "compress/lzr.h"
#include "compress/lzr_stream.h"
#include "mesh/codec.h"
#include "mesh/generator.h"
#include "mesh/simplify.h"
#include "netsim/network.h"
#include "render/lod.h"
#include "semantic/codec.h"
#include "semantic/generator.h"
#include "semantic/reconstruct.h"
#include "transport/fec.h"
#include "transport/quic.h"
#include "video/codec.h"
#include "video/talking_head.h"

using namespace vtp;

namespace {

void BM_LzrCompressKeypointFrame(benchmark::State& state) {
  semantic::KeypointTrackGenerator gen({}, 1);
  semantic::SemanticEncoder enc({.lz_compress = false});
  const auto raw = enc.EncodeFrame(semantic::ExtractSemanticSubset(gen.Next()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress::LzrCompress(raw));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * raw.size()));
}
BENCHMARK(BM_LzrCompressKeypointFrame);

void BM_LzrEncoderCompressKeypointFrame(benchmark::State& state) {
  // Stateful streaming encoder on the paper's per-frame workload: the match
  // finder arena, range-coder scratch, and output buffer are reused across
  // iterations, so this measures the zero-allocation steady state that a
  // 90 FPS capture loop actually runs (compare against the free-function
  // variant above, which pays the arena setup every call).
  semantic::KeypointTrackGenerator gen({}, 1);
  semantic::SemanticEncoder enc(
      {.quantize_bits = 11, .temporal_delta = true, .lz_compress = false});
  const auto raw = enc.EncodeFrame(semantic::ExtractSemanticSubset(gen.Next()));
  compress::LzrEncoder lzr;
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    out.clear();
    lzr.CompressInto(raw, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * raw.size()));
}
BENCHMARK(BM_LzrEncoderCompressKeypointFrame);

void BM_LzrRoundTripText(benchmark::State& state) {
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 1000; ++i) {
    const std::string chunk = "spatial persona semantic communication ";
    data.insert(data.end(), chunk.begin(), chunk.end());
  }
  for (auto _ : state) {
    const auto compressed = compress::LzrCompress(data);
    benchmark::DoNotOptimize(compress::LzrDecompress(compressed));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * data.size()));
}
BENCHMARK(BM_LzrRoundTripText);

void BM_MeshEncodePersona(benchmark::State& state) {
  const mesh::TriangleMesh persona = mesh::GeneratePersona(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mesh::EncodeMesh(persona));
  }
  state.counters["triangles"] = static_cast<double>(persona.triangle_count());
}
BENCHMARK(BM_MeshEncodePersona)->Unit(benchmark::kMillisecond);

void BM_MeshSimplifyPersona(benchmark::State& state) {
  const mesh::TriangleMesh persona = mesh::GeneratePersona(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mesh::SimplifyGrid(persona, 64));
  }
}
BENCHMARK(BM_MeshSimplifyPersona)->Unit(benchmark::kMillisecond);

// One persona's whole asset build as session setup runs it: the generator,
// both bisected LODs and the 36-triangle proxy.
void BM_PersonaLodLadder(benchmark::State& state) {
  const render::LodPolicy policy;
  for (auto _ : state) {
    const render::PersonaLodLadder ladder(1000, policy);
    benchmark::DoNotOptimize(ladder.TriangleCount(render::LodClass::kPeripheral));
  }
}
BENCHMARK(BM_PersonaLodLadder)->Unit(benchmark::kMillisecond);

void BM_SemanticEncodeFrame(benchmark::State& state) {
  semantic::KeypointTrackGenerator gen({}, 3);
  semantic::SemanticEncoder enc;
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.EncodeFrame(semantic::ExtractSemanticSubset(gen.Next())));
  }
}
BENCHMARK(BM_SemanticEncodeFrame);

void BM_PersonaReconstruction(benchmark::State& state) {
  semantic::PersonaReconstructor recon(mesh::GeneratePersona(4));
  semantic::KeypointTrackGenerator gen({}, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(recon.Apply(semantic::ExtractSemanticSubset(gen.Next())));
  }
}
BENCHMARK(BM_PersonaReconstruction);

void BM_VideoEncode360p(benchmark::State& state) {
  video::TalkingHeadConfig config;
  config.resolution = video::kZoomResolution;
  video::TalkingHeadSource source(config, 5);
  video::VideoEncoder encoder(config.resolution);
  const video::VideoFrame frame = source.Next();
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Encode(frame, 28));
  }
  state.counters["pixels"] =
      static_cast<double>(config.resolution.width) * config.resolution.height;
}
BENCHMARK(BM_VideoEncode360p)->Unit(benchmark::kMillisecond);

void BM_AudioEncodeFrame(benchmark::State& state) {
  audio::SpeechSource source({}, 1);
  audio::AudioEncoder encoder({.quality = 5, .dtx = false});
  const audio::AudioFrame frame = source.Next();
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.EncodeFrame(frame));
  }
}
BENCHMARK(BM_AudioEncodeFrame);

void BM_FecProtectGroup(benchmark::State& state) {
  transport::FecEncoder encoder(4);
  const std::vector<std::uint8_t> payload(900, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Protect(payload));
  }
}
BENCHMARK(BM_FecProtectGroup);

void BM_QuicDatagramEcho(benchmark::State& state) {
  // One full round: datagram over the simulated WAN, SFU-style echo back.
  net::Simulator sim(1);
  net::Network network(&sim);
  network.BuildBackbone();
  const auto a = network.AddHost("a", "SanFrancisco");
  const auto b = network.AddHost("b", "NewYork");
  network.ComputeRoutes();
  transport::QuicEndpoint client(&network, a, 9000), server(&network, b, 4433);
  server.set_on_accept([](transport::QuicConnection* conn) {
    conn->set_on_datagram([conn](std::span<const std::uint8_t> d) { conn->SendDatagram(d); });
  });
  transport::QuicConnection* conn = client.Connect(b, 4433);
  std::uint64_t received = 0;
  conn->set_on_datagram([&](std::span<const std::uint8_t>) { ++received; });
  sim.RunUntil(net::Millis(300));

  const std::vector<std::uint8_t> payload(900, 7);
  for (auto _ : state) {
    conn->SendDatagram(payload);
    sim.RunUntil(sim.now() + net::Millis(200));
  }
  state.counters["echoed"] = static_cast<double>(received);
}
BENCHMARK(BM_QuicDatagramEcho)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
