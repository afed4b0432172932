// Compression hot-path benchmark: the persistent LzrEncoder (arena match
// finder, fused tokenize+range-encode) on the payloads the spatial persona
// pipeline compresses.
//
//   1. keypoint @ 90 FPS — the workload the paper's spatial persona actually
//      runs: ~900-byte semantic frames, 2,000 of them (the paper's capture
//      length), compressed one frame at a time;
//   2. corpora — random / repetitive / constant / text / mesh-residual
//      streams, checking round-trips and counting-sink sizes away from the
//      sweet spot;
//   3. steady-state allocations — a global operator-new counter around the
//      warm encode loops (EncodeFrameInto and LzrEncoder::CompressInto must
//      not touch the heap once buffers are warm).
//
// Every workload asserts byte-identical decompressed output; the compressed
// bytes themselves are pinned by the tier-1 goldens in
// test_compress_stream.cc. Results go to BENCH_compress.json (override with
// VTP_BENCH_JSON); `--smoke` shrinks the run for CI. Exit is nonzero on any
// correctness failure or steady-state allocation.
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/report.h"
#include "compress/lzr.h"
#include "compress/lzr_stream.h"
#include "core/json.h"
#include "mesh/generator.h"
#include "semantic/codec.h"
#include "semantic/generator.h"

using namespace vtp;

// ---- allocation counter -----------------------------------------------------
// Counts every operator-new in the process; the steady-state sections reset
// it around warm loops. Single-threaded bench, but atomic keeps it honest.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using Chunks = std::vector<std::vector<std::uint8_t>>;

// ---- workloads --------------------------------------------------------------

/// Raw (pre-compression) semantic payloads: what the persona pipeline hands
/// to lzr every 1/90 s. lz_compress=false so the bench owns the compression.
/// The headline workload is the quantized temporal-delta stream — the
/// paper's §4.3 bandwidth argument compresses keypoint *deltas*; raw float32
/// frames barely compress (ratio ~0.93) and are kept as a secondary workload
/// to show the near-incompressible case.
Chunks KeypointPayloads(int frames, semantic::SemanticCodecConfig config) {
  semantic::KeypointTrackGenerator generator({}, 9);
  config.lz_compress = false;
  semantic::SemanticEncoder encoder(config);
  Chunks out;
  out.reserve(static_cast<std::size_t>(frames));
  for (int i = 0; i < frames; ++i) {
    out.push_back(encoder.EncodeFrame(semantic::ExtractSemanticSubset(generator.Next())));
  }
  return out;
}

/// Quantized-position residual stream of a head scan, split into per-frame
/// sized chunks: the byte distribution a delta mesh codec would feed lzr.
Chunks MeshResidualChunks(std::size_t triangles, int chunks) {
  const mesh::TriangleMesh head = mesh::GenerateHead(triangles, 11);
  const mesh::Aabb box = head.Bounds();
  const mesh::Vec3 size = box.Size();
  const std::uint32_t grid = (1u << 14) - 1;
  const auto quantize = [&](float v, float lo, float extent) -> std::int32_t {
    return extent <= 0 ? 0
                       : static_cast<std::int32_t>((v - lo) / extent * static_cast<float>(grid));
  };
  std::vector<std::uint8_t> stream;
  std::int32_t prev[3] = {0, 0, 0};
  for (const mesh::Vec3& p : head.positions) {
    const std::int32_t q[3] = {quantize(p.x, box.min.x, size.x), quantize(p.y, box.min.y, size.y),
                               quantize(p.z, box.min.z, size.z)};
    for (int c = 0; c < 3; ++c) {
      const std::int32_t d = q[c] - prev[c];
      prev[c] = q[c];
      const auto zigzag =
          static_cast<std::uint32_t>((static_cast<std::uint32_t>(d) << 1) ^
                                     static_cast<std::uint32_t>(d >> 31));
      compress::PutUleb128(stream, zigzag);
    }
  }
  Chunks out;
  const std::size_t per = stream.size() / static_cast<std::size_t>(chunks) + 1;
  for (std::size_t off = 0; off < stream.size(); off += per) {
    const std::size_t len = std::min(per, stream.size() - off);
    out.emplace_back(stream.begin() + static_cast<std::ptrdiff_t>(off),
                     stream.begin() + static_cast<std::ptrdiff_t>(off + len));
  }
  return out;
}

Chunks RandomCorpus(std::size_t chunk_bytes, int chunks) {
  std::mt19937 rng(1234);
  Chunks out;
  for (int c = 0; c < chunks; ++c) {
    std::vector<std::uint8_t> v(chunk_bytes);
    for (auto& b : v) b = static_cast<std::uint8_t>(rng());
    out.push_back(std::move(v));
  }
  return out;
}

Chunks RepetitiveCorpus(std::size_t chunk_bytes, int chunks) {
  std::mt19937 rng(99);
  Chunks out;
  for (int c = 0; c < chunks; ++c) {
    std::vector<std::uint8_t> v;
    v.reserve(chunk_bytes);
    const char* motif = "abcdefg";
    while (v.size() < chunk_bytes) {
      v.push_back(static_cast<std::uint8_t>(motif[v.size() % 7]));
      if (rng() % 257 == 0) v.back() ^= 0x55;  // occasional mutation
    }
    out.push_back(std::move(v));
  }
  return out;
}

Chunks ConstantCorpus(std::size_t chunk_bytes, int chunks) {
  Chunks out;
  for (int c = 0; c < chunks; ++c) out.emplace_back(chunk_bytes, std::uint8_t{0x42});
  return out;
}

Chunks TextCorpus(std::size_t chunk_bytes, int chunks) {
  const std::string paragraph =
      "the spatial persona is delivered as semantic keypoints rather than "
      "rendered video; seventy four tracked points cross the uplink ninety "
      "times a second and the stream has no quality ladder to adapt down. ";
  Chunks out;
  for (int c = 0; c < chunks; ++c) {
    std::vector<std::uint8_t> v;
    v.reserve(chunk_bytes);
    std::size_t i = static_cast<std::size_t>(c) * 17;
    while (v.size() < chunk_bytes) v.push_back(static_cast<std::uint8_t>(paragraph[i++ % paragraph.size()]));
    out.push_back(std::move(v));
  }
  return out;
}

// ---- measurement ------------------------------------------------------------

struct WorkloadResult {
  std::string name;
  std::size_t chunks = 0;
  std::size_t input_bytes = 0;
  std::size_t greedy_bytes = 0;
  double wall_s = 0;
  bool roundtrip_ok = true;  ///< greedy stream decodes to the input
  bool size_exact = true;    ///< CompressedSize == Compress().size()

  double mb_per_s() const { return wall_s > 0 ? static_cast<double>(input_bytes) / wall_s / 1e6 : 0; }
  double greedy_ratio() const {
    return input_bytes > 0 ? static_cast<double>(greedy_bytes) / static_cast<double>(input_bytes)
                           : 0;
  }
};

WorkloadResult RunWorkload(const std::string& name, const Chunks& chunks, int reps) {
  WorkloadResult r;
  r.name = name;
  r.chunks = chunks.size();
  const compress::LzParams greedy;

  // Correctness pass (untimed): round-trip and counting-sink exactness.
  compress::LzrEncoder encoder;
  std::vector<std::uint8_t> packed, unpacked;
  for (const auto& chunk : chunks) {
    r.input_bytes += chunk.size();
    packed.clear();
    encoder.CompressInto(chunk, packed, greedy);
    r.greedy_bytes += packed.size();
    if (encoder.CompressedSize(chunk, greedy) != packed.size()) r.size_exact = false;
    compress::LzrDecompressInto(packed, unpacked);
    if (unpacked.size() != chunk.size() ||
        (!chunk.empty() && std::memcmp(unpacked.data(), chunk.data(), chunk.size()) != 0)) {
      r.roundtrip_ok = false;
    }
  }

  // Timed sweeps, best of `reps`: this box shares its core, and a neighbour
  // stealing cycles mid-run would otherwise skew the figure. The byte sink
  // keeps the optimizer honest.
  std::size_t sink = 0;
  compress::LzrEncoder hot;
  std::vector<std::uint8_t> out;
  hot.CompressInto(chunks.front(), out, greedy);  // warm the arena
  for (int rep = 0; rep < reps; ++rep) {
    const bench::WallTimer timer;
    for (const auto& chunk : chunks) {
      out.clear();
      hot.CompressInto(chunk, out, greedy);
      sink += out.size();
    }
    const double s = timer.seconds();
    if (rep == 0 || s < r.wall_s) r.wall_s = s;
  }
  if (sink == 0) std::cout << "";  // defeat dead-code elimination
  return r;
}

// ---- steady-state allocations ----------------------------------------------

struct AllocResult {
  std::uint64_t raw_encode_allocs = 0;    ///< LzrEncoder::CompressInto, warm
  std::uint64_t frame_encode_allocs = 0;  ///< SemanticEncoder::EncodeFrameInto, warm
  std::uint64_t decode_allocs = 0;        ///< LzrDecompressInto, warm buffer
  std::uint64_t frames = 0;
  compress::MatchFinder::Stats finder;
  compress::LzrEncoder::IoStats io;  ///< the frame encoder's byte/token flow
};

AllocResult MeasureSteadyStateAllocs(const Chunks& payloads, int frames) {
  AllocResult r;
  r.frames = static_cast<std::uint64_t>(frames);

  // Raw lzr path: compress warm payloads into a reused buffer.
  compress::LzrEncoder encoder;
  std::vector<std::uint8_t> out, decoded;
  for (const auto& p : payloads) {  // warm arena, scratch, and output capacity
    out.clear();
    encoder.CompressInto(p, out);
    compress::LzrDecompressInto(out, decoded);
  }
  g_allocs.store(0, std::memory_order_relaxed);
  for (int i = 0; i < frames; ++i) {
    out.clear();
    encoder.CompressInto(payloads[static_cast<std::size_t>(i) % payloads.size()], out);
  }
  r.raw_encode_allocs = g_allocs.load(std::memory_order_relaxed);

  g_allocs.store(0, std::memory_order_relaxed);
  for (int i = 0; i < frames; ++i) {
    out.clear();
    encoder.CompressInto(payloads[static_cast<std::size_t>(i) % payloads.size()], out);
    compress::LzrDecompressInto(out, decoded);
  }
  r.decode_allocs = g_allocs.load(std::memory_order_relaxed);

  // Full semantic path: pre-generated subsets -> EncodeFrameInto.
  semantic::KeypointTrackGenerator generator({}, 21);
  std::vector<std::vector<semantic::Vec3>> subsets;
  for (int i = 0; i < frames; ++i) {
    subsets.push_back(semantic::ExtractSemanticSubset(generator.Next()));
  }
  semantic::SemanticEncoder frame_encoder;
  for (const auto& s : subsets) frame_encoder.EncodeFrameInto(s, out);  // warm
  g_allocs.store(0, std::memory_order_relaxed);
  for (const auto& s : subsets) frame_encoder.EncodeFrameInto(s, out);
  r.frame_encode_allocs = g_allocs.load(std::memory_order_relaxed);
  r.finder = frame_encoder.lzr().finder_stats();
  r.io = frame_encoder.lzr().io_stats();
  return r;
}

// ---- output -----------------------------------------------------------------

void WriteWorkload(core::JsonWriter& w, const WorkloadResult& r) {
  w.BeginObject();
  w.Key("chunks"); w.Int(static_cast<std::int64_t>(r.chunks));
  w.Key("input_bytes"); w.Int(static_cast<std::int64_t>(r.input_bytes));
  w.Key("greedy_bytes"); w.Int(static_cast<std::int64_t>(r.greedy_bytes));
  w.Key("greedy_ratio"); w.Number(r.greedy_ratio());
  w.Key("wall_s"); w.Number(r.wall_s);
  w.Key("mb_per_s"); w.Number(r.mb_per_s());
  w.Key("roundtrip_ok"); w.Bool(r.roundtrip_ok);
  w.Key("counting_size_exact"); w.Bool(r.size_exact);
  w.EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const int frames = smoke ? 300 : 2000;  // paper capture: 2,000 frames
  const int reps = smoke ? 3 : 12;
  const std::size_t corpus_chunk = smoke ? (8u << 10) : (32u << 10);
  const int corpus_chunks = smoke ? 4 : 8;

  std::cout << "Compression hot-path benchmark: persistent LzrEncoder"
            << (smoke ? " (smoke)" : "") << "\n";

  bench::Banner("1. semantic keypoints @ 90 FPS (" + std::to_string(frames) + " frames, " +
                std::to_string(reps) + " reps)");
  // The headline stream: 11-bit quantized temporal deltas, the payload the
  // paper's bandwidth argument actually compresses at 90 FPS.
  const Chunks keypoints =
      KeypointPayloads(frames, {.quantize_bits = 11, .temporal_delta = true});
  std::vector<WorkloadResult> results;
  results.push_back(RunWorkload("keypoint_90fps_delta", keypoints, reps));
  results.push_back(RunWorkload("keypoint_90fps_raw_floats", KeypointPayloads(frames, {}), reps));

  bench::Banner("2. corpora (random / repetitive / constant / text / mesh residuals)");
  results.push_back(RunWorkload("random", RandomCorpus(corpus_chunk, corpus_chunks), reps));
  results.push_back(RunWorkload("repetitive", RepetitiveCorpus(corpus_chunk, corpus_chunks), reps));
  results.push_back(RunWorkload("constant", ConstantCorpus(corpus_chunk, corpus_chunks), reps));
  results.push_back(RunWorkload("text", TextCorpus(corpus_chunk, corpus_chunks), reps));
  results.push_back(
      RunWorkload("mesh_residuals", MeshResidualChunks(smoke ? 10000 : 30000, 16), reps));

  core::TextTable table;
  table.SetHeader({"workload", "in (KB)", "greedy ratio", "wall (s)", "MB/s", "roundtrip",
                   "size exact"});
  bool correctness_ok = true;
  for (const WorkloadResult& r : results) {
    correctness_ok = correctness_ok && r.roundtrip_ok && r.size_exact;
    table.AddRow({r.name, core::Fmt(static_cast<double>(r.input_bytes) / 1024.0, 0),
                  core::Fmt(r.greedy_ratio(), 3), core::Fmt(r.wall_s, 3),
                  core::Fmt(r.mb_per_s(), 1), r.roundtrip_ok ? "yes" : "NO",
                  r.size_exact ? "yes" : "NO"});
  }
  table.Print(std::cout);

  bench::Banner("3. steady-state allocations (warm buffers, " + std::to_string(frames) +
                " frames)");
  const AllocResult allocs = MeasureSteadyStateAllocs(keypoints, frames);
  std::cout << "LzrEncoder::CompressInto:        " << allocs.raw_encode_allocs << " allocs\n"
            << "encode + LzrDecompressInto:      " << allocs.decode_allocs << " allocs\n"
            << "SemanticEncoder::EncodeFrameInto: " << allocs.frame_encode_allocs << " allocs\n"
            << "match-finder arena: " << allocs.finder.arena_grows << " grows over "
            << allocs.finder.resets << " resets, "
            << core::Fmt(static_cast<double>(allocs.finder.arena_bytes) / 1024.0, 0) << " KB\n";
  const bool alloc_free = allocs.raw_encode_allocs == 0 && allocs.frame_encode_allocs == 0 &&
                          allocs.decode_allocs == 0;

  const double hit_rate =
      allocs.io.literals + allocs.io.matches > 0
          ? static_cast<double>(allocs.io.matches) /
                static_cast<double>(allocs.io.literals + allocs.io.matches)
          : 0;
  std::cout << "encoder io: " << allocs.io.bytes_in << " B in -> " << allocs.io.bytes_out
            << " B out, match hit rate " << core::Fmt(100 * hit_rate, 1) << "%\n";

  // ---- JSON ---------------------------------------------------------------
  bench::JsonReport report("compress");
  core::JsonWriter& w = report.writer();
  w.Key("smoke"); w.Bool(smoke);
  w.Key("frames"); w.Int(frames);
  w.Key("reps"); w.Int(reps);
  w.Key("workloads");
  w.BeginObject();
  for (const WorkloadResult& r : results) {
    w.Key(r.name);
    WriteWorkload(w, r);
  }
  w.EndObject();
  w.Key("steady_state");
  w.BeginObject();
  w.Key("frames"); w.Int(static_cast<std::int64_t>(allocs.frames));
  w.Key("raw_encode_allocs"); w.Int(static_cast<std::int64_t>(allocs.raw_encode_allocs));
  w.Key("encode_decode_allocs"); w.Int(static_cast<std::int64_t>(allocs.decode_allocs));
  w.Key("frame_encode_allocs"); w.Int(static_cast<std::int64_t>(allocs.frame_encode_allocs));
  w.Key("finder_arena_grows"); w.Int(static_cast<std::int64_t>(allocs.finder.arena_grows));
  w.Key("finder_resets"); w.Int(static_cast<std::int64_t>(allocs.finder.resets));
  w.Key("finder_arena_bytes"); w.Int(static_cast<std::int64_t>(allocs.finder.arena_bytes));
  w.EndObject();
  w.Key("encoder_io");
  w.BeginObject();
  w.Key("bytes_in"); w.Int(static_cast<std::int64_t>(allocs.io.bytes_in));
  w.Key("bytes_out"); w.Int(static_cast<std::int64_t>(allocs.io.bytes_out));
  w.Key("literals"); w.Int(static_cast<std::int64_t>(allocs.io.literals));
  w.Key("matches"); w.Int(static_cast<std::int64_t>(allocs.io.matches));
  w.Key("match_hit_rate"); w.Number(hit_rate);
  w.EndObject();
  w.Key("correctness_ok"); w.Bool(correctness_ok);
  w.Key("alloc_free"); w.Bool(alloc_free);

  const std::string path = report.Write();
  std::cout << "\nwrote " << path << "\n";

  if (!correctness_ok) std::cout << "FAIL: correctness checks failed\n";
  if (!alloc_free) std::cout << "FAIL: steady-state encode allocated\n";
  return correctness_ok && alloc_free ? 0 : 1;
}
