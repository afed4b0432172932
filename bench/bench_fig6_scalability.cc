// Figure 6: scalability of the spatial persona with 2-5 Vision Pro users —
// (a) rendered triangles, (b) CPU/GPU processing time per frame, and
// (c) downlink throughput, all measured at U1 across full simulated
// sessions with behavioural viewing.
#include <iostream>
#include <span>

#include "bench/bench_util.h"
#include "vca/session.h"

using namespace vtp;

namespace {

const char* kMetros[] = {"SanFrancisco", "NewYork", "Chicago", "Dallas", "Seattle"};

struct ScalePoint {
  core::Summary triangles;
  core::Summary cpu_ms;
  core::Summary gpu_ms;
  core::Summary downlink_mbps;
  double miss_rate = 0;
};

/// Raw series from one independent session run.
struct RepeatData {
  std::vector<double> tris, cpu, gpu, down;
  double miss = 0;
};

RepeatData RunRepeat(std::size_t users, int repeat) {
  vca::SessionConfig config;
  config.app = vca::VcaApp::kFaceTime;
  for (std::size_t i = 0; i < users; ++i) {
    config.participants.push_back({.name = "U" + std::to_string(i + 1),
                                   .metro = kMetros[i],
                                   .device = vca::DeviceType::kVisionPro});
  }
  config.duration = bench::SessionDuration();
  config.seed = 1000 + static_cast<std::uint64_t>(repeat) * 31 + users;
  config.reconstruct_stride = 9;  // sample the deformation at 10 Hz
  vca::TelepresenceSession session(std::move(config));
  session.Run();

  RepeatData data;
  const render::RenderLoop* loop = session.render_loop(0);
  for (const render::FrameStats& f : loop->frames()) {
    data.tris.push_back(static_cast<double>(f.triangles));
    data.cpu.push_back(f.cpu_ms);
    data.gpu.push_back(f.gpu_ms);
  }
  data.miss = loop->MissRate();

  const net::Capture& cap = session.capture(0);
  const auto filter = net::Capture::ToNode(session.host(0));
  for (net::SimTime t = net::Seconds(3); t + net::kSecond <= bench::SessionDuration();
       t += net::kSecond) {
    data.down.push_back(cap.MeanThroughputBps(filter, t, t + net::kSecond) / 1e6);
  }
  return data;
}

/// Pools repeat runs (in repeat order, so results match a serial harness).
ScalePoint Aggregate(std::span<const RepeatData> runs) {
  std::vector<double> tris, cpu, gpu, down;
  double miss = 0;
  for (const RepeatData& r : runs) {
    tris.insert(tris.end(), r.tris.begin(), r.tris.end());
    cpu.insert(cpu.end(), r.cpu.begin(), r.cpu.end());
    gpu.insert(gpu.end(), r.gpu.begin(), r.gpu.end());
    down.insert(down.end(), r.down.begin(), r.down.end());
    miss += r.miss / static_cast<double>(runs.size());
  }
  return {core::Summarize(tris), core::Summarize(cpu), core::Summarize(gpu),
          core::Summarize(down), miss};
}

}  // namespace

int main() {
  std::cout << "Reproduction of Figure 6: spatial-persona scalability, 2-5 users.\n"
            << "(each point is " << bench::Repeats() << " full sessions of "
            << net::ToSeconds(bench::SessionDuration()) << " s)\n";

  // All (users, repeat) sessions are independent; fan the whole grid out at
  // once and aggregate per user count afterwards.
  const int repeats = bench::Repeats();
  std::cout << "  running " << (4 * repeats) << " sessions on " << bench::BenchThreads()
            << " thread(s)...\n";
  const auto runs = bench::ParallelRepeats(4 * repeats, [&](int i) {
    return RunRepeat(static_cast<std::size_t>(2 + i / repeats), i % repeats);
  });
  std::vector<ScalePoint> points;
  for (std::size_t u = 0; u < 4; ++u) {
    points.push_back(Aggregate(std::span<const RepeatData>(
        runs.data() + u * static_cast<std::size_t>(repeats),
        static_cast<std::size_t>(repeats))));
  }

  bench::Banner("Figure 6(a): rendered triangles at U1");
  core::TextTable tri_table;
  tri_table.SetHeader(bench::BoxHeader("users"));
  for (std::size_t u = 0; u < points.size(); ++u) {
    tri_table.AddRow(bench::BoxRow(core::Fmt(static_cast<double>(u + 2), 0),
                                   points[u].triangles, 0));
  }
  tri_table.Print(std::cout);
  std::cout << "\nThe mean grows with the user count while the 5th percentile flattens\n"
               "(visibility-aware optimizations kick in for peripheral personas).\n";

  bench::Banner("Figure 6(b): CPU / GPU time per frame at U1 (ms)");
  core::TextTable time_table;
  time_table.SetHeader({"users", "CPU mean±std", "GPU mean±std", "GPU p95", "deadline misses",
                        "paper CPU", "paper GPU"});
  const char* paper_cpu[] = {"5.67±0.69", "-", "-", "6.76±1.29"};
  const char* paper_gpu[] = {"5.65±0.69", "-", "-", "7.62±1.29 (p95>9)"};
  for (std::size_t u = 0; u < points.size(); ++u) {
    time_table.AddRow({core::Fmt(static_cast<double>(u + 2), 0),
                       core::MeanPlusMinus(points[u].cpu_ms),
                       core::MeanPlusMinus(points[u].gpu_ms),
                       core::Fmt(points[u].gpu_ms.p95, 2),
                       core::Fmt(100 * points[u].miss_rate, 1) + "%", paper_cpu[u],
                       paper_gpu[u]});
  }
  time_table.Print(std::cout);
  std::cout << "\nAt 5 users the GPU p95 approaches the 11.1 ms deadline for 90 FPS —\n"
               "the paper's explanation for FaceTime's 5-persona cap.\n";

  bench::Banner("Figure 6(c): downlink throughput at U1 (Mbps)");
  core::TextTable down_table;
  down_table.SetHeader(bench::BoxHeader("users"));
  for (std::size_t u = 0; u < points.size(); ++u) {
    down_table.AddRow(bench::BoxRow(core::Fmt(static_cast<double>(u + 2), 0),
                                    points[u].downlink_mbps));
  }
  down_table.Print(std::cout);
  std::cout << "\nDownlink grows ~linearly in the user count: the server just forwards\n"
               "every other participant's ~0.7 Mbps semantic stream (§4.5).\n";
  return 0;
}
