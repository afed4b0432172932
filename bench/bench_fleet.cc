// Fleet-scale A/B bench for the sharded simulation core.
//
// Drives thousands of concurrent FaceTime-style sessions (diurnal arrivals,
// exponential holding times) over the 19-metro backbone through
// vca::FleetSim, once per shard count, and reports wall-clock scaling plus
// fleet-wide p50/p95 frame latency from the merged per-shard snapshots.
//
// Hard gates (exit 1 on failure):
//   * merged-snapshot digests are bit-identical across every shard count
//     (test_fleet pins the smoke fleet's digest itself);
//   * --baseline=FILE compares the 1-shard frames_per_wall_s
//     against the committed report and fails on a >10% regression;
//   * full mode sustains the session target, and — only on machines with
//     >= 4 hardware threads, where the comparison is meaningful — requires
//     >= 3x speedup at 4 shards over 1.
//
// Results land in BENCH_fleet.json (VTP_BENCH_JSON overrides).
//
// Usage: bench_fleet [--smoke] [--sessions=N] [--shards=K1,K2,...]
//                    [--minutes=M] [--baseline=FILE]
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/report.h"
#include "core/thread_pool.h"
#include "vca/fleet.h"

namespace {

using vtp::vca::FleetConfig;
using vtp::vca::FleetResult;
using vtp::vca::FleetSim;

struct Row {
  int shards = 0;
  FleetResult r;
};

double Fpws(const Row& row) {
  return row.r.wall_s > 0 ? static_cast<double>(row.r.frames_delivered) / row.r.wall_s : 0;
}

void PrintRow(const Row& row) {
  std::printf(
      "  shards=%d  wall=%6.2fs  frames=%8" PRIu64 "  %9.0f fr/s  p50=%6.2fms  "
      "p95=%6.2fms  handoffs=%8" PRIu64 "  digest=%016" PRIx64 "\n",
      row.shards, row.r.wall_s, row.r.frames_delivered, Fpws(row), row.r.e2e_p50_ms,
      row.r.e2e_p95_ms, row.r.handoffs, row.r.digest);
}

void WriteRow(vtp::core::JsonWriter& w, const Row& row, double fps) {
  w.BeginObject();
  // Every row is a windowed run; the label is what --baseline keys on.
  w.Key("label"); w.String("windowed");
  w.Key("shards"); w.Int(row.shards);
  w.Key("wall_s"); w.Number(row.r.wall_s);
  w.Key("events"); w.Int(static_cast<std::int64_t>(row.r.events));
  w.Key("hops"); w.Int(static_cast<std::int64_t>(row.r.hops));
  w.Key("handoffs"); w.Int(static_cast<std::int64_t>(row.r.handoffs));
  w.Key("spills"); w.Int(static_cast<std::int64_t>(row.r.spills));
  w.Key("windows"); w.Int(static_cast<std::int64_t>(row.r.windows));
  w.Key("lookahead_us"); w.Number(vtp::net::ToMicros(row.r.lookahead));
  w.Key("frames_sent"); w.Int(static_cast<std::int64_t>(row.r.frames_sent));
  w.Key("frames_delivered"); w.Int(static_cast<std::int64_t>(row.r.frames_delivered));
  w.Key("peak_concurrent"); w.Number(row.r.peak_concurrent);
  w.Key("e2e_p50_ms"); w.Number(row.r.e2e_p50_ms);
  w.Key("e2e_p95_ms"); w.Number(row.r.e2e_p95_ms);
  w.Key("frames_per_wall_s"); w.Number(Fpws(row));
  // "Sessions per second" at fleet scale: concurrent session-seconds
  // simulated per wall-clock second (frames / (2 senders * fps) session-s).
  const double session_s = row.r.frames_sent / (2.0 * fps);
  w.Key("session_s_per_wall_s"); w.Number(row.r.wall_s > 0 ? session_s / row.r.wall_s : 0);
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016" PRIx64, row.r.digest);
  w.Key("digest"); w.String(digest);
  w.EndObject();
}

FleetConfig BaseConfig(bool smoke) {
  FleetConfig cfg;
  cfg.seed = 7;
  if (smoke) {
    cfg.target_sessions = 64;
    cfg.duration = vtp::net::Seconds(3);
    cfg.mean_session_s = 20;
    cfg.diurnal_period_s = 3;
  } else {
    cfg.target_sessions = 2000;
    cfg.duration = vtp::bench::FullRuns() ? vtp::net::Seconds(12) : vtp::net::Seconds(6);
    cfg.mean_session_s = 60;
    cfg.diurnal_period_s = 20;
  }
  return cfg;
}

/// Pulls the 1-shard frames_per_wall_s out of a committed BENCH_fleet.json
/// (compact core::JsonWriter output; the first "windowed" shards=1 run is
/// the single-core baseline row). Returns -1 when the file is missing or
/// doesn't contain the row.
double ReadBaselineFpws(const std::string& file) {
  std::ifstream in(file);
  if (!in) return -1;
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::size_t at = text.find("\"label\":\"windowed\",\"shards\":1");
  if (at == std::string::npos) return -1;
  const std::string key = "\"frames_per_wall_s\":";
  const std::size_t k = text.find(key, at);
  if (k == std::string::npos) return -1;
  return std::atof(text.c_str() + k + key.size());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  double sessions = -1;
  double minutes = -1;
  std::vector<int> shard_counts;
  std::string baseline;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(arg, "--sessions=", 11) == 0) {
      sessions = std::atof(arg + 11);
    } else if (std::strncmp(arg, "--minutes=", 10) == 0) {
      minutes = std::atof(arg + 10);
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      for (const char* p = arg + 9; *p != '\0';) {
        shard_counts.push_back(std::atoi(p));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    } else if (std::strncmp(arg, "--baseline=", 11) == 0) {
      baseline = arg + 11;
    } else {
      std::fprintf(stderr,
                   "usage: bench_fleet [--smoke] [--sessions=N] [--shards=K1,K2,...] "
                   "[--minutes=M] [--baseline=FILE]\n");
      return 2;
    }
  }

  vtp::bench::Banner(smoke ? "fleet bench (smoke)" : "fleet bench");
  FleetConfig cfg = BaseConfig(smoke);
  if (sessions > 0) cfg.target_sessions = sessions;
  if (minutes > 0) {
    cfg.duration = static_cast<vtp::net::SimTime>(minutes * 60.0 * vtp::net::kSecond);
  }
  if (shard_counts.empty()) shard_counts = smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};

  FleetSim fleet(cfg);
  std::printf("  schedule: %zu sessions, peak concurrency %d, horizon %.1fs\n",
              fleet.schedule().size(), static_cast<int>(cfg.target_sessions),
              vtp::net::ToSeconds(cfg.duration));

  std::vector<Row> rows;
  for (int shards : shard_counts) {
    FleetConfig c = cfg;
    c.shards = shards;
    FleetSim sim(c);
    rows.push_back({shards, sim.Run()});
    PrintRow(rows.back());
  }

  bool digests_identical = true;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].r.digest != rows[0].r.digest) {
      std::printf("FAIL: digest mismatch: shards=%d %016" PRIx64 " vs shards=%d %016" PRIx64 "\n",
                  rows[i].shards, rows[i].r.digest, rows[0].shards, rows[0].r.digest);
      digests_identical = false;
    }
  }
  bool ok = digests_identical;
  if (rows[0].r.frames_delivered == 0) {
    std::printf("FAIL: no frames delivered\n");
    ok = false;
  }

  const Row* gate_row = nullptr;  // 1 shard: the baseline row
  for (const Row& row : rows) {
    if (row.shards == 1) {
      gate_row = &row;
      break;
    }
  }

  double baseline_fpws = -1;
  if (!baseline.empty()) {
    baseline_fpws = ReadBaselineFpws(baseline);
    if (baseline_fpws <= 0) {
      std::printf("FAIL: no 1-shard frames_per_wall_s in baseline %s\n",
                  baseline.c_str());
      ok = false;
    } else if (gate_row == nullptr) {
      std::printf("FAIL: --baseline given but no 1-shard run\n");
      ok = false;
    } else {
      const double fpws = Fpws(*gate_row);
      std::printf("  single-core throughput vs baseline: %.0f vs %.0f fr/wall-s (%.2fx)\n",
                  fpws, baseline_fpws, fpws / baseline_fpws);
      if (fpws < 0.9 * baseline_fpws) {
        std::printf("FAIL: >10%% single-core throughput regression\n");
        ok = false;
      }
    }
  }

  double speedup4 = 0;
  bool speedup_gated = false;
  if (!smoke) {
    if (rows.front().r.peak_concurrent < cfg.target_sessions) {
      std::printf("FAIL: peak concurrency %.0f below the %0.f-session target\n",
                  rows.front().r.peak_concurrent, cfg.target_sessions);
      ok = false;
    }
    const Row* one = nullptr;
    const Row* four = nullptr;
    for (const Row& row : rows) {
      if (row.shards == 1) one = &row;
      if (row.shards == 4) four = &row;
    }
    if (one != nullptr && four != nullptr && four->r.wall_s > 0) {
      speedup4 = one->r.wall_s / four->r.wall_s;
      // The >=3x gate needs 4 real cores; on smaller machines (or
      // oversubscribed CI) report the ratio without failing the run.
      speedup_gated = vtp::core::ThreadPool::HardwareThreads() >= 4;
      std::printf("  speedup 4-shard vs 1-shard: %.2fx (%s, %u hw threads)\n", speedup4,
                  speedup_gated ? "gated >=3x" : "informational",
                  vtp::core::ThreadPool::HardwareThreads());
      if (speedup_gated && speedup4 < 3.0) {
        std::printf("FAIL: 4-shard speedup %.2fx < 3x\n", speedup4);
        ok = false;
      }
    }
  }

  vtp::bench::JsonReport report("fleet");
  vtp::core::JsonWriter& w = report.writer();
  w.Key("smoke"); w.Bool(smoke);
  w.Key("sessions"); w.Int(static_cast<std::int64_t>(fleet.schedule().size()));
  w.Key("target_concurrent"); w.Number(cfg.target_sessions);
  w.Key("hw_threads"); w.Int(static_cast<std::int64_t>(vtp::core::ThreadPool::HardwareThreads()));
  w.Key("digests_identical"); w.Bool(digests_identical);
  if (baseline_fpws > 0 && gate_row != nullptr) {
    w.Key("baseline_frames_per_wall_s"); w.Number(baseline_fpws);
  }
  if (!smoke) {
    w.Key("speedup_4_vs_1"); w.Number(speedup4);
    w.Key("speedup_gated"); w.Bool(speedup_gated);
  }
  w.Key("runs");
  w.BeginArray();
  for (const Row& row : rows) WriteRow(w, row, cfg.fps);
  w.EndArray();
  const std::string path = report.Write();

  std::printf("\n  %s; report: %s\n", ok ? "PASS" : "FAIL", path.c_str());
  return ok ? 0 : 1;
}
