// Unified bench JSON report.
//
// Every perf bench used to hand-roll its own JSON tail; JsonReport gives
// them one shape: a shared header block (bench name, build id, knob state,
// thread count) followed by bench-specific sections written through the
// underlying JsonWriter. Reports land at VTP_BENCH_JSON when set, else
// BENCH_<bench>.json, so CI can collect BENCH_*.json uniformly.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench/bench_util.h"
#include "core/json.h"
#include "core/knobs.h"

#ifndef VTP_GIT_DESCRIBE
#define VTP_GIT_DESCRIBE "unknown"
#endif

namespace vtp::bench {

class JsonReport {
 public:
  /// Opens the root object and writes the shared header fields.
  explicit JsonReport(std::string bench_name) : name_(std::move(bench_name)) {
    w_.BeginObject();
    w_.Key("bench"); w_.String(name_);
    w_.Key("git"); w_.String(VTP_GIT_DESCRIBE);
    w_.Key("full"); w_.Bool(core::knobs::kFull.Get());
    w_.Key("threads"); w_.Int(BenchThreads());
  }

  /// Bench-specific payload goes through the raw writer (the report owns
  /// the root object; callers add keys/sections inside it).
  core::JsonWriter& writer() { return w_; }

  /// Closes the root object, resolves the output path (VTP_BENCH_JSON or
  /// BENCH_<bench>.json), writes the file, and returns the path used.
  /// Under VTP_BENCH_REQUIRE_CLEAN a -dirty build id aborts instead of
  /// writing: committed BENCH_*.json baselines must describe a reproducible
  /// commit, not whatever happened to be in the working tree.
  std::string Write() {
    if (core::knobs::kBenchRequireClean.Get() &&
        std::string(VTP_GIT_DESCRIBE).find("-dirty") != std::string::npos) {
      std::fprintf(stderr,
                   "JsonReport: refusing to write %s report from dirty tree %s "
                   "(VTP_BENCH_REQUIRE_CLEAN is set)\n",
                   name_.c_str(), VTP_GIT_DESCRIBE);
      std::exit(1);
    }
    w_.EndObject();
    std::string path = core::knobs::kBenchJson.Get();
    if (path.empty()) path = "BENCH_" + name_ + ".json";
    std::ofstream(path) << w_.str() << "\n";
    return path;
  }

 private:
  std::string name_;
  core::JsonWriter w_;
};

}  // namespace vtp::bench
