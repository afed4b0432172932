// The single declaration point for every VTP_* environment knob.
//
// Each knob appears exactly once, with its type, default, and help string;
// the inline handles self-register with core::Config so `vtp --knobs` lists
// them all. Only the bench harness reads knobs: library code takes its
// behaviour from explicit config (vca::SessionConfig, vtp's flags), and a
// CTest guard (tests/check_no_env.cmake) keeps getenv and these handles out
// of src/ apart from this header, config.h and env.h.
#pragma once

#include "core/config.h"

namespace vtp::core::knobs {

/// Paper-length bench runs: 120 s sessions x 5 repeats instead of the quick
/// 20 s x 3 defaults.
inline const FlagKnob kFull{"VTP_FULL", "run paper-length benches (120 s sessions x 5 repeats)"};

/// Worker threads for bench::ParallelRepeats. The -1 sentinel means "one per
/// hardware thread"; 0 or 1 runs repeats serially on the caller.
inline const IntKnob kBenchThreads{
    "VTP_BENCH_THREADS", -1,
    "worker threads for bench repeats; 0/1 = serial, unset = one per hardware thread",
    "auto (one per hardware thread)"};

/// Override for the bench JSON report path.
inline const StringKnob kBenchJson{"VTP_BENCH_JSON", "",
                                   "path for the bench JSON report", "BENCH_<bench>.json"};

/// Makes bench::JsonReport refuse to write a report whose git header would
/// record a -dirty tree. CI sets this so committed BENCH_*.json baselines
/// always describe a reproducible commit.
inline const BoolKnob kBenchRequireClean{
    "VTP_BENCH_REQUIRE_CLEAN", false,
    "refuse to write bench JSON reports from a -dirty working tree"};

}  // namespace vtp::core::knobs
