// The single declaration point for every VTP_* environment knob.
//
// Each knob appears exactly once, with its type, default, and help string;
// the inline handles self-register with core::Config so `vtp --knobs` lists
// them all. Call sites consult the handle (knobs::kFull.Get(),
// knobs::kMedium.Get()) instead of scattering EnvInt/EnvFlag/getenv parsing
// through the tree — resolution still happens per call, so benches that
// setenv() a knob mid-run (the obs on/off A/Bs) behave exactly as before.
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

/// Frame-lifecycle tracing (obs::FrameTracer). Registry counters are always
/// on — they replace the bespoke stats structs at identical cost — but span
/// stamping is armed per session from this knob.
inline const BoolKnob kObs{"VTP_OBS", true,
                           "enable frame-lifecycle span tracing (metrics are always on)"};

/// Adaptive delivery control loop (transport/adapt.*). Off by default: with
/// the knob off no estimator, controller, or timer is even constructed, so
/// sessions are event-for-event identical to the pre-adaptation stack (the
/// differential suite in test_transport_ext.cc pins this).
inline const BoolKnob kAdapt{"VTP_ADAPT", false,
                             "enable the adaptive delivery control loop (rate ladder + FEC)"};

/// Makes bench::JsonReport refuse to write a report whose git header would
/// record a -dirty tree. CI sets this so committed BENCH_*.json baselines
/// always describe a reproducible commit.
inline const BoolKnob kBenchRequireClean{
    "VTP_BENCH_REQUIRE_CLEAN", false,
    "refuse to write bench JSON reports from a -dirty working tree"};

/// Medium backend for socket-capable tools (`vtp client`). sim (default)
/// keeps everything inside netsim — byte-identical to the pre-seam stack;
/// socket drives real nonblocking UDP through the event loop (DESIGN §14).
inline const ChoiceKnob kMedium{
    "VTP_MEDIUM", "sim", {"sim", "socket"},
    "transport backend: simulated internetwork or real UDP sockets + event loop"};

/// Listen address for `vtp serve` (the socket backend's bind interface).
inline const StringKnob kListenAddr{"VTP_LISTEN_ADDR", "127.0.0.1",
                                    "IPv4 address vtp serve binds its UDP sockets to"};

/// Default host:port `vtp client` dials when --connect is not given.
inline const StringKnob kConnect{"VTP_CONNECT", "127.0.0.1:4433",
                                 "host:port vtp client connects persona traffic to"};

/// Fault injection (netsim). Each knob arms one impairment on the access
/// uplink when a session calls net::ApplyFaultKnobs(); empty = off. Formats
/// are comma-separated numbers, documented per knob.
inline const StringKnob kFaultBurst{
    "VTP_FAULT_BURST", "",
    "Gilbert-Elliott burst loss on the uplink: p_enter,p_exit,loss_bad[,loss_good]", "off"};
inline const StringKnob kFaultReorder{
    "VTP_FAULT_REORDER", "", "packet reordering on the uplink: probability,extra_delay_ms", "off"};
inline const StringKnob kFaultDup{"VTP_FAULT_DUP", "",
                                  "packet duplication on the uplink: probability", "off"};
inline const StringKnob kFaultFlap{
    "VTP_FAULT_FLAP", "",
    "scheduled link flap (100% loss) on the uplink: at_s,duration_s", "off"};
inline const StringKnob kFaultRamp{
    "VTP_FAULT_RAMP", "",
    "stepped bandwidth-cap ramp on the uplink: start_s,end_s,from_kbps,to_kbps[,steps]", "off"};

}  // namespace vtp::core::knobs
