#!/usr/bin/env python3
"""End-to-end benchmark of vtp over the four north-star workloads.

    python3 perfbench/run.py --workload facetime5 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/vtpbench (Release) into .bench_build/; later calls only re-make it.

--trace 0 spawns fresh `vtpbench <workload>` processes until --seconds have
passed (at least MIN_PROCESSES). Each pays a cold setup and runs one or more
phases; end_to_end() says how each metric is folded from them.
--trace 1 runs one traced process and reports the per-layer metrics. Every
phase checks the workload's outputs; a failed check makes the result
incorrect.

The last stdout line is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
`attempted` counts frames expected at receivers (frames sent x receivers),
`failed` those that did not arrive and decode. The line before it is the
provenance of the build that produced the numbers.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "vtpbench"

WORKLOADS = ("facetime5", "webex2", "fleet10k", "loopback4")
MIN_PROCESSES = 2
# Run phases per process. webex2's cold setup (5-8 s of video calibration)
# dwarfs its run, so each process runs the most phases on warm-built
# sessions, which keeps a run near --seconds; loopback4 takes the latency of
# several 2 s phases per process.
PHASES = {"webex2": 8, "loopback4": 3}
PHASES_MAX = 8

# Metric names and units come from the benchmark definition. A workload
# that never enters a layer reports 0 for that per-layer metric.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no vtp source tree under {ROOT}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "vtpbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail("build failed: " + " ".join(cmd))


def provenance(workload, seed):
    describe = ""
    if (ROOT / ".git").exists():  # never describe an enclosing repository
        try:
            describe = subprocess.run(
                ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
                capture_output=True, text=True, timeout=10).stdout.strip()
        except OSError:
            pass
    describe = describe or "unknown (not a git checkout)"
    if os.environ.get("VTP_BENCH_REQUIRE_CLEAN", "") not in ("", "0", "false") and \
            (describe.endswith("-dirty") or describe.startswith("unknown")):
        fail(f"refusing to report from an unclean tree {describe!r} "
             "(VTP_BENCH_REQUIRE_CLEAN is set)")
    build_type = ""
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git": describe, "build_type": build_type, "nproc": os.cpu_count(),
            "cpu": cpu, "workload": workload, "seed": seed}


def session_seed(seed, process):
    """Seed of the first phase of the run's `process`-th process. Each phase
    runs on its own seed (vtpbench adds the phase index), so a run's medians
    cover many inputs, not one speech pattern."""
    return seed * 1000 + 1 + process * PHASES_MAX


def run_process(workload, seed, trace, short):
    cmd = [str(BINARY), workload, f"--seed={seed}"]
    if trace:
        cmd.append("--trace")
    else:
        cmd.append(f"--reps={PHASES.get(workload, 1)}")
    if short:
        cmd.append("--short")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr)
        fail(f"{workload} produced no result (exit {proc.returncode})")
    rep = json.loads(lines[-1])
    if not rep["ndebug"]:
        fail("refusing to measure a build without NDEBUG")
    if not rep["ok"]:
        failed = [name for name, ok in rep["checks"].items() if not ok]
        print(f"perfbench: {workload} failed checks {failed}", file=sys.stderr)
    return rep


def quantile(values, q):
    """Nearest-rank quantile of a sorted list."""
    return values[min(round(q * (len(values) - 1)), len(values) - 1)]


def end_to_end(reps):
    """Median of each metric: setup and memory over processes, throughput
    and CPU over every run phase. Frame latency is real capture-to-decode
    wall time (loopback4): p50 over every frame of the run, p99 the median
    over the run's half-second windows of each window's p99. Batch
    workloads have no real-time clock for a frame: there both latency rows
    are the median wall milliseconds the run spent per decoded frame."""
    phases = [phase for rep in reps for phase in rep["phases"]]
    median = statistics.median
    values = {
        "setup_s": median(rep["setup_s"] for rep in reps),
        "peak_rss_mb": median(rep["peak_rss_mb"] for rep in reps),
        "frames_per_wall_s": median(p["frames"] / p["wall_s"] for p in phases),
        "cpu_us_per_frame": median(p["cpu_s"] * 1e6 / max(p["frames"], 1) for p in phases),
    }
    latency = sorted(ms for p in phases for ms in p["latency_ms"])
    if latency:
        values["frame_latency_p50_ms"] = quantile(latency, 0.50)
        values["frame_latency_p99_ms"] = median(ms for p in phases for ms in p["window_p99_ms"])
    else:
        per_frame = median(p["wall_s"] * 1e3 / max(p["frames"], 1) for p in phases)
        values["frame_latency_p50_ms"] = values["frame_latency_p99_ms"] = per_frame
    return values


def measure(workload, seed, seconds, trace, short=False):
    """Runs the processes and returns the result object."""
    if trace:
        reps = [run_process(workload, session_seed(seed, 0), True, short)]
        values = {name: reps[0]["layers"].get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
    else:
        reps = []
        start = time.monotonic()
        while len(reps) < MIN_PROCESSES or time.monotonic() - start < seconds:
            reps.append(run_process(workload, session_seed(seed, len(reps)), False, short))
        values = end_to_end(reps)
        units = END_TO_END
    phases = [phase for rep in reps for phase in rep["phases"]]
    attempted = sum(p["expected"] for p in phases)
    failed = sum(p["expected"] - p["delivered"] for p in phases)
    print(json.dumps({"processes": len(reps), "phases": len(phases),
                      "latency_samples": sum(len(p["latency_ms"]) for p in phases),
                      "info": reps[0]["info"]}), file=sys.stderr)
    return {
        "correct": all(rep["ok"] for rep in reps),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def self_test():
    """Short inputs, every workload, both modes: every check passes and every
    named metric is present with its unit."""
    problems = []
    for workload in WORKLOADS:
        for trace, names in ((False, END_TO_END), (True, PER_LAYER)):
            result = measure(workload, 1, 0, trace, short=True)
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{workload} trace={int(trace)}: output checks failed")
            for name, unit in names.items():
                got = result["metrics"].get(name)
                if got is None or got.get("unit") != unit or \
                        not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{workload} trace={int(trace)}: bad metric {name}: {got}")
            if not trace and any(m["value"] <= 0 for m in result["metrics"].values()):
                problems.append(f"{workload}: an end-to-end metric is not positive")
            print(f"self-test {workload} trace={int(trace)}: ok", file=sys.stderr)
    for problem in problems:
        print("self-test: " + problem, file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    if args.self_test:
        return self_test()
    print(json.dumps({"provenance": provenance(args.workload, args.seed)}))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
