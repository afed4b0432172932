#!/bin/sh
# Counts the src/ executable lines that only the tests reach.
#
#   tools/test_only_lines.sh [BUILD_DIR]     (default: build-coverage)
#
# Makes a `--coverage -O0` build, runs tier-1 (ctest) and records which
# src/ lines ran, then clears the counters and runs every product binary:
# the paper and fleet benches in their short modes, the examples, `vtp run`
# for the four apps (one with --adapt, an uplink cap, loss and delay),
# `vtp rtt`, `probe`, `knobs`, and a `vtp serve`/`vtp client` loopback.
# Prints the executable-line totals and, per file, the lines that ran under
# tier-1 but under no product binary. Needs gcc's gcov and python3; runs
# for several minutes on 4 cores.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD=${1:-"$ROOT/build-coverage"}
case "$BUILD" in /*) ;; *) BUILD="$ROOT/$BUILD" ;; esac
JOBS=${JOBS:-4}
PORT=${PORT:-47433}  # UDP port of the serve/client loopback

cmake -S "$ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -O0" -DCMAKE_EXE_LINKER_FLAGS="--coverage" >/dev/null
cmake --build "$BUILD" -j "$JOBS" >/dev/null

# Writes "file:line count" for every executable src/ line to $1.
collect() {
  find "$BUILD/src" -name '*.gcda' | while read -r gcda; do
    gcov -j -t -o "$(dirname "$gcda")" "$gcda" 2>/dev/null
  done | python3 -c '
import json, sys
root = sys.argv[1] + "/src/"
counts = {}
for line in sys.stdin:
    line = line.strip()
    if not line.startswith("{"):
        continue
    for f in json.loads(line)["files"]:
        name = f["file"]
        if not name.startswith("/"):
            continue
        if not name.startswith(root):
            continue
        for l in f["lines"]:
            key = name[len(root) - 4:] + ":" + str(l["line_number"])
            counts[key] = counts.get(key, 0) + l["count"]
for key in sorted(counts):
    print(key, counts[key])
' "$ROOT" > "$1"
}

reset() { find "$BUILD/src" -name '*.gcda' -delete; }

OUT="$BUILD/test-only"
mkdir -p "$OUT"
reset
ctest --test-dir "$BUILD" -j "$JOBS" >"$OUT/ctest.log" 2>&1 || {
  echo "tier-1 failed; see $OUT/ctest.log" >&2
  exit 1
}
collect "$OUT/tests.txt"

reset
B="$BUILD/bench"
E="$BUILD/examples"
V="$BUILD/tools/vtp"
LOG="$OUT/products.log"
: >"$LOG"
run() {
  if ! "$@" >>"$LOG" 2>&1; then
    echo "failed: $*; see $LOG" >&2
    exit 1
  fi
}
cd "$OUT"
for bench in bench_table1_rtt bench_fig4_throughput bench_fig5_visibility \
             bench_fig6_scalability bench_sec43_delivery bench_ablation; do
  run "$B/$bench"
done
run env VTP_BENCH_JSON="$OUT/BENCH_adapt.json" "$B/bench_adapt" --smoke
run env VTP_BENCH_JSON="$OUT/BENCH_fleet.json" "$B/bench_fleet" --smoke
for example in quickstart codec_playground global_team_call poor_connection_demo \
               capture_analysis; do
  run "$E/$example"
done
run "$V" run --app=facetime --metros=SanFrancisco,NewYork,Chicago --duration=5 --json \
  --dump-trace="$OUT/trace.csv" --obs-dump="$OUT/obs.json"
run "$V" run --app=facetime --metros=SanFrancisco,NewYork --devices=vp,mac --duration=5
run "$V" run --app=zoom --metros=SanFrancisco,NewYork --duration=5 --adapt \
  --cap-uplink-kbps=800 --loss=0.02 --delay-ms=20
run "$V" run --app=webex --metros=NewYork,Chicago --devices=mac,mac --duration=5
run "$V" run --app=teams --metros=SanFrancisco,Dallas --duration=5 --strategy=geo
run "$V" rtt --clients=SanFrancisco,NewYork --apps=facetime,zoom --pings=3
run "$V" probe --mode=remote --delay-ms=100
run "$V" knobs
"$V" serve --port="$PORT" --duration=8 --json >>"$LOG" 2>&1 &
SERVER=$!
sleep 1
run "$V" client --medium=socket --connect=127.0.0.1:"$PORT" --personas=3 --duration=3 --json
wait "$SERVER" || { echo "failed: vtp serve; see $LOG" >&2; exit 1; }
run "$V" client --medium=sim --personas=2 --duration=2
collect "$OUT/products.txt"

python3 - "$OUT/tests.txt" "$OUT/products.txt" <<'PY'
import collections, sys

def load(path):
    with open(path) as f:
        return {k: int(v) for k, v in (line.split() for line in f)}

tests, products = load(sys.argv[1]), load(sys.argv[2])
lines = set(tests) | set(products)
test_only = sorted(k for k in lines if tests.get(k, 0) > 0 and products.get(k, 0) == 0)
neither = [k for k in lines if tests.get(k, 0) == 0 and products.get(k, 0) == 0]
print(f"src/ executable lines: {len(lines)}")
print(f"ran only under tier-1: {len(test_only)}")
print(f"ran under neither:     {len(neither)}")
per_file = collections.Counter(k.rsplit(":", 1)[0] for k in test_only)
for name, n in per_file.most_common():
    print(f"  {n:5d}  {name}")
PY
