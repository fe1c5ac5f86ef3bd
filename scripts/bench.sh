#!/usr/bin/env bash
# Wall-clock benchmark of the hot paths this repo optimizes, writing
# BENCH_sweep.json so future changes have a recorded baseline:
#
#   * the Fig 7/8 figure grids, serial (--threads 1) vs parallel
#     (--threads 4) — the parallel sweep executor's headline win;
#   * the static spec sanitizer over the full registry (`check --all`) —
#     the pre-sweep verification pass must stay negligible next to a sweep;
#   * the Mega-size bfs fault path under plain uvm — the page table's
#     O(1) register/touch/evict hot loop;
#   * the chaos degradation sweep over the irregular trio — the fault
#     injector's end-to-end cost on top of the plain grid;
#   * the serving layer's arrival-rate sweep (`serve --policy all`) —
#     three policies x four rates on a 4-GPU fleet, serial vs parallel;
#   * the streaming trace exporter — a five-mode sweep drained to JSONL
#     during the merge, recorded as events/sec;
#   * the on-disk result cache — cold vs warm Fig 7/8 grid reruns, with
#     byte-identity and zero-warm-miss gates and (in full mode) a hard
#     >= 5x incremental-speedup assertion;
#   * the memo/trace-merge overhead — a --self-profile grid rerun plus a
#     traced five-mode run, so the sweep executor's bookkeeping cost
#     (vs pure simulation time) is recorded per PR alongside the
#     serial-vs-threads4 walls it explains;
#   * the hetsim-bench binaries (fig07 regeneration, sampling ablation),
#     plain std::time::Instant timings with no external framework.
#
# Usage:
#   scripts/bench.sh            # full sizes, writes BENCH_sweep.json
#   scripts/bench.sh --smoke    # tiny sizes, CI keep-alive; writes the
#                               # same JSON shape to a scratch file so the
#                               # committed baseline is not clobbered
#
# Robustness contract: every stage runs under `timeout` and records
# `{status, wall_ms}` ("ok" | "fail" | "timeout") in the JSON. A failing
# or hung stage does not abort the others — the script finishes the
# sweep, writes the full record, and only then exits non-zero if any
# stage was not ok. Byte-identity between the serial and parallel grid
# runs is itself a recorded stage, so a determinism regression shows up
# in the baseline file, not just in the exit code.
set -uo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
if [[ "${1:-}" == "--smoke" ]]; then
  SMOKE=1
fi

if [[ $SMOKE -eq 1 ]]; then
  GRID_SIZE=tiny
  GRID_RUNS=3
  BFS_SIZE=small
  CHAOS_SIZE=tiny
  SERVE_REQUESTS=120
  BENCH_ITERS=3
  STAGE_TIMEOUT="${STAGE_TIMEOUT:-300}"
else
  GRID_SIZE=large
  GRID_RUNS=30
  BFS_SIZE=mega
  CHAOS_SIZE=small
  SERVE_REQUESTS=400
  BENCH_ITERS=10
  STAGE_TIMEOUT="${STAGE_TIMEOUT:-1800}"
fi

CLI=./target/release/hetsim-cli
BENCH_DIR=./target/release
if [[ ! -x "$CLI" || ! -x "$BENCH_DIR/bench_fig07_micro_comparison" ]]; then
  echo "==> building release CLI + bench binaries"
  cargo build --release -q -p hetsim-cli -p hetsim-bench \
    || { echo "FAIL: build"; exit 1; }
fi

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# Millisecond clock. GNU date is a few ms; the python3 fallback (for
# platforms whose date lacks %N) costs ~40ms of interpreter startup,
# which would put a floor under every recorded stage — so it is the
# fallback, not the default.
now_ms() {
  local ms
  ms="$(date +%s%3N 2>/dev/null)"
  if [[ "$ms" =~ ^[0-9]+$ ]]; then
    echo "$ms"
  else
    python3 -c 'import time; print(int(time.time()*1000))'
  fi
}

FAILED_STAGES=""
STAGE_RECORDS=""

# record_stage NAME STATUS WALL_MS — appends one JSON stage record and
# tracks failures for the final exit code.
record_stage() {
  local name="$1" status="$2" wall="$3"
  if [[ -n "$STAGE_RECORDS" ]]; then
    STAGE_RECORDS+=$',\n'
  fi
  STAGE_RECORDS+="    \"$name\": {\"status\": \"$status\", \"wall_ms\": $wall}"
  if [[ "$status" != "ok" ]]; then
    FAILED_STAGES+=" $name"
  fi
}

# run_stage NAME CAPTURE_FILE CMD... — runs CMD under the stage timeout,
# times it, and records {status, wall_ms}. Never aborts the script.
run_stage() {
  local name="$1" capture="$2"; shift 2
  local t0 t1 rc status
  echo "==> $name"
  t0="$(now_ms)"
  timeout "$STAGE_TIMEOUT" "$@" > "$capture" 2> "$out/$name.err"
  rc=$?
  t1="$(now_ms)"
  TIMED_MS=$((t1 - t0))
  if [[ $rc -eq 0 && -s "$capture" ]]; then
    status=ok
  elif [[ $rc -eq 124 ]]; then
    status=timeout
    echo "    TIMEOUT after ${STAGE_TIMEOUT}s"
  else
    status=fail
    echo "    FAIL (exit $rc)"
    sed 's/^/    stderr: /' "$out/$name.err" | tail -5
  fi
  echo "    ${TIMED_MS} ms [$status]"
  record_stage "$name" "$status" "$TIMED_MS"
  [[ "$status" == "ok" ]]
}

# check_stage NAME CMD... — a zero-duration assertion stage (e.g. the
# serial-vs-parallel byte-identity check); records ok/fail.
check_stage() {
  local name="$1"; shift
  if "$@"; then
    record_stage "$name" ok 0
  else
    echo "==> $name: FAIL"
    record_stage "$name" fail 0
  fi
}

run_stage fig7_micro_grid_serial "$out/micro1.txt" \
  "$CLI" micro --size "$GRID_SIZE" --runs "$GRID_RUNS" --threads 1
FIG7_SERIAL_MS=$TIMED_MS
run_stage fig7_micro_grid_threads4 "$out/micro4.txt" \
  "$CLI" micro --size "$GRID_SIZE" --runs "$GRID_RUNS" --threads 4
FIG7_T4_MS=$TIMED_MS
check_stage fig7_determinism cmp -s "$out/micro1.txt" "$out/micro4.txt"

run_stage fig8_apps_grid_serial "$out/apps1.txt" \
  "$CLI" apps --size "$GRID_SIZE" --runs "$GRID_RUNS" --threads 1
FIG8_SERIAL_MS=$TIMED_MS
run_stage fig8_apps_grid_threads4 "$out/apps4.txt" \
  "$CLI" apps --size "$GRID_SIZE" --runs "$GRID_RUNS" --threads 4
FIG8_T4_MS=$TIMED_MS
check_stage fig8_determinism cmp -s "$out/apps1.txt" "$out/apps4.txt"

# Memo/trace-merge overhead (ROADMAP's sweep-throughput item asked why
# threads=4 was slower than serial on this 1-core host). The grid rerun
# under --self-profile makes the CLI report how much wall time the
# sharded memo spent on bookkeeping versus simulating, and a traced
# five-mode run reports the serial trace-merge tail. Both are recorded
# in the baseline next to the serial-vs-threads4 walls they explain —
# profiling shows memo + merge are sub-millisecond, so any remaining gap
# is core oversubscription (see "host_parallelism"), not the executor.
scrape_ms() { # FILE PATTERN -> the number in the first "<PATTERN> N ms"-ish match
  grep -o "$2" "$1" 2>/dev/null | grep -o '[0-9][0-9.]*' | head -1 || true
}
MEMO_OVERHEAD_MS=0
MEMO_SIMULATE_MS=0
TRACE_MERGE_MS=0
if run_stage fig7_selfprof_grid "$out/selfprof7.txt" \
  "$CLI" micro --size "$GRID_SIZE" --runs "$GRID_RUNS" --threads 4 --self-profile; then
  MEMO_OVERHEAD_MS="$(scrape_ms "$out/fig7_selfprof_grid.err" \
    'memo overhead [0-9.]* ms')"
  MEMO_SIMULATE_MS="$(scrape_ms "$out/fig7_selfprof_grid.err" \
    '[0-9.]* ms simulating')"
fi
if run_stage trace_merge_selfprof "$out/mergeprof.txt" \
  "$CLI" run vector_seq --size "$GRID_SIZE" --runs "$GRID_RUNS" --threads 1 \
  --trace "$out/selfprof_trace.json" --self-profile; then
  TRACE_MERGE_MS="$(scrape_ms "$out/trace_merge_selfprof.err" \
    'trace merge [0-9.]* ms')"
fi
MEMO_OVERHEAD_MS="${MEMO_OVERHEAD_MS:-0}"
MEMO_SIMULATE_MS="${MEMO_SIMULATE_MS:-0}"
TRACE_MERGE_MS="${TRACE_MERGE_MS:-0}"

# Incremental sweep: the Fig 7/8 grids against the on-disk result cache.
# The cold pass fills a fresh store (all misses), the warm pass replays
# it (zero misses) and must reproduce the cold stdout byte-for-byte —
# which the uncached grid stages above also pin, so a cache bug cannot
# hide behind a deterministic-but-wrong store. The hit/miss counts come
# from the CLI's stderr stats line, and each grid's in-process wall time
# from its --self-profile line; the cold/warm ratio of those grid times
# is the caching win recorded in the baseline (asserted >= 5x in full
# mode).
CACHE_DIR="$out/result-cache"
cache_count() { # FILE FIELD -> count scraped from "cache: H hits, M misses, S stored"
  grep -o "[0-9]* $2" "$1" | grep -o '[0-9]*' | head -1 || echo 0
}
grid_ms() { # FILE -> the grid's in-process wall time from --self-profile
  local ms
  ms="$(scrape_ms "$1" 'grid wall [0-9.]* ms')"
  echo "${ms:-0}"
}
run_stage fig7_grid_cached_cold "$out/micro_cold.txt" \
  "$CLI" micro --size "$GRID_SIZE" --runs "$GRID_RUNS" --threads 4 --cache "$CACHE_DIR" \
  --self-profile
FIG7_COLD_MS=$TIMED_MS
FIG7_COLD_GRID_MS="$(grid_ms "$out/fig7_grid_cached_cold.err")"
FIG7_COLD_MISSES="$(cache_count "$out/fig7_grid_cached_cold.err" misses)"
run_stage fig7_grid_cached_warm "$out/micro_warm.txt" \
  "$CLI" micro --size "$GRID_SIZE" --runs "$GRID_RUNS" --threads 4 --cache "$CACHE_DIR" \
  --self-profile
FIG7_WARM_MS=$TIMED_MS
FIG7_WARM_GRID_MS="$(grid_ms "$out/fig7_grid_cached_warm.err")"
FIG7_WARM_HITS="$(cache_count "$out/fig7_grid_cached_warm.err" hits)"
FIG7_WARM_MISSES="$(cache_count "$out/fig7_grid_cached_warm.err" misses)"
check_stage fig7_cache_byte_identity cmp -s "$out/micro_cold.txt" "$out/micro_warm.txt"
check_stage fig7_cache_matches_uncached cmp -s "$out/micro4.txt" "$out/micro_warm.txt"
check_stage fig7_cache_warm_has_no_misses test "$FIG7_WARM_MISSES" = 0

run_stage fig8_grid_cached_cold "$out/apps_cold.txt" \
  "$CLI" apps --size "$GRID_SIZE" --runs "$GRID_RUNS" --threads 4 --cache "$CACHE_DIR" \
  --self-profile
FIG8_COLD_MS=$TIMED_MS
FIG8_COLD_GRID_MS="$(grid_ms "$out/fig8_grid_cached_cold.err")"
FIG8_COLD_MISSES="$(cache_count "$out/fig8_grid_cached_cold.err" misses)"
run_stage fig8_grid_cached_warm "$out/apps_warm.txt" \
  "$CLI" apps --size "$GRID_SIZE" --runs "$GRID_RUNS" --threads 4 --cache "$CACHE_DIR" \
  --self-profile
FIG8_WARM_MS=$TIMED_MS
FIG8_WARM_GRID_MS="$(grid_ms "$out/fig8_grid_cached_warm.err")"
FIG8_WARM_HITS="$(cache_count "$out/fig8_grid_cached_warm.err" hits)"
FIG8_WARM_MISSES="$(cache_count "$out/fig8_grid_cached_warm.err" misses)"
check_stage fig8_cache_byte_identity cmp -s "$out/apps_cold.txt" "$out/apps_warm.txt"
check_stage fig8_cache_matches_uncached cmp -s "$out/apps4.txt" "$out/apps_warm.txt"
check_stage fig8_cache_warm_has_no_misses test "$FIG8_WARM_MISSES" = 0

if [[ $SMOKE -eq 0 ]]; then
  # The >= 5x incremental win is a hard gate at full sizes (smoke grids
  # are too small to assert it). It compares the grids' in-process wall
  # times from --self-profile, not whole-process walls: the cold Large
  # grids take tens of milliseconds, so process start-up would dominate
  # the warm side. A missing measurement (0) fails the gate.
  check_stage fig7_cache_speedup_5x \
    awk "BEGIN{exit !($FIG7_WARM_GRID_MS > 0 && $FIG7_COLD_GRID_MS >= 5 * $FIG7_WARM_GRID_MS)}"
  check_stage fig8_cache_speedup_5x \
    awk "BEGIN{exit !($FIG8_WARM_GRID_MS > 0 && $FIG8_COLD_GRID_MS >= 5 * $FIG8_WARM_GRID_MS)}"
fi

# The zero-dependency bench binaries (formerly the criterion harness):
# each regenerates its figure data and prints `bench: ... ns/iter` lines
# for its timed hot paths; the stage wall time is the recorded baseline.
run_stage bench_fig07_micro_comparison "$out/bench_fig07.txt" \
  "$BENCH_DIR/bench_fig07_micro_comparison" \
  --size "$GRID_SIZE" --runs "$GRID_RUNS" --iters "$BENCH_ITERS"
run_stage bench_ablation_sampling "$out/bench_abl.txt" \
  "$BENCH_DIR/bench_ablation_sampling" \
  --size "$GRID_SIZE" --iters "$BENCH_ITERS"

if run_stage sanitizer_check_all "$out/check.txt" \
  "$CLI" check --all --deny warnings --size "$GRID_SIZE"; then
  check_stage sanitizer_clean grep -q "0 errors, 0 warnings" "$out/check.txt"
fi

run_stage bfs_uvm_fault_path "$out/bfs.txt" \
  "$CLI" run bfs --size "$BFS_SIZE" --mode uvm --runs 1 --threads 1

run_stage chaos_degradation_sweep "$out/chaos.txt" \
  "$CLI" chaos --size "$CHAOS_SIZE" --seeds 4 --rates 0,0.5,1 --threads 1

# The serving layer's arrival-rate sweep: all three policies across a
# quiet->saturated rate ladder on a 4-GPU fleet, the hot path behind
# `hetsim-cli serve` (EXPERIMENTS.md latency-under-load appendix). The
# threads-4 rerun must be byte-identical — the serve determinism gate,
# recorded here as a baseline stage as well as asserted in ci.sh.
run_stage serve_latency_sweep "$out/serve1.txt" \
  "$CLI" serve --policy all --mix poisson --rates 50,200,800,3200 \
  --seed 42 --gpus 4 --requests "$SERVE_REQUESTS" --size "$CHAOS_SIZE" --threads 1
run_stage serve_latency_sweep_threads4 "$out/serve4.txt" \
  "$CLI" serve --policy all --mix poisson --rates 50,200,800,3200 \
  --seed 42 --gpus 4 --requests "$SERVE_REQUESTS" --size "$CHAOS_SIZE" --threads 4
check_stage serve_determinism cmp -s "$out/serve1.txt" "$out/serve4.txt"

# The resilience layer's availability sweep: every policy across a
# fault-intensity ramp at a mid-ladder rate, the hot path behind
# `hetsim-cli serve --chaos`. Intensity 0 rides along as the fault-free
# control row, so this stage also times the separability-gated code path.
run_stage serve_availability_sweep "$out/serve_chaos.txt" \
  "$CLI" serve --chaos --policy all --mix poisson --rates 200,800 \
  --intensities 0,0.5,1 --seed 42 --gpus 4 --requests "$SERVE_REQUESTS" \
  --size "$CHAOS_SIZE" --threads 1

# Streaming trace export: a five-mode sweep drained to JSONL during the
# merge. The wall time covers simulation + export (the export is the
# delta over an untraced run, which the grid stages above record); the
# events/sec figure is the baseline for exporter-overhead regressions.
TRACE_EVENTS=0
TRACE_MS=1
if run_stage trace_export_throughput "$out/tracestream.txt" \
  "$CLI" run vector_seq --size "$GRID_SIZE" --runs "$GRID_RUNS" --threads 1 \
  --trace-stream "$out/stream.jsonl"; then
  TRACE_EVENTS="$(grep -o 'streamed [0-9]* events' \
    "$out/trace_export_throughput.err" | grep -o '[0-9]*' | head -1)"
  TRACE_EVENTS="${TRACE_EVENTS:-0}"
  TRACE_MS=$TIMED_MS
fi
TRACE_EPS="$(awk "BEGIN{ms=$TRACE_MS; if (ms <= 0) ms = 1; \
  printf \"%.0f\", $TRACE_EVENTS * 1000 / ms}")"

# The parallel stages can only beat serial when the host has cores to
# spare; record the machine's parallelism so the baseline is
# interpretable (on a 1-core CI container the --threads 4 numbers are
# expected to match serial within noise, while byte-identity must hold
# everywhere).
HOST_PARALLELISM="$(nproc 2>/dev/null || echo 1)"

# BENCH_RESULT overrides the output path (CI writes smoke runs to a
# scratch file for the regression comparator without clobbering the
# committed full-mode baseline).
RESULT="${BENCH_RESULT:-BENCH_sweep.json}"
if [[ $SMOKE -eq 1 && -z "${BENCH_RESULT:-}" ]]; then
  RESULT="$out/BENCH_smoke.json"
fi

# The recorded speed-ups are the gated ones: in-process grid walls.
FIG7_SPEEDUP="$(awk "BEGIN{w=$FIG7_WARM_GRID_MS; if (w <= 0) w = 1; \
  printf \"%.1f\", $FIG7_COLD_GRID_MS / w}")"
FIG8_SPEEDUP="$(awk "BEGIN{w=$FIG8_WARM_GRID_MS; if (w <= 0) w = 1; \
  printf \"%.1f\", $FIG8_COLD_GRID_MS / w}")"

cat > "$RESULT" <<EOF
{
  "smoke": $SMOKE,
  "host_parallelism": $HOST_PARALLELISM,
  "grid_size": "$GRID_SIZE",
  "grid_runs": $GRID_RUNS,
  "bfs_size": "$BFS_SIZE",
  "chaos_size": "$CHAOS_SIZE",
  "serve_requests": $SERVE_REQUESTS,
  "stage_timeout_s": $STAGE_TIMEOUT,
  "trace_export": {
    "events": $TRACE_EVENTS,
    "wall_ms": $TRACE_MS,
    "events_per_sec": $TRACE_EPS
  },
  "parallel_overhead": {
    "fig7_serial_wall_ms": $FIG7_SERIAL_MS,
    "fig7_threads4_wall_ms": $FIG7_T4_MS,
    "fig8_serial_wall_ms": $FIG8_SERIAL_MS,
    "fig8_threads4_wall_ms": $FIG8_T4_MS,
    "memo_overhead_ms": $MEMO_OVERHEAD_MS,
    "memo_simulate_ms": $MEMO_SIMULATE_MS,
    "trace_merge_ms": $TRACE_MERGE_MS
  },
  "result_cache": {
    "fig7": {"cold_wall_ms": $FIG7_COLD_MS, "warm_wall_ms": $FIG7_WARM_MS,
             "cold_grid_ms": $FIG7_COLD_GRID_MS, "warm_grid_ms": $FIG7_WARM_GRID_MS,
             "cold_misses": $FIG7_COLD_MISSES, "warm_hits": $FIG7_WARM_HITS,
             "speedup_x": $FIG7_SPEEDUP},
    "fig8": {"cold_wall_ms": $FIG8_COLD_MS, "warm_wall_ms": $FIG8_WARM_MS,
             "cold_grid_ms": $FIG8_COLD_GRID_MS, "warm_grid_ms": $FIG8_WARM_GRID_MS,
             "cold_misses": $FIG8_COLD_MISSES, "warm_hits": $FIG8_WARM_HITS,
             "speedup_x": $FIG8_SPEEDUP}
  },
  "stages": {
$STAGE_RECORDS
  }
}
EOF
echo "==> wrote $RESULT"
cat "$RESULT"

if [[ -n "$FAILED_STAGES" ]]; then
  echo "FAIL: stages not ok:$FAILED_STAGES"
  exit 1
fi
