#!/usr/bin/env bash
# run_report.sh — produce the per-commit observability artifact
# BENCH_modelcheck.json: a sweep of explorer_cli run reports over small
# exhaustively-explorable tasks, merged under the versioned bench schema
#
#   {"lbsa_bench_schema": 1,
#    "benchmarks":  [{"task": "dac3", "threads": 1, "nodes": N,
#                     "nodes_per_sec": R}, ...,
#                    {"task": "dac4-sym", "threads": 1, "reduction": "both",
#                     "nodes": N, "nodes_per_sec": R,
#                     "reduction_ratio": X}, ...,
#                    {"task": "dac5", "engine": "parallel", "threads": 4,
#                     "threads_available": C, "reduction": "none",
#                     "nodes": N, "nodes_per_sec": R}, ...],
#    "run_reports": {"explorer_cli:dac3:t1": <RunReport>, ...}}
#
# The first two row shapes run at one thread, where `auto` never starts
# the worker pool, so they time the inline path; that is the whole
# explorer for every level narrower than the 1,024 nodes at which `auto`
# pools successor generation. The second shape is the
# state-space-reduction sweep (docs/checking.md, "State-space reduction"):
# symmetric corpus tasks explored at every --reduction mode;
# reduction_ratio is full-graph-nodes / reduced-nodes. The third is the
# engine sweep (docs/checking.md, "Engine selection") and the only place
# pooled generation is timed: bench-sized tasks explored by every engine;
# threads_available records how many cores the host really had, since a
# parallel-vs-serial comparison from a 1-core CI box measures per-node
# overhead, not speedup. A fourth row shape,
# {"task": "dac5-sym", "sym_cost": "none"|"symmetry", ...}, is the
# symmetry-cost pair (tools/perf_smoke.sh gates the same comparison).
#
# Noise control: every row is run once as a cache/allocator warmup and then
# three times, keeping the best nodes_per_sec — wall-clock rates from a
# single cold run on a shared CI machine swing by 2x and made cross-commit
# diffs of the rate columns meaningless. Node counts are deterministic and
# identical across the runs; the stable RunReport sections don't depend on
# timing at all.
#
# The artifact is validated with `report_check bench` before the script
# exits 0. CI archives it per commit; the stable metric sections inside
# each RunReport do not depend on the engine or thread count
# (ObsDeterminism.* in tests/obs/determinism_test.cc checks that), so diffs
# across commits are meaningful.
#
# Usage: tools/run_report.sh [build-dir] [output.json]
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_modelcheck.json}"

EXPLORER="$BUILD_DIR/tools/explorer_cli"
CHECK="$BUILD_DIR/tools/report_check"
for bin in "$EXPLORER" "$CHECK"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not found or not executable; build first:" >&2
    echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
    exit 1
  fi
done

# Small tasks an exhaustive exploration finishes in well under a second.
TASKS=(dac3 strawdac3 mutant-dac-no-adopt3)
# Symmetric tasks for the reduction sweep (declared non-trivial symmetry).
SYM_TASKS=(dac3-sym dac4-sym dac5-sym)
REDUCTIONS=(none symmetry por both)
# Engine sweep: tasks with levels wide enough for the worker pool to
# amortize its hand-offs, on the engines x reductions the speedup claims
# are made for.
PERF_TASKS=(dac5 consensus5)
PERF_REDUCTIONS=(none symmetry)
PERF_ENGINES=("serial 1" "parallel 4" "auto 4")
THREADS_AVAILABLE="$(nproc 2>/dev/null || echo 1)"

TMP="$(mktemp -d)"
# The artifact is staged in $OUT's own directory (a cross-filesystem mv from
# $TMP would not be atomic) and renamed into place only after it validates.
# The trap cleans both on every exit path (including ^C), so $OUT is never
# left truncated or stale.
STAGED="$OUT.tmp.$$"
trap 'rm -rf "$TMP" "$STAGED"' EXIT INT TERM

# Per-row wall-clock budget. Every task in the sweep finishes in well under
# a second; a row that hits this is a stall, not a slow run.
ROW_TIMEOUT="${ROW_TIMEOUT:-120}"

# run_explorer_once TASK THREADS REDUCTION ENGINE REPORT_PATH
# Runs one exploration under `timeout` with one retry — a transient stall
# (overloaded CI machine) gets a second chance, a repeat failure aborts the
# script (the EXIT trap discards the partial artifact). Any nonzero exit is
# a failure here: the sweep uses no node budget, so truncated(3) or
# interrupted(4) exits mean the row's report is incomplete.
# Parses explorer_cli's human output:
#   "dac3: 441 nodes, 1234 transitions, depth 12"
#   "  reduction=both: >=441 full-graph nodes, ratio 3.21x"   (reduction only)
#   "  elapsed 0.012345 s, 35773 nodes/s"
# and sets $NODES, $NODES_PER_SEC, $RATIO.
run_explorer_once() {
  local task="$1" t="$2" reduction="$3" engine="$4" report="$5" out rc attempt
  for attempt in 1 2; do
    rc=0
    out="$(timeout "$ROW_TIMEOUT" \
           "$EXPLORER" "$task" --threads "$t" --reduction "$reduction" \
           --engine "$engine" --metrics-json "$report")" || rc=$?
    [[ $rc -eq 0 ]] && break
    echo "warn: $task threads=$t reduction=$reduction engine=$engine" \
         "exited $rc (attempt $attempt)" >&2
    if [[ $attempt -eq 2 ]]; then
      echo "error: sweep row failed twice; no artifact written" >&2
      exit 1
    fi
  done
  NODES="$(sed -nE '1s/^[^:]+: ([0-9]+) nodes.*/\1/p' <<<"$out")"
  NODES_PER_SEC="$(sed -nE \
      's/^ *elapsed [0-9.]+ s, ([0-9]+) nodes\/s$/\1/p' <<<"$out")"
  RATIO="$(sed -nE 's/^ *reduction=.*ratio ([0-9.]+)x$/\1/p' <<<"$out")"
  [[ -n "$RATIO" ]] || RATIO=1.00
}

# run_explorer TASK THREADS REDUCTION ENGINE REPORT_PATH
# One bench row: warmup run (discarded), then best-of-3 on nodes_per_sec.
# The report written is the last run's — its stable sections are identical
# across all four runs.
run_explorer() {
  local task="$1" t="$2" reduction="$3" engine="$4" report="$5"
  local best=0
  run_explorer_once "$task" "$t" "$reduction" "$engine" "$report"  # warmup
  for _ in 1 2 3; do
    run_explorer_once "$task" "$t" "$reduction" "$engine" "$report"
    if (( NODES_PER_SEC > best )); then best="$NODES_PER_SEC"; fi
  done
  NODES_PER_SEC="$best"
}

{
  printf '{"lbsa_bench_schema":1,"benchmarks":['
  first=1
  for task in "${TASKS[@]}"; do
    run_explorer "$task" 1 none auto "$TMP/$task.json"
    [[ $first == 1 ]] || printf ','
    first=0
    printf '{"task":"%s","threads":1,"nodes":%s,"nodes_per_sec":%s}' \
        "$task" "$NODES" "$NODES_PER_SEC"
  done
  for task in "${SYM_TASKS[@]}"; do
    for red in "${REDUCTIONS[@]}"; do
      run_explorer "$task" 1 "$red" auto "$TMP/$task-$red.json"
      printf ',{"task":"%s","threads":1,"reduction":"%s","nodes":%s' \
          "$task" "$red" "$NODES"
      printf ',"nodes_per_sec":%s,"reduction_ratio":%s}' \
          "$NODES_PER_SEC" "$RATIO"
    done
  done
  for task in "${PERF_TASKS[@]}"; do
    for red in "${PERF_REDUCTIONS[@]}"; do
      for row in "${PERF_ENGINES[@]}"; do
        read -r engine t <<<"$row"
        run_explorer "$task" "$t" "$red" "$engine" \
            "$TMP/$task-$engine-t$t-$red.json"
        printf ',{"task":"%s","engine":"%s","threads":%d' \
            "$task" "$engine" "$t"
        printf ',"threads_available":%d,"reduction":"%s"' \
            "$THREADS_AVAILABLE" "$red"
        printf ',"nodes":%s,"nodes_per_sec":%s}' "$NODES" "$NODES_PER_SEC"
      done
    done
  done
  # Symmetry-cost pair (tools/perf_smoke.sh gates the same comparison): the
  # bench-sized symmetric task explored serially with reduction off and on —
  # same host, same engine, one thread. The honest wall-clock question for
  # the reduction: does canonicalization pay for the nodes it removes?
  # Wall-clock per row is nodes / nodes_per_sec, so the pair also records
  # whether symmetry finished strictly faster.
  SYM_COST_TASK="${SYM_COST_TASK:-dac5-sym}"
  for red in none symmetry; do
    run_explorer "$SYM_COST_TASK" 1 "$red" serial "$TMP/symcost-$red.json"
    printf ',{"task":"%s","sym_cost":"%s","threads":1' "$SYM_COST_TASK" "$red"
    printf ',"nodes":%s,"nodes_per_sec":%s}' "$NODES" "$NODES_PER_SEC"
  done
  printf '],"run_reports":{'
  first=1
  for task in "${TASKS[@]}"; do
    [[ $first == 1 ]] || printf ','
    first=0
    printf '"explorer_cli:%s:t1":' "$task"
    # write_run_report emits exactly one line of JSON.
    tr -d '\n' < "$TMP/$task.json"
  done
  for task in "${SYM_TASKS[@]}"; do
    for red in "${REDUCTIONS[@]}"; do
      printf ',"explorer_cli:%s:t1:%s":' "$task" "$red"
      tr -d '\n' < "$TMP/$task-$red.json"
    done
  done
  for task in "${PERF_TASKS[@]}"; do
    for red in "${PERF_REDUCTIONS[@]}"; do
      for row in "${PERF_ENGINES[@]}"; do
        read -r engine t <<<"$row"
        printf ',"explorer_cli:%s:%s:t%d:%s":' "$task" "$engine" "$t" "$red"
        tr -d '\n' < "$TMP/$task-$engine-t$t-$red.json"
      done
    done
  done
  for red in none symmetry; do
    printf ',"explorer_cli:%s:symcost:%s":' "$SYM_COST_TASK" "$red"
    tr -d '\n' < "$TMP/symcost-$red.json"
  done
  printf '}}\n'
} > "$STAGED"

# Validate the staged artifact, then publish it atomically (same-directory
# rename): readers — and a rerun after ^C — either see the previous complete
# artifact or this one, never a torn write.
"$CHECK" bench "$STAGED" >&2
mv -f "$STAGED" "$OUT"
echo "wrote $OUT" >&2
