#!/usr/bin/env bash
# perf_smoke.sh — coarse throughput and memory gates for CI.
#
# Runs explorer_cli on dac5 (the smallest task big enough that exploration
# time dominates engine setup) with the serial engine and with the parallel
# engine at 4 threads, best-of-3 after a warmup, and fails if the parallel
# engine's nodes/sec falls below MIN_RATIO x serial. This is a 1.0x
# regression gate on the parallel hot path, not a microbenchmark —
# scheduler noise on shared CI runners makes tighter ratios flaky.
#
# On a single-core host the gate is skipped (exit 0 with a warning): with
# every thread timesharing one core, parallel throughput measures per-node
# overhead rather than speedup, and a ">= serial" gate would fail for
# reasons no code change can fix. The measured ratio is still printed so
# the log records what the host saw.
#
# A second gate asserts that symmetry reduction pays at wall-clock: the same
# task explored serially with --reduction symmetry must finish strictly
# faster than with --reduction none (docs/checking.md, "State-space
# reduction"). Serial and single-threaded on both sides, so this gate runs
# on single-core hosts too. It protects the tie-class canonical search
# (which never scans the group) from regressing back to "reduction costs
# more than it saves"; dac5-sym's group of 24 is below the size at which
# explore() installs an orbit cache of its own.
#
# A third gate bounds memory: explorer_cli on dac6 at 4 threads must peak at
# no more than 160 MB of resident memory, as its "peak RSS" line reports
# (getrusage). The explored graph stores each node once, as its intern key,
# with edges in CSR form; a regression to per-node decoded configurations
# roughly doubles the peak (354 MB). One run suffices: 22 runs pinned to 1,
# 2 and 4 cores of a 4-vCPU VM (GCC 12) all peaked at 143-145 MB. It also
# runs on single-core hosts.
#
# Usage: tools/perf_smoke.sh [build-dir]
#   MIN_RATIO             parallel gate threshold (default 1.0)
#   PERF_TASK             task to run (default dac5)
#   SYM_TASK              symmetry-pays gate task (default dac5-sym; must
#                         have a nontrivial symmetry group — plain dac5 has
#                         distinct inputs, so its group is trivial and
#                         reduction=symmetry is pure overhead there)
set -euo pipefail

BUILD_DIR="${1:-build}"
EXPLORER="$BUILD_DIR/tools/explorer_cli"
MIN_RATIO="${MIN_RATIO:-1.0}"
PERF_TASK="${PERF_TASK:-dac5}"

if [[ ! -x "$EXPLORER" ]]; then
  echo "error: $EXPLORER not found or not executable; build first" >&2
  exit 1
fi

CORES="$(nproc 2>/dev/null || echo 1)"

# best_rate ENGINE THREADS -> best nodes/sec of 3 timed runs (1 warmup).
best_rate() {
  local engine="$1" threads="$2" best=0 rate
  "$EXPLORER" "$PERF_TASK" --engine "$engine" --threads "$threads" \
      > /dev/null
  for _ in 1 2 3; do
    rate="$("$EXPLORER" "$PERF_TASK" --engine "$engine" \
                --threads "$threads" \
            | sed -nE 's/^ *elapsed [0-9.]+ s, ([0-9]+) nodes\/s$/\1/p')"
    if (( rate > best )); then best="$rate"; fi
  done
  echo "$best"
}

SERIAL="$(best_rate serial 1)"
PARALLEL="$(best_rate parallel 4)"

RATIO="$(awk -v p="$PARALLEL" -v s="$SERIAL" \
             'BEGIN { printf("%.2f", (s > 0) ? p / s : 0) }')"
echo "perf smoke ($PERF_TASK, $CORES cores):" \
     "serial=$SERIAL parallel(t4)=$PARALLEL parallel/serial=${RATIO}x"

if (( CORES < 2 )); then
  # The symmetry gate below still runs: it is serial and single-threaded
  # on both sides.
  echo "warn: single-core host; parallel-vs-serial gate skipped" >&2
elif awk -v r="$RATIO" -v m="$MIN_RATIO" 'BEGIN { exit !(r < m) }'; then
  echo "error: parallel engine is ${RATIO}x serial (< ${MIN_RATIO}x)" >&2
  exit 1
else
  echo "ok: parallel >= ${MIN_RATIO}x serial"
fi

# --- symmetry-pays gate -----------------------------------------------------
SYM_TASK="${SYM_TASK:-dac5-sym}"

# best_elapsed REDUCTION -> smallest elapsed seconds of 3 timed runs
# (1 warmup), serial engine, one thread. The gate is on wall-clock, not
# nodes/sec: the two reductions explore different numbers of nodes, so only
# elapsed time compares them fairly.
best_elapsed() {
  local reduction="$1" best="" t
  "$EXPLORER" "$SYM_TASK" --engine serial --threads 1 \
      --reduction "$reduction" > /dev/null
  for _ in 1 2 3; do
    t="$("$EXPLORER" "$SYM_TASK" --engine serial --threads 1 \
             --reduction "$reduction" \
         | sed -nE 's/^ *elapsed ([0-9.]+) s, [0-9]+ nodes\/s$/\1/p')"
    if [[ -z "$best" ]] || awk -v t="$t" -v b="$best" \
           'BEGIN { exit !(t < b) }'; then
      best="$t"
    fi
  done
  echo "$best"
}

NONE_S="$(best_elapsed none)"
SYM_S="$(best_elapsed symmetry)"
echo "sym cost ($SYM_TASK, serial t1): none=${NONE_S}s symmetry=${SYM_S}s"
if awk -v s="$SYM_S" -v n="$NONE_S" 'BEGIN { exit !(s >= n) }'; then
  echo "error: reduction=symmetry (${SYM_S}s) is not faster than" \
       "reduction=none (${NONE_S}s)" >&2
  exit 1
fi
echo "ok: symmetry reduction beats reduction=none on wall-clock"

# --- memory gate --------------------------------------------------------------
RSS_MB="$("$EXPLORER" dac6 --threads 4 \
          | sed -nE 's/^ *peak RSS ([0-9]+) MB$/\1/p')"
if [[ -z "$RSS_MB" ]]; then
  echo "error: explorer_cli printed no peak RSS line" >&2
  exit 1
fi
echo "memory (dac6, t4): peak RSS ${RSS_MB} MB (bound 160 MB)"
if (( RSS_MB > 160 )); then
  echo "error: peak RSS ${RSS_MB} MB exceeds 160 MB" >&2
  exit 1
fi
echo "ok: peak RSS within 160 MB"
