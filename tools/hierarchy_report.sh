#!/usr/bin/env bash
# hierarchy_report.sh — produce the machine-checked consensus-power table
# HIERARCHY.json (core/hierarchy_sweep.h): one row per (n, m), 2 <= n <=
# n_max, 1 <= m <= n, each certifying under ALL schedules that the
# (n,m)-PAC's consensus port solves m-consensus (for every p <= m), that its
# PAC ports solve n-DAC, and that the verdict matches the hierarchy catalog
# (Theorems 5.2/5.3, Observation 5.1(b)).
#
# Determinism matrix: before emitting the artifact, the deterministic rows
# document is re-produced on a reduced range (HIERARCHY_MATRIX_N_MAX,
# default 4) across engines x thread counts x cross-check reduction modes
# and byte-compared — the canonical-graph guarantee, proven at the artifact
# level. Then one canonical full-range run (serial, 1 thread) writes the
# artifact, which must pass `report_check hierarchy` before it is published
# atomically (same-directory staged rename; see run_report.sh for the
# discipline this mirrors).
#
# Usage: tools/hierarchy_report.sh [build-dir] [output.json]
# Env:   HIERARCHY_N_MAX (default 6)         full-range upper bound
#        HIERARCHY_MATRIX_N_MAX (default 4)  determinism-matrix upper bound
#        ROW_TIMEOUT (default 120)           per-invocation budget, seconds
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-HIERARCHY.json}"

SWEEP="$BUILD_DIR/tools/hierarchy_sweep_cli"
CHECK="$BUILD_DIR/tools/report_check"
for bin in "$SWEEP" "$CHECK"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not found or not executable; build first:" >&2
    echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
    exit 1
  fi
done

N_MAX="${HIERARCHY_N_MAX:-6}"
MATRIX_N_MAX="${HIERARCHY_MATRIX_N_MAX:-4}"

TMP="$(mktemp -d)"
# Staged in $OUT's own directory (a cross-filesystem mv from $TMP would not
# be atomic) and renamed into place only after it validates; the trap keeps
# every exit path (including ^C) from leaving a torn or stale artifact.
STAGED="$OUT.tmp.$$"
trap 'rm -rf "$TMP" "$STAGED"' EXIT INT TERM

# Per-invocation wall-clock budget. The full n <= 6 sweep finishes in
# seconds; an invocation that hits this is a stall, not a slow run.
ROW_TIMEOUT="${ROW_TIMEOUT:-120}"

# run_sweep ROWS_OUT EXTRA_ARGS...
# One sweep invocation under `timeout` with one retry — a transient stall
# (overloaded CI machine) gets a second chance, a repeat failure aborts the
# script (the EXIT trap discards the partial artifact). Any nonzero exit is
# a failure: exit 3 means a row refuted the declared level, which must never
# publish.
run_sweep() {
  local rows_out="$1" rc attempt
  shift
  for attempt in 1 2; do
    rc=0
    timeout "$ROW_TIMEOUT" "$SWEEP" --rows-json "$rows_out" "$@" \
        > /dev/null || rc=$?
    [[ $rc -eq 0 ]] && return 0
    echo "warn: hierarchy_sweep_cli $* exited $rc (attempt $attempt)" >&2
    if [[ $attempt -eq 2 ]]; then
      echo "error: sweep failed twice; no artifact written" >&2
      exit 1
    fi
  done
}

# Determinism matrix on the reduced range: every engine x thread count x
# cross-check mode must reproduce the rows document byte-identically.
# `auto` runs at 4 threads: at 1 thread explore() sends it straight to the
# serial engine, which the baseline already covers, so only a multi-thread
# `auto` exercises its probe.
run_sweep "$TMP/rows-base.json" --n-max "$MATRIX_N_MAX" \
    --engine serial --threads 1
MATRIX=("parallel 2" "parallel 8" "auto 4")
for row in "${MATRIX[@]}"; do
  read -r engine t <<<"$row"
  run_sweep "$TMP/rows-$engine-t$t.json" --n-max "$MATRIX_N_MAX" \
      --engine "$engine" --threads "$t"
  cmp "$TMP/rows-base.json" "$TMP/rows-$engine-t$t.json" || {
    echo "error: rows document differs for engine=$engine threads=$t" >&2
    exit 1
  }
done
for red in none por both; do
  run_sweep "$TMP/rows-xcheck-$red.json" --n-max "$MATRIX_N_MAX" \
      --engine serial --threads 1 --check-reduction "$red"
  cmp "$TMP/rows-base.json" "$TMP/rows-xcheck-$red.json" || {
    echo "error: rows document differs under --check-reduction $red" >&2
    exit 1
  }
done
echo "determinism matrix ok (n <= $MATRIX_N_MAX):" \
     "$(( ${#MATRIX[@]} + 4 )) sweeps byte-identical" >&2

# Canonical full-range run -> the published artifact (cross-checked against
# the unreduced exploration so the artifact never rests on symmetry alone).
for attempt in 1 2; do
  rc=0
  timeout "$ROW_TIMEOUT" "$SWEEP" --n-max "$N_MAX" \
      --engine serial --threads 1 --check-reduction none \
      --out "$STAGED" > "$TMP/full.txt" || rc=$?
  [[ $rc -eq 0 ]] && break
  echo "warn: full-range sweep exited $rc (attempt $attempt)" >&2
  if [[ $attempt -eq 2 ]]; then
    echo "error: full-range sweep failed twice; no artifact written" >&2
    exit 1
  fi
done

# Validate the staged artifact, then publish it atomically (same-directory
# rename): readers — and a rerun after ^C — either see the previous
# complete artifact or this one, never a torn write.
"$CHECK" hierarchy "$STAGED" >&2
mv -f "$STAGED" "$OUT"
echo "wrote $OUT ($(( N_MAX * (N_MAX + 1) / 2 - 1 )) rows, n <= $N_MAX)" >&2
