#!/usr/bin/env bash
# committed_verdicts.sh — regenerates the committed verdict artifacts and
# compares them byte for byte with the copies in the source tree:
# VERDICTS.json (tools/verdict_digests) three times, and EXPERIMENTS.md
# (tools/experiment_report). The VERDICTS.json runs are the serial engine,
# auto with 4 threads (the pool and the checks' parallel passes on the
# wide graphs only), and parallel with 3 threads, which pools every level
# and so runs both checkers' parallel passes on every task and reduction,
# the broken tasks' violations included. A change that moves a graph, a
# verdict or a report fails here and names what moved; regenerate the file
# it names if the change is meant.
#
# Usage: tools/committed_verdicts.sh BUILD_DIR SOURCE_DIR
set -euo pipefail

BUILD_DIR="$1"
SOURCE_DIR="$2"

REPORT="$(mktemp)"
trap 'rm -f "$REPORT"' EXIT

# The four regenerations run side by side; each names its own mismatch.
"$BUILD_DIR/tools/experiment_report" > "$REPORT" &
EXPERIMENTS=$!
"$BUILD_DIR/tools/verdict_digests" --engine serial --threads 1 \
    --check "$SOURCE_DIR/VERDICTS.json" &
SERIAL=$!
"$BUILD_DIR/tools/verdict_digests" --engine auto --threads 4 \
    --check "$SOURCE_DIR/VERDICTS.json" &
AUTO=$!
"$BUILD_DIR/tools/verdict_digests" --engine parallel --threads 3 \
    --check "$SOURCE_DIR/VERDICTS.json" &
PARALLEL=$!
FAILED=0
wait "$SERIAL" || { echo "error: the serial regeneration differs" >&2; FAILED=1; }
wait "$AUTO" || { echo "error: the auto (4 threads) regeneration differs" >&2; FAILED=1; }
wait "$PARALLEL" || { echo "error: the parallel (3 threads) regeneration differs" >&2; FAILED=1; }
wait "$EXPERIMENTS" || { echo "error: experiment_report failed" >&2; FAILED=1; }
if cmp -s "$REPORT" "$SOURCE_DIR/EXPERIMENTS.md"; then
  echo "ok: EXPERIMENTS.md matches"
else
  echo "error: experiment_report's output differs from EXPERIMENTS.md" >&2
  diff "$SOURCE_DIR/EXPERIMENTS.md" "$REPORT" | head -20 >&2 || true
  FAILED=1
fi
exit "$FAILED"
