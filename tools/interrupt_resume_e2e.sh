#!/usr/bin/env bash
# interrupt_resume_e2e.sh — end-to-end check of the long-run lifecycle
# (docs/checking.md, "Long runs") through the real CLI binaries:
#
#   1. explorer: deterministic interrupt (--max-levels) with a checkpoint,
#      exit 4, then --resume to a final graph identical to an uninterrupted
#      run — serial and parallel, with and without reduction.
#   2. fuzzer: coverage campaign interrupted at a run boundary
#      (--stop-after-runs), exit 4, then --resume to a byte-identical
#      final report, from the checkpoint as written and relabelled as a
#      schema-1 file.
#   3. SIGINT smoke: a real ^C against a running explorer produces either a
#      clean finish (0) or a resumable interrupt (4) — never a crash — and
#      an interrupt leaves a loadable checkpoint behind.
#   4. Stale, corrupt and old-schema (1 and 2) explore checkpoints exit 1
#      with a diagnostic, not a wrong graph.
#
# Every interrupted run also carries the full observability flag set
# (--metrics-json --trace-out): an exit-4 run must finalize and atomically
# write ALL of its artifacts.
#
# Usage: tools/interrupt_resume_e2e.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
EXPLORER="$BUILD_DIR/tools/explorer_cli"
FUZZER="$BUILD_DIR/tools/fuzz_shrink_cli"
CHECK="$BUILD_DIR/tools/report_check"
for bin in "$EXPLORER" "$FUZZER" "$CHECK"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not found or not executable; build first" >&2
    exit 1
  fi
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM
fail() { echo "FAIL: $*" >&2; exit 1; }

# Graph shape line ("task: N nodes, M transitions, depth D...") from a run's
# stdout — the cross-run comparison key. Resumed runs must reproduce the
# uninterrupted graph exactly; metrics counters intentionally differ (they
# count per-session work), so the comparison uses the shape, not the report.
shape() { sed -n '1p' "$1"; }

echo "== explorer interrupt/resume =="
for engine_args in "--engine serial" "--engine parallel --threads 4"; do
  for red in none both; do
    # shellcheck disable=SC2086  # engine_args is intentionally word-split
    "$EXPLORER" dac4-sym $engine_args --reduction "$red" \
        > "$TMP/base.txt" || fail "baseline run failed ($engine_args $red)"
    rc=0
    # shellcheck disable=SC2086
    "$EXPLORER" dac4-sym $engine_args --reduction "$red" --max-levels 2 \
        --checkpoint "$TMP/e.ckpt" --metrics-json "$TMP/partial.json" \
        --trace-out "$TMP/partial.trace.json" \
        > "$TMP/part.txt" || rc=$?
    [[ $rc -eq 4 ]] || fail "interrupt expected exit 4, got $rc"
    grep -q '(interrupted)' "$TMP/part.txt" || fail "no interrupted marker"
    # An exit-4 run finalizes every artifact it was asked for — a valid run
    # report and a valid trace — not torn or missing files.
    "$CHECK" run-report "$TMP/partial.json" > /dev/null \
        || fail "partial RunReport invalid"
    "$CHECK" trace "$TMP/partial.trace.json" > /dev/null \
        || fail "partial trace invalid"
    # shellcheck disable=SC2086
    "$EXPLORER" dac4-sym $engine_args --reduction "$red" \
        --resume "$TMP/e.ckpt" --metrics-json "$TMP/resumed.json" \
        > "$TMP/res.txt" || fail "resume failed ($engine_args $red)"
    [[ "$(shape "$TMP/base.txt")" == "$(shape "$TMP/res.txt")" ]] \
        || fail "resumed graph differs ($engine_args $red):
  base:    $(shape "$TMP/base.txt")
  resumed: $(shape "$TMP/res.txt")"
    "$CHECK" run-report "$TMP/resumed.json" > /dev/null \
        || fail "resumed RunReport invalid"
  done
done
echo "ok: resumed graphs identical (2 engines x 2 reductions);" \
     "exit-4 artifacts all validate"

echo "== fuzzer interrupt/resume =="
FUZZ_ARGS=(dac3 --coverage --runs 300 --seed 9)
"$FUZZER" "${FUZZ_ARGS[@]}" > "$TMP/fbase.txt" || fail "baseline fuzz failed"
rc=0
"$FUZZER" "${FUZZ_ARGS[@]}" --stop-after-runs 100 \
    --checkpoint "$TMP/f.ckpt" > "$TMP/fpart.txt" || rc=$?
[[ $rc -eq 4 ]] || fail "fuzz interrupt expected exit 4, got $rc"
"$FUZZER" "${FUZZ_ARGS[@]}" --resume "$TMP/f.ckpt" > "$TMP/fres.txt" \
    || fail "fuzz resume failed"
diff "$TMP/fbase.txt" "$TMP/fres.txt" > /dev/null \
    || fail "resumed fuzz report differs from uninterrupted run"
# Fuzz files said schema version 1 until explore checkpoints moved to
# schema 2; the fuzz layout never changed, so they still resume. Byte 8 is
# the low byte of the little-endian version word, outside the payload hash.
printf '\001' | dd of="$TMP/f.ckpt" bs=1 seek=8 conv=notrunc status=none
"$FUZZER" "${FUZZ_ARGS[@]}" --resume "$TMP/f.ckpt" > "$TMP/fres1.txt" \
    || fail "schema-1 fuzz resume failed"
diff "$TMP/fbase.txt" "$TMP/fres1.txt" > /dev/null \
    || fail "schema-1 resumed fuzz report differs from uninterrupted run"
echo "ok: resumed fuzz report byte-identical (schema 2 and schema 1 files)"

echo "== SIGINT smoke =="
# dac6 (~250k nodes, a second or two) runs long enough that a ^C shortly
# after launch lands mid-exploration on any machine fast or slow. Both
# outcomes are legal — finished before the signal (0) or interrupted at a
# level boundary (4); anything else is a bug.
rc=0
"$EXPLORER" dac6 --checkpoint "$TMP/s.ckpt" \
    --metrics-json "$TMP/sig.run.json" --trace-out "$TMP/sig.trace.json" \
    > "$TMP/sig.txt" &
pid=$!
sleep 0.2
kill -INT "$pid" 2>/dev/null || true
wait "$pid" || rc=$?
# Whether the run finished (0) or was interrupted (4), every requested
# artifact must exist and validate — a ^C must never leave torn JSON.
"$CHECK" run-report "$TMP/sig.run.json" > /dev/null \
    || fail "RunReport after SIGINT invalid"
"$CHECK" trace "$TMP/sig.trace.json" > /dev/null \
    || fail "trace after SIGINT invalid"
if [[ $rc -eq 4 ]]; then
  [[ -f "$TMP/s.ckpt" ]] || fail "interrupted without a checkpoint on disk"
  "$EXPLORER" dac6 --resume "$TMP/s.ckpt" > "$TMP/sigres.txt" \
      || fail "resume after SIGINT failed"
  "$EXPLORER" dac6 > "$TMP/sigbase.txt" || fail "baseline run failed"
  [[ "$(shape "$TMP/sigbase.txt")" == "$(shape "$TMP/sigres.txt")" ]] \
      || fail "graph after SIGINT+resume differs from uninterrupted run"
  echo "ok: SIGINT -> exit 4, checkpoint resumes to identical graph"
elif [[ $rc -eq 0 ]]; then
  echo "ok: run finished before the signal landed (exit 0)"
else
  fail "SIGINT produced exit $rc (want 0 or 4)"
fi

echo "== stale/corrupt checkpoints rejected =="
rc=0
"$EXPLORER" dac4-sym --max-levels 1 --checkpoint "$TMP/stale.ckpt" \
    > /dev/null || rc=$?
[[ $rc -eq 4 ]] || fail "checkpoint setup expected exit 4, got $rc"
rc=0
"$EXPLORER" dac3-sym --resume "$TMP/stale.ckpt" > /dev/null \
    2> "$TMP/stale.err" || rc=$?
[[ $rc -eq 1 ]] || fail "wrong-task resume expected exit 1, got $rc"
grep -qi "precondition\|mismatch\|does not match" "$TMP/stale.err" \
    || fail "wrong-task resume error lacks a diagnostic"
head -c 100 "$TMP/stale.ckpt" > "$TMP/trunc.ckpt"
rc=0
"$EXPLORER" dac4-sym --resume "$TMP/trunc.ckpt" > /dev/null 2>&1 || rc=$?
[[ $rc -eq 1 ]] || fail "corrupt resume expected exit 1, got $rc"
# Schema 1 predates each edge's to_pid, and schema 2 stored configurations
# as words with depths, parents and parent steps. Byte 8 is the low byte of
# the little-endian version word; the header is outside the payload hash.
for v in 1 2; do
  cp "$TMP/stale.ckpt" "$TMP/v$v.ckpt"
  printf "\\00$v" | dd of="$TMP/v$v.ckpt" bs=1 seek=8 conv=notrunc \
      status=none
  rc=0
  "$EXPLORER" dac4-sym --resume "$TMP/v$v.ckpt" > /dev/null \
      2> "$TMP/v$v.err" || rc=$?
  [[ $rc -eq 1 ]] || fail "schema-$v resume expected exit 1, got $rc"
  grep -q "schema version $v" "$TMP/v$v.err" \
      || fail "schema-$v resume error does not name the version"
done
echo "ok: stale, corrupt, schema-1 and schema-2 checkpoints rejected with" \
     "exit 1"

echo "PASS: interrupt/resume e2e"
