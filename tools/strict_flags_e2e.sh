#!/usr/bin/env bash
# strict_flags_e2e.sh — numeric flags of explorer_cli, fuzz_shrink_cli,
# hierarchy_sweep_cli, soak and schedule_replayer parse strictly: a value
# that is not wholly a number in range exits 2 with an error naming the
# flag, before any work runs. So do an engine name explorer_cli does not
# know, a flag a tool does not have, and a flag missing its value. A
# schedule_replayer --record that cannot be written exits 1. The same flags
# with well-formed values still run to a verdict.
#
# Usage: tools/strict_flags_e2e.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
TOOLS="$BUILD_DIR/tools"
for bin in explorer_cli fuzz_shrink_cli hierarchy_sweep_cli soak \
    schedule_replayer; do
  if [[ ! -x "$TOOLS/$bin" ]]; then
    echo "error: $TOOLS/$bin not found or not executable; build first" >&2
    exit 1
  fi
done

failures=0

# expect_usage_error FLAG TOOL ARGS...: TOOL ARGS must exit 2 and name FLAG
# on stderr.
expect_usage_error() {
  local flag="$1" tool="$2" err rc=0
  shift 2
  err="$(timeout 60 "$TOOLS/$tool" "$@" 2>&1 >/dev/null)" || rc=$?
  if [[ $rc -ne 2 || "$err" != *"$flag"* ]]; then
    echo "FAIL: $tool $* exited $rc (want 2 naming $flag): $err" >&2
    failures=$((failures + 1))
  fi
}

# expect_exit CODE TOOL ARGS...: well-formed values are accepted.
expect_exit() {
  local want="$1" tool="$2" rc=0
  shift 2
  timeout 120 "$TOOLS/$tool" "$@" >/dev/null 2>&1 || rc=$?
  if [[ $rc -ne $want ]]; then
    echo "FAIL: $tool $* exited $rc (want $want)" >&2
    failures=$((failures + 1))
  fi
}

expect_usage_error --runs fuzz_shrink_cli dac3 --runs many
expect_usage_error --runs fuzz_shrink_cli dac3 --runs 10k
expect_usage_error --runs fuzz_shrink_cli dac3 --runs 0
expect_usage_error --runs fuzz_shrink_cli dac3 --runs -1
expect_usage_error --runs fuzz_shrink_cli dac3 --runs ""
expect_usage_error --seed fuzz_shrink_cli dac3 --seed 99999999999999999999
expect_usage_error --threads fuzz_shrink_cli dac3 --threads " 2"
expect_usage_error --max-violations fuzz_shrink_cli dac3 --max-violations 0
expect_usage_error --deadline-s fuzz_shrink_cli dac3 --deadline-s 5x
expect_usage_error --stop-after-runs fuzz_shrink_cli dac3 --coverage \
    --stop-after-runs 1.5
expect_usage_error --checkpoint-every fuzz_shrink_cli dac3 --coverage \
    --checkpoint-every ten

expect_usage_error --max-levels explorer_cli dac3 --max-levels ten \
    --threads four
expect_usage_error --threads explorer_cli dac3 --threads four
expect_usage_error --threads explorer_cli dac3 --threads 2147483648
expect_usage_error --max-nodes explorer_cli dac3 --max-nodes 1e6
expect_usage_error --canon-cache-bytes explorer_cli dac3 \
    --canon-cache-bytes 4MiB
expect_usage_error --checkpoint-every explorer_cli dac3 --checkpoint-every +1
expect_usage_error --deadline-s explorer_cli dac3 --deadline-s inf
expect_usage_error --heartbeat-out explorer_cli dac3 --heartbeat-out F
expect_usage_error "unknown engine" explorer_cli dac3 --engine workstealing

expect_usage_error --only hierarchy_sweep_cli --only 3,2x
expect_usage_error --only hierarchy_sweep_cli --only three,2
expect_usage_error --n-max hierarchy_sweep_cli --n-max 6.0
expect_usage_error --threads hierarchy_sweep_cli --threads -2
expect_usage_error --max-nodes hierarchy_sweep_cli --max-nodes 5M

expect_usage_error seconds soak abc
expect_usage_error seconds soak -3
expect_usage_error --random schedule_replayer dac3 --random banana
expect_usage_error --random schedule_replayer dac3 \
    --random 18446744073709551616
expect_usage_error --recrod schedule_replayer dac3 --random 7 \
    --recrod "$BUILD_DIR/strict-flags-record.txt"
expect_usage_error --record schedule_replayer dac3 --random 7 --record
expect_exit 1 schedule_replayer dac3 --random 7 \
    --record "$BUILD_DIR/no-such-dir/x.txt"

expect_exit 0 explorer_cli dac3 --max-levels 100 --threads 2 \
    --max-nodes 100000 --canon-cache-bytes 65536 --deadline-s 60
expect_exit 0 fuzz_shrink_cli dac3 --runs 20 --seed 7 --threads 1 \
    --max-violations 1 --deadline-s 60
expect_exit 0 hierarchy_sweep_cli --only 2,1 --threads 1 --max-nodes 100000
expect_exit 0 soak 1
expect_exit 0 schedule_replayer dac3 --random 7

if [[ $failures -ne 0 ]]; then
  echo "strict_flags_e2e: $failures case(s) failed" >&2
  exit 1
fi
echo "strict_flags_e2e: ok"
