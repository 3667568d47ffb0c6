#!/usr/bin/env bash
# e2e deadline gate (tcr::guard): with stall-injected slow solves
# (TCR_FAULT_STALL_MS, tcr::fault), a --deadline run must stop
# cooperatively within deadline + grace, exit with the partial status (7),
# print the stop diagnosis, and mark what it did not finish in the --json
# records — partial numbers, clearly marked, never an abort.
#
# Usage: guard_deadline.sh <bench_binary> <workdir> [<record_regex> <bench_arg>...]
#
# With two arguments the bench is bench_fig1_wc_tradeoff running a warm
# k = 4 sweep, and some record must be labeled "provenance":"degraded".
# Otherwise the bench runs with the given arguments (plus --deadline and
# --json), and some record must match <record_regex> (grep -E).
#
# Chaos knob (env): TCR_E2E_STALL_MS sets the per-refactorization stall
# (default 500ms); the CI chaos matrix sweeps it to vary how far past the
# deadline an in-flight stall can carry the run.
set -u

bench="$1"
work="$2"
shift 2
if [ "$#" -eq 0 ]; then
  # Budget-degraded points must be flagged in the records so gates can
  # tell interpolations from measurements.
  set -- '"provenance":"degraded"' --k 4 --points 5 --warm
fi
record="$1"
shift
stall="${TCR_E2E_STALL_MS:-500}"
rm -rf "$work"
mkdir -p "$work"

deadline=1.5
# Cooperative stop: the worst case rides out one in-flight stall plus the
# poll cadence; the rest is CI scheduling slack. A run the deadline never
# reaches is killed at twice the grace, so the failure is reported, not hung.
grace_total=15

start=$(date +%s)
TCR_FAULT_STALL_MS="$stall" timeout $((2 * grace_total)) "$bench" "$@" \
  --deadline "$deadline" --json "$work/run.jsonl" >"$work/run.log" 2>&1
status=$?
elapsed=$(($(date +%s) - start))

if [ "$status" -ne 7 ]; then
  echo "deadline run exited $status after ${elapsed}s, want 7 (partial)"
  cat "$work/run.log"
  exit 1
fi
if [ "$elapsed" -gt "$grace_total" ]; then
  echo "run took ${elapsed}s; must stop within deadline ($deadline s) + grace"
  exit 1
fi
if ! grep -q "deadline" "$work/run.log"; then
  echo "stop diagnosis naming the deadline missing from the bench output"
  cat "$work/run.log"
  exit 1
fi
if ! grep -Eq "$record" "$work/run.jsonl"; then
  echo "no record matching $record in run.jsonl"
  cat "$work/run.jsonl"
  exit 1
fi

echo "deadline e2e OK: exit 7 in ${elapsed}s with a record matching $record"
