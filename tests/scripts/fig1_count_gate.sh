#!/usr/bin/env bash
# Count gate for the paper-scale Figure 1 sweep: the 11-point k = 8 warm
# sweep must finish inside a simplex-iteration budget, which host load
# cannot move, with every curve point solved and certified. A run that
# needs more iterations is cut by the budget and exits 7 (partial).
#
# Usage: fig1_count_gate.sh <bench_fig1_wc_tradeoff> <workdir> <budget>
set -u

bench="$1"
work="$2"
budget="$3"
points=11
rm -rf "$work"
mkdir -p "$work"

"$bench" --k 8 --points "$points" --budget "$budget" --json "$work/run.jsonl" \
  >"$work/run.log" 2>&1
status=$?
if [ "$status" -ne 0 ]; then
  echo "sweep exited $status, want 0 (finished inside $budget iterations)"
  tail -n 20 "$work/run.log"
  exit 1
fi
curve=$(grep -c '"series":"optimal_curve"' "$work/run.jsonl")
certified=$(grep '"series":"optimal_curve"' "$work/run.jsonl" |
  grep -c '"status":"optimal".*"certificate":{"checked":true,"pass":true')
if [ "$curve" -ne "$points" ] || [ "$certified" -ne "$points" ]; then
  echo "$certified of $curve curve records are optimal and certified, want $points of $points"
  exit 1
fi
echo "count gate OK: $points of $points curve points certified inside $budget iterations"
