#!/usr/bin/env bash
# Record three --perf runs of one Figure 1 bench config, for the perf gate's
# end-to-end chain: <prefix>-1.jsonl, <prefix>-2.jsonl and <prefix>-3.jsonl,
# one run file each, so that `tcr-perf append` stores three repeats of the
# commit and the gate compares medians.
#
# Usage: perf_record_runs.sh <bench_fig1_binary> <prefix>
set -eu

bench="$1"
prefix="$2"
for i in 1 2 3; do
  "$bench" --k 7 --points 3 --perf --json "$prefix-$i.jsonl"
done
