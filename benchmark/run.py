#!/usr/bin/env python3
"""Build tcr-bench from this checkout and run the benchmark workloads.

One workload in one mode (the form BENCHMARK.json names):

    python3 benchmark/run.py --workload NAME --seed N --seconds T --trace 0|1

prints tcr-bench's output unchanged; its last line is the JSON result
{"correct", "attempted", "failed", "metrics"}. Without --workload every
workload runs, and without --trace each runs untraced (end-to-end metrics)
and then traced (per-layer metrics); the traced run's outputs must then
equal the untraced run's bit for bit, and their time ratio is printed as
trace.overhead_ratio. --repeat R runs each R times and reports the median
and quartiles. --out DIR writes DIR/results.json and DIR/ledger.jsonl, a
bench-schema run file that `tcr-perf append` ingests.

The build goes to .bench_build/ at the repository root. The exit status is
0 when every output check passed and nonzero otherwise.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
EXE = BUILD / "tcr-bench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build tcr-bench; compiler output goes to stderr."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "tcr-bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            log("error: building tcr-bench failed: " + " ".join(cmd))
            return False
    return True


def run_once(workload, seed, seconds, trace):
    """Runs tcr-bench once; returns (stdout lines, parsed result) or None."""
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"error: {workload} (trace {trace}) ran past {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"error: {workload} (trace {trace}) exited {proc.returncode} "
            "without a result line")
        return None
    return lines, result


def check_metric_names(spec, trace, result):
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    got = list(result.get("metrics", {}))
    if sorted(got) != sorted(want):
        log("error: tcr-bench metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
        return False
    return True


def summarize(values):
    """Median and quartiles (statistics.quantiles, n=4) of repeated values."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if not 0 <= args.seed < 1 << 64 or args.seconds < 0 or args.repeat < 1:
        parser.error("need 0 <= --seed < 2^64, --seconds >= 0 and --repeat >= 1")
    # A SIGTERM unwinds through subprocess.run, which then kills and reaps
    # the running child instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not build():
        return 1

    workloads = [args.workload] if args.workload else names
    modes = [args.trace] if args.trace is not None else [0, 1]
    if len(workloads) == 1 and len(modes) == 1 and args.repeat == 1 and args.out is None:
        got = run_once(workloads[0], args.seed, args.seconds, modes[0])
        if got is None or not check_metric_names(spec, modes[0], got[1]):
            return 1
        print("\n".join(got[0]), flush=True)
        return 0 if got[1]["correct"] else 1

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    results = {}
    provenance = None
    ok = True
    for w in workloads:
        entry = {"attempted": 0, "failed": 0, "metrics": {}}
        first = None  # output records of the first run, as printed
        traced_body_s = []
        for trace in modes:
            values = {}
            for _ in range(args.repeat):
                got = run_once(w, args.seed, args.seconds, trace)
                if got is None or not check_metric_names(spec, trace, got[1]):
                    return 1
                lines, result = got
                outputs = []
                for line in lines[:-1]:
                    _, kind, rest = (line.split(" ", 2) + ["", ""])[:3]
                    if kind == "output":
                        outputs.append(rest)
                    elif kind == "traced_body_s":
                        traced_body_s.append(float(rest.split()[0]))
                    elif kind == "provenance":
                        provenance = json.loads(rest)
                    elif kind == "check":
                        print(line)
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                # Every run has the same seed, so every run, traced or not,
                # must reproduce the first one's outputs bit for bit.
                if first is None:
                    first = outputs
                else:
                    entry["attempted"] += 1
                    if outputs != first:
                        entry["failed"] += 1
                        print(f"{w} check FAILED: a trace {trace} run's outputs differ "
                              "from the first run's", flush=True)
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            for name, vals in values.items():
                s = summarize(vals)
                entry["metrics"][name] = dict(s, unit=units[name], values=vals)
                line = f"{w} {name} {s['median']:.9g} {units[name]}"
                if args.repeat > 1:
                    spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
                    line += f"  q1 {s['q1']:.9g} q3 {s['q3']:.9g} spread {spread:.1%}"
                print(line, flush=True)
        entry["outputs"] = [json.loads(r) for r in first]
        if traced_body_s and "wall_s" in entry["metrics"]:
            entry["trace_overhead_ratio"] = (statistics.median(traced_body_s)
                                             / entry["metrics"]["wall_s"]["median"])
            print(f"{w} trace.overhead_ratio {entry['trace_overhead_ratio']:.9g} ratio "
                  "(traced body over untraced wall_s)", flush=True)
        entry["correct"] = entry["failed"] == 0
        entry["fail_frac"] = entry["failed"] / max(1, entry["attempted"])
        print(f"{w} fail_frac {entry['fail_frac']:.9g} ratio "
              f"({entry['failed']}/{entry['attempted']} checks failed)", flush=True)
        ok = ok and entry["correct"]
        results[w] = entry

    if args.out is not None:
        write_results(args, results, provenance)
    return 0 if ok else 1


def write_results(args, results, provenance):
    args.out.mkdir(parents=True, exist_ok=True)
    params = {"seed": args.seed, "seconds": args.seconds, "repeat": args.repeat}
    (args.out / "results.json").write_text(
        json.dumps({"params": params, "workloads": results}, indent=1) + "\n")
    # Bench-schema run file: the workload prefixes keep each workload's
    # quantities apart when tcr-perf sums a run's perf blocks.
    lines = [{"schema_version": 1, "kind": "meta", "bench": "tcr_bench",
              "params": params, "provenance": provenance or {}}]
    for w, entry in results.items():
        m = entry["metrics"]
        perf = {"source": "rusage"}
        for key, name, scale in [("wall_ns", "wall_s", 1e9), ("cpu_ns", "cpu_s", 1e9),
                                 ("setup_wall_ns", "setup_s", 1e9),
                                 ("max_rss_kb", "peak_rss_mb", 1024),
                                 ("alloc_count", "process.alloc_count", 1),
                                 ("alloc_bytes", "process.alloc_mb", 1 << 20)]:
            if name in m:
                perf[f"{w}.{key}"] = m[name]["median"] * scale
        lines.append({"kind": "point", "bench": "tcr_bench",
                      "point": {"workload": w, "correct": entry["correct"],
                                "fail_frac": entry["fail_frac"]},
                      "perf": perf})
    (args.out / "ledger.jsonl").write_text("".join(json.dumps(r) + "\n" for r in lines))
    log(f"wrote {args.out / 'results.json'} and {args.out / 'ledger.jsonl'}")


if __name__ == "__main__":
    sys.exit(main())
