#!/usr/bin/env python3
"""Runs one workload once per seed and reports, for every metric, the median,
the quartiles and the spread (quartile distance over the median), the
steadiness figure BENCHMARK.json's bounds are judged against.

    python3 perfbench/steady.py --workload build-streamed --seeds 101-110 [--trace 0] [--jsonl runs.jsonl]

Run from the repository root. Each run's result line is appended to --jsonl
when given. A run that fails is reported with the tail of its stderr and
left out of the table, the other seeds still run, and the script exits 1.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 101-110")
    ap.add_argument("--seconds", type=int, default=json.load(open("BENCHMARK.json"))["run_seconds"])
    ap.add_argument("--trace", default="0")
    ap.add_argument("--jsonl")
    args = ap.parse_args()

    runs, failed = [], []
    for seed in seeds(args.seeds):
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write("\n".join(out.stderr.splitlines()[-30:]) + "\n")
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            failed.append(seed)
            continue
        res = json.loads(lines[-1])
        res["seed"] = seed
        runs.append(res)
        if args.jsonl:
            with open(args.jsonl, "a") as f:
                f.write(json.dumps({"workload": args.workload, **res}) + "\n")
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}", file=sys.stderr)

    if not runs:
        sys.exit(f"{args.workload}: every run failed")
    print(f"{args.workload}: {len(runs)} runs, seeds {args.seeds}" + (f", failed seeds {failed}" if failed else ""))
    print(f"{'metric':34} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8}")
    for name in sorted(runs[0]["metrics"]):
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{name:34} {q1:12.6g} {med:12.6g} {q3:12.6g} {spread:8.3f}")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
