#!/usr/bin/env python3
"""Steadiness check: run one workload N times with different seeds and print,
for every metric, its median, quartiles, spread and bound.

The spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4). A metric is "steady" when its spread is
below a third of its bound, "within" when below the bound, and "UNSTEADY"
otherwise.

Run from the repository root:

    python3 servebench/steady.py --workload write_heavy --runs 5
    python3 servebench/steady.py --workload read_heavy --runs 10 --trace 1

The command comes from BENCHMARK.json; the seeds are 1..N.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    args = ap.parse_args()

    command = spec["command"]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    for i in range(args.runs):
        seed = 1 + i
        cmd = command + ["--workload", args.workload, "--seed", str(seed),
                         "--seconds", str(args.seconds), "--trace", str(args.trace)]
        start = time.time()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"run with seed {seed} failed (exit {proc.returncode})")
        result = json.loads(lines[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: {time.time() - start:.1f} s, correct={result['correct']}, "
              f"attempted={result['attempted']}, failed={result['failed']}", flush=True)

    bad = 0
    print(f"\n{args.workload}, {args.runs} runs, trace {args.trace}")
    print(f"{'metric':<34}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}  verdict")
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else float("inf") if q3 != q1 else 0.0
        bound = m.get("bound")
        if bound is None:
            verdict = ""
        elif spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within"
        else:
            verdict = "UNSTEADY"
            bad += 1
        bound_s = f"{bound:.2f}" if bound is not None else "-"
        print(f"{m['name']:<34}{med:>14.4f}{q1:>14.4f}{q3:>14.4f}{spread:>9.3f}{bound_s:>7}  {verdict}")
        if args.values:
            print("    " + " ".join(f"{x:.4g}" for x in v))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
