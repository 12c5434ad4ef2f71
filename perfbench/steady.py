#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs each workload several times, each with another seed, and prints every
end-to-end metric's median, first and third quartile, and spread
(q3 - q1) / median, next to the bound BENCHMARK.json allows. Quartiles come
from statistics.quantiles(values, n=4). Run it from the checkout root:

    python3 perfbench/steady.py --runs 10 --seeds-from 1
    python3 perfbench/steady.py --workloads repro-eval --runs 5

With --out FILE the raw per-run metrics are also written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    proc = subprocess.run(args, capture_output=True, text=True)
    took = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: correctness gate failed")
    return result, took


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seeds-from", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", default="")
    opts = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    for workload in opts.workloads.split(","):
        values = {}
        for i in range(opts.runs):
            seed = opts.seeds_from + i
            result, took = run_once(bench["command"], workload, seed, opts.seconds)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"# {workload} seed {seed}: {took:.1f}s wall, "
                  f"{result['attempted']} checked", flush=True)
        raw[workload] = values
        print(f"\n{workload} ({opts.runs} runs, seeds {opts.seeds_from}.."
              f"{opts.seeds_from + opts.runs - 1})")
        print(f"  {'metric':<22}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for name in sorted(values):
            vs = values[name]
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / q2 if q2 else float("nan")
            flag = "" if spread <= bounds.get(name, 1) / 3 else "  > bound/3"
            print(f"  {name:<22}{q2:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{spread:>9.3f}{bounds.get(name, float('nan')):>7.2f}{flag}")
        print(flush=True)
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
