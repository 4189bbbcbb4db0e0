#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per (workload, seed) from the
repository root and prints, for every end-to-end metric, the median of the
runs and the distance between their first and third quartiles as a share of
the median (the figure each metric's bound is checked against).

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--bin PATH]

--bin runs an already-built perfbench binary instead of the command.
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
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--bin", default="")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    command = [args.bin] if args.bin else bench["command"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for w in workloads:
        values = {}
        for seed in seeds(args.seeds):
            run = subprocess.run(
                command + ["--workload", w, "--seed", str(seed),
                           "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            result = json.loads(run.stdout.strip().splitlines()[-1])
            print(f"{w} seed {seed}: exit {run.returncode} correct {result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for k, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            share = (q3 - q1) / med
            if k != "setup_s":
                worst = max(worst, share / bounds[k])
            print(f"  {w:<14} {k:<14} median {med:12.5g}  spread {share:7.2%}  bound {bounds[k]:.0%}")
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
