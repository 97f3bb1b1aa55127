#!/usr/bin/env python3
"""Repeats the benchmark and reports how much each metric moves.

    python3 bench/gsbench/spread.py [--workload NAME ...] [--runs 10] [--sets 1]
                                    [--seconds S] [--trace 0|1]

For each workload, each set runs run.py once per seed 1..--runs. The report
gives every metric's median and its spread: the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median,
next to the bound BENCHMARK.json fixes for it. With --sets 2 it also
compares the second set's median with the first's. Finally it reruns seed 1,
untraced and traced, and requires the deterministic metrics, end-to-end and
per-layer, to repeat exactly.

Exit status 1 when a run fails or is incorrect, a spread or median shift
exceeds its bound, or a deterministic metric does not repeat.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# Counts and the model clock over fixed work: functions of the seed alone.
DETERMINISTIC = {
    "model_ns_per_seed", "plan.nodes", "plan.rewrites", "exec.kernels_per_epoch",
    "exec.hbm_mb_per_epoch", "exec.pcie_mb_per_epoch", "jit.regions", "jit.hits_per_batch",
    "jit.demotions",
}
# Training reads the allocator peak right after its fixed model epochs; the
# servers' peak depends on how their workers interleave.
DETERMINISTIC_TRAIN = DETERMINISTIC | {"device.peak_mb"}


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: output checks failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=[1, 2])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()
    if args.runs < 4:
        parser.error("--runs must be at least 4 for quartiles")
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        seeds = range(1, args.runs + 1)
        sets = [[run(workload, s, args.seconds, args.trace) for s in seeds]
                for _ in range(args.sets)]
        print(f"== {workload}: {args.runs} runs x {args.sets} set(s), {args.seconds} s each")
        for name in sets[0][0]:
            values = [r[name] for r in sets[0]]
            median = statistics.median(values)
            line = f"  {name:34s} median {median:14.6g}  spread {spread(values):7.4f}"
            metric = bounds.get(name)
            if metric is not None:
                line += f"  bound {metric['bound']:.3f}"
                if spread(values) > metric["bound"]:
                    line += "  SPREAD OVER BOUND"
                    ok = False
                if args.sets == 2:
                    second = statistics.median(r[name] for r in sets[1])
                    worse = (second - median) / median * (1 if metric["better"] == "lower" else -1)
                    line += f"  shift {worse:+.4f}"
                    if worse > metric["bound"]:
                        line += "  SHIFT OVER BOUND"
                        ok = False
            print(line)
        deterministic = DETERMINISTIC_TRAIN if workload.endswith("-train") else DETERMINISTIC
        for trace in (0, 1):
            first = sets[0][0] if trace == args.trace else run(workload, 1, args.seconds, trace)
            again = run(workload, 1, args.seconds, trace)
            for name in sorted(deterministic & again.keys()):
                if again[name] != first[name]:
                    print(f"  {name} did not repeat: {first[name]!r} then {again[name]!r}")
                    ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
