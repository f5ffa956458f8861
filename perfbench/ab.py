#!/usr/bin/env python3
"""Interleaved A/B comparison of two perfbench builds.

    python3 perfbench/ab.py --base BASE_BIN --head HEAD_BIN [--pairs 10]
        [--workloads train-mlp,attack-eval] [--seed 4099] [--seconds 20] [--trace]

BASE_BIN and HEAD_BIN are perfbench executables built from the parent
commit and from the change, with identical build settings, e.g.

    CARGO_TARGET_DIR=/tmp/base cargo build --release --manifest-path perfbench/Cargo.toml

Run it from the root of a checkout (the benchmark writes scratch files
under .perfbench/ there). Each pair runs both builds on the same seed,
alternating which runs first. For every (workload, metric) it prints each
side's median and quartiles and a verdict:

  gain        head better in at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the base's IQR
  worse       head's median worse than base's by more than the bound
  unresolved  base's own spread (IQR / median) exceeds the bound, unless
              every head run is better than every base run
  same        none of the above: no worse than the bound

Bounds and directions come from BENCHMARK.json next to this directory.
The default seed is the reserved check seed, not the development seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHECK_SEED = 4099


def run(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({out.returncode}):\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)}: outputs incorrect ({result['failed']} failed)")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base, head, lower_is_better, bound):
    sign = -1.0 if lower_is_better else 1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    bq1, bmed, bq3 = quartiles(base)
    _, hmed, _ = quartiles(head)
    iqr = bq3 - bq1
    if wins >= 0.9 * len(base) and abs(hmed - bmed) > iqr:
        return "gain", wins
    if bmed and sign * (hmed - bmed) / abs(bmed) < -bound:
        return "worse", wins
    all_better = all(sign * (h - b) > 0 for h in head for b in base)
    if bmed and iqr / abs(bmed) > bound and not all_better:
        return "unresolved", wins
    return "same", wins


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--head", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed", type=int, default=CHECK_SEED)
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--trace", action="store_true", help="compare per-layer metrics")
    args = ap.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]

    print(f"seed {args.seed}, {args.pairs} pairs, {seconds} s per run, trace={int(args.trace)}")
    print(f"{'workload':<16} {'metric':<28} {'base q1/med/q3':>32} {'head q1/med/q3':>32} "
          f"{'wins':>6}  verdict")
    for workload in workloads:
        samples = {"base": [], "head": []}
        for i in range(args.pairs):
            order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
            for side in order:
                binary = args.base if side == "base" else args.head
                samples[side].append(run(binary, workload, args.seed, seconds, args.trace))
        for spec in specs:
            name = spec["name"]
            base = [s[name] for s in samples["base"]]
            head = [s[name] for s in samples["head"]]
            lower = spec["better"] == "lower"
            bound = spec.get("bound", 0.0)
            v, wins = verdict(base, head, lower, bound) if bound else ("-", 0)
            fmt = lambda xs: "/".join(f"{x:.4g}" for x in quartiles(xs))
            print(f"{workload:<16} {name:<28} {fmt(base):>32} {fmt(head):>32} "
                  f"{wins:>3}/{len(base):<2}  {v}")


if __name__ == "__main__":
    main()
