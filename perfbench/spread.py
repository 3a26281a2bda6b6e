#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its own bounds.

    python3 perfbench/spread.py                        # 10 seeds x 2 sets
    python3 perfbench/spread.py --workloads pipeline --seeds 5

For every workload it runs perfbench/run.py once per seed (--trace 0,
BENCHMARK.json's run_seconds), in two sets. For each end-to-end metric
it reports the spread of each set, (Q3 - Q1) / median with
statistics.quantiles(values, n=4), and the drift, the second set's
median relative to the first's. It fails when a spread or the size of
the drift exceeds the metric's bound. Raw results go to
.bench_build/spread.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: run failed "
                           f"({result['failed']}/{result['attempted']})")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, last, better):
    """Share by which `last` is worse than `first` (< 0: better)."""
    change = (last - first) / first
    return -change if better == "higher" else change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    raw = {}
    ok = True
    for workload in args.workloads:
        sets = []
        for s in range(SETS):
            runs = [run_once(workload, args.first_seed + i,
                             spec["run_seconds"])
                    for i in range(args.seeds)]
            sets.append(runs)
            print(f"{workload}: set {s + 1} done", file=sys.stderr,
                  flush=True)
        raw[workload] = sets
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            per_set = [[r[name] for r in runs] for runs in sets]
            spreads = [spread(v) for v in per_set]
            medians = [statistics.median(v) for v in per_set]
            drift = worse_by(medians[0], medians[-1], m["better"])
            bad = abs(drift) > bound or max(spreads) > bound
            ok = ok and not bad
            print(f"{workload:9s} {name:17s} median {medians[0]:.6g} "
                  f"spread {' '.join(f'{x:.4f}' for x in spreads)} "
                  f"drift {drift:+.4f} bound {bound} "
                  f"(1/3 = {bound / 3:.4f}){'  FAIL' if bad else ''}")

    out = os.path.join(ROOT, ".bench_build")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "spread.json"), "w") as f:
        json.dump(raw, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
