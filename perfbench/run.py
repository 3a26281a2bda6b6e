#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload report --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all       # every workload, a table

Run it from the repository root. It builds perfbench/ (which compiles
the library from src/) into $CARGO_TARGET_DIR or .bench_build, runs
one workload, and times the set-up by starting the benchmark several
times before and after the run. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("report", "traffic", "pipeline")
SETUP_SAMPLES = 40
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build incrementally. Returns the binary."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "aosd_perfbench")


def source_id():
    """The commit, or a digest of src/ where there is no git."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha1:" + h.hexdigest()[:16]


def setup_samples(binary, workload, n):
    """CPU seconds from exec to the first workload call, of n starts.

    The binary reports its own CPU time when it is ready, so neither
    Python's process start nor the scheduler's wait is counted. The
    first start of a batch warms the page cache and is dropped.
    """
    samples = []
    for i in range(n + 1):
        proc = subprocess.Popen(
            [binary, "--workload", workload, "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        ready = None
        for line in proc.stdout:
            if line.startswith("READY "):
                ready = float(line.split()[1])
                break
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or ready is None:
            raise RuntimeError("set-up run failed")
        if i > 0:
            samples.append(ready)
    return samples


def run_workload(binary, workload, seed, seconds, trace):
    """Run one workload; returns (exit code, env record, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    env, result = {}, None
    for line in proc.stdout.splitlines():
        if line.startswith("ENV "):
            env = json.loads(line[4:])
        elif line.startswith("{"):
            result = json.loads(line)
    return proc.returncode, env, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("src/CMakeLists.txt", "tests/expected_report.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log(f"perfbench: {need} is missing; run from a full checkout")
            return 2

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    code = 0
    for workload in workloads:
        try:
            # Half the set-up starts before the run and half after, so
            # a change in host load during the run reaches both.
            setup = [] if args.trace else setup_samples(
                binary, workload, SETUP_SAMPLES // 2)
            rc, env, result = run_workload(binary, workload, args.seed,
                                           args.seconds, args.trace)
            if not args.trace:
                setup += setup_samples(binary, workload,
                                       SETUP_SAMPLES - len(setup))
        except (OSError, RuntimeError, subprocess.SubprocessError) as e:
            log(f"perfbench: {workload}: {e}")
            return 1
        if result is None:
            log(f"perfbench: {workload} printed no result (exit {rc})")
            return 1
        if setup and rc == 0:
            result["metrics"]["setup_s"] = {
                "value": statistics.median(setup), "unit": "s"}
        env.update(commit=source_id(), workload=workload, seed=args.seed)
        print("ENV " + json.dumps(env, sort_keys=True))
        failed_pct = 100.0 * result["failed"] / result["attempted"]
        print(f"{workload}: failed_ops_pct = {failed_pct:.3f} % "
              f"({result['failed']}/{result['attempted']} checks)")
        for name, m in sorted(result["metrics"].items()):
            print(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")
        results[workload] = result
        code = code or rc

    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    return code


if __name__ == "__main__":
    sys.exit(main())
