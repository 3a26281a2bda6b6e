#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py          # fast tests (about a minute)
    python3 perfbench/selftest.py --slow   # also: two sets of runs agree

Run from the repository root. Scratch files go under .bench_build/.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")
SLOW = "--slow" in sys.argv
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)


def binary():
    if not hasattr(binary, "path"):
        binary.path = run.build()
    return binary.path


def bench(*args, env=None, cwd=ROOT):
    """Run the benchmark binary; returns (exit code, result or None)."""
    proc = subprocess.run([binary(), *args], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          env=env, timeout=300)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    return proc.returncode, json.loads(lines[-1]) if lines else None


class Contract(unittest.TestCase):
    def test_spec_limits(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", names)
        for w in SPEC["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)

    def test_untraced_run_emits_every_end_to_end_metric(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "report", "--seconds", "1"],
            cwd=ROOT, text=True, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, timeout=300)
        self.assertEqual(proc.returncode, 0)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_traced_run_emits_every_per_layer_metric(self):
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for w in SPEC["workloads"]:
            rc, result = bench("--workload", w["name"], "--seconds", "1",
                               "--trace", "1")
            self.assertEqual(rc, 0, w["name"])
            self.assertTrue(result["correct"], w["name"])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, want, w["name"])


class Checks(unittest.TestCase):
    def test_flipped_golden_byte_fails_the_run(self):
        # The binary reads its references relative to its working
        # directory: give it a copy with one golden byte flipped.
        root = os.path.join(SCRATCH, "flipped")
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(os.path.join(root, "tests"))
        os.makedirs(os.path.join(root, "perfbench"))
        for name in ("report", "counters", "profile", "spans"):
            shutil.copy(os.path.join(ROOT, "tests", f"expected_{name}.json"),
                        os.path.join(root, "tests"))
        shutil.copy(os.path.join(HERE, "digests.json"),
                    os.path.join(root, "perfbench"))
        path = os.path.join(root, "tests", "expected_report.json")
        with open(path, "r+b") as f:
            f.seek(os.path.getsize(path) // 2)
            byte = f.read(1)[0]
            f.seek(-1, os.SEEK_CUR)
            f.write(bytes([byte ^ 0x01]))
        rc, result = bench("--workload", "report", "--seconds", "1",
                           cwd=root)
        self.assertEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_reference_path_is_refused(self):
        env = dict(os.environ, AOSD_NO_BATCH="1")
        rc, result = bench("--workload", "report", "--seconds", "1",
                           env=env)
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_other_seed_passes_its_checks(self):
        rc, result = bench("--workload", "traffic", "--seed", "7777",
                           "--seconds", "1")
        self.assertEqual(rc, 0)
        self.assertTrue(result["correct"])

    def test_bare_directory_fails_without_a_result(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
        proc = subprocess.run(
            SPEC["command"] + ["--workload", "report", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, text=True, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


class Steadiness(unittest.TestCase):
    @unittest.skipUnless(SLOW, "needs --slow")
    def test_two_sets_of_runs_agree_within_bounds(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "spread.py"),
             "--workloads", "report", "--seeds", "5"],
            cwd=ROOT, timeout=1800)
        self.assertEqual(proc.returncode, 0)


if __name__ == "__main__":
    if SLOW:
        sys.argv.remove("--slow")
    unittest.main(verbosity=2)
