#!/usr/bin/env python3
"""Tests for the repository benchmark (perfbench/).

Runs every workload at its tiny size through run.py and checks that

  - the printed metric names and units are exactly BENCHMARK.json's;
  - a corrupted reference is reported as a failure;
  - failed_frac counts simulator errors (the known SimPoint defect)
    and reference mismatches, but not configurations that cannot
    operate;
  - the committed references agree with tests/golden/ where the
    benchmark's points and the golden points are the same.

Usage: python3 perfbench/test_perfbench.py   (builds perfbench_driver first)
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

WORK = os.path.join(os.path.dirname(run.build_dir()), "test-work")


def bench(workload, trace=0, refs=None):
    """Run one tiny benchmark invocation; returns the result object."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "0",
           "--trace", str(trace), "--size", "tiny"]
    if refs:
        cmd += ["--refs", refs]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                         timeout=600)
    if out.returncode != 0:
        raise AssertionError("run.py failed:\n" + out.stderr[-3000:])
    return json.loads(out.stdout.strip().splitlines()[-1])


def driver(workload, refs, trace=0):
    """One driver iteration (raw per-iteration report)."""
    exe = os.path.join(run.build_dir(), "perfbench_driver")
    out = subprocess.run(
        [exe, "--workload", workload, "--seed", "1", "--size", "tiny",
         "--trace", str(trace), "--refs", refs,
         "--work", os.path.join(WORK, "driver")],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if out.returncode != 0:
        raise AssertionError("driver failed:\n" + out.stderr[-3000:])
    return json.loads(out.stdout)


def read_refs(workload, kind):
    """{label: fields} of one record kind in a committed reference."""
    out = {}
    with open(os.path.join(HERE, "refs", workload + ".txt")) as f:
        for line in f:
            parts = line.split()
            if parts and parts[0] == kind:
                out[parts[2]] = parts[3:]
    return out


def corrupt_copy(workload, label):
    """A copy of the references with @p label's digest flipped."""
    refs = os.path.join(WORK, "refs-" + label.replace("/", "_"))
    shutil.rmtree(refs, ignore_errors=True)
    shutil.copytree(os.path.join(HERE, "refs"), refs)
    path = os.path.join(refs, workload + ".txt")
    with open(path) as f:
        lines = f.readlines()
    for i, line in enumerate(lines):
        parts = line.split(" ")
        if parts[0] == "d" and parts[2] == label:
            digest = parts[3]
            parts[3] = ("0" if digest[0] != "0" else "1") + digest[1:]
            lines[i] = " ".join(parts)
            break
    else:
        raise AssertionError("no reference for " + label)
    with open(path, "w") as f:
        f.writelines(lines)
    return refs


class Benchmark(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        os.makedirs(WORK, exist_ok=True)
        if not run.build(run.build_dir(), 4):
            raise RuntimeError("perfbench build failed")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def test_metrics_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))
        for workload in run.WORKLOADS:
            for trace, want in ((0, e2e), (1, layer)):
                with self.subTest(workload=workload, trace=trace):
                    result = bench(workload, trace)
                    self.assertEqual(
                        sorted(result),
                        ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"]
                           for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_corrupted_reference_is_a_failure(self):
        refs = corrupt_copy("detailed_sweep",
                            "crafty/vca/128/detailed/w2000/m20000")
        result = bench("detailed_sweep", refs=refs)
        self.assertFalse(result["correct"])
        # One failure in each iteration of 12 points.
        self.assertEqual(result["failed"] * 12, result["attempted"])

    def test_failed_frac_counts(self):
        # Tiny detailed sweep: 12 points, baseline and regwindow at 64
        # registers cannot operate -- results, not failures.
        refs = os.path.join(HERE, "refs")
        r = driver("detailed_sweep", refs)
        self.assertEqual(r["attempted"], 12)
        self.assertEqual((r["failed"], r["errored"]), (0, 0))
        self.assertEqual(r["e2e"]["ok_frac"], 1.0)
        # Tiny sampled sweep: 6 points, one the known SimPoint defect
        # (art on regwindow halts during fast-forward).
        r = driver("sampled_sweep", refs, trace=1)
        self.assertEqual(r["attempted"], 6)
        self.assertEqual((r["failed"], r["errored"]), (0, 1))
        self.assertAlmostEqual(r["layer"]["failed_frac"], 1 / 6)
        self.assertAlmostEqual(r["e2e"]["ok_frac"], 5 / 6)
        # A mismatch adds to the errors.
        bad = corrupt_copy("sampled_sweep",
                           "crafty/baseline/256/sampled/w240000/m48000")
        r = driver("sampled_sweep", bad, trace=1)
        self.assertEqual((r["failed"], r["errored"]), (1, 1))
        self.assertAlmostEqual(r["layer"]["failed_frac"], 2 / 6)

    def test_references_agree_with_golden(self):
        arch = {"baseline": "baseline", "register window": "regwindow",
                "ideal": "ideal", "vca": "vca"}
        checked = 0
        for golden, workload, mode in (
                ("sweep.json", "detailed_sweep", "detailed/w2000/m20000"),
                ("sampled.json", "sampled_sweep",
                 "sampled/w240000/m48000")):
            with open(os.path.join(ROOT, "tests", "golden", golden)) as f:
                points = json.load(f)["points"]
            refs = read_refs(workload, "d")
            for p in points:
                if p.get("benches", ["crafty"]) != ["crafty"]:
                    continue  # the golden SMT points are not benchmarked
                label = "crafty/%s/%d/%s" % (arch[p["arch"]], p["regs"],
                                             mode)
                self.assertIn(label, refs)
                ok, cycles, insts = refs[label][1:4]
                self.assertEqual(ok == "1", p["ok"], label)
                self.assertEqual(int(cycles), p["cycles"], label)
                self.assertEqual(int(insts), p["insts"], label)
                checked += 1
        self.assertEqual(checked, 16)


if __name__ == "__main__":
    unittest.main(verbosity=2)
