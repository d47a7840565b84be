"""Tests of the benchmark itself, at the smoke size.

    python3 -m unittest discover -s perfbench/tests

Run from the root of a grasspq checkout.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

WORKLOADS = ("suites", "requests")


def bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(proc.stderr[-3000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def preset_texts():
    texts = {}
    for name in workloads.PRESET_NAMES:
        with open(os.path.join(ROOT, "src", "grasspq", "presets", f"{name}.preset")) as fh:
            texts[name] = fh.read()
    return texts


class InputTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        texts = preset_texts()
        for workload in WORKLOADS:
            self.assertEqual(workloads.make_inputs(workload, 5, texts),
                             workloads.make_inputs(workload, 5, texts))

    def test_other_seed_other_inputs(self):
        texts = preset_texts()
        for workload in WORKLOADS:
            self.assertNotEqual(workloads.make_inputs(workload, 5, texts),
                                workloads.make_inputs(workload, 6, texts))

    def test_request_mix_is_fixed(self):
        texts = preset_texts()
        for seed in (1, 2):
            tasks = workloads.make_inputs("requests", seed, texts)
            kinds = [t[0] for t in tasks]
            full = workloads.SIZES["full"]
            self.assertEqual(kinds.count("load"), 8 * full["loads_per_preset"])
            self.assertEqual(kinds.count("reduce"), full["reduces"])
            self.assertEqual(kinds.count("check"), full["checks"])


class RunTest(unittest.TestCase):
    """One untraced and two traced smoke runs of every workload."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)
        cls.runs = {w: [result_of(bench(w, 11, 0)), result_of(bench(w, 11, 1)),
                        result_of(bench(w, 11, 1))] for w in WORKLOADS}

    def test_smoke_runs_fail_nothing(self):
        for workload, runs in self.runs.items():
            for res in runs:
                self.assertTrue(res["correct"], workload)
                self.assertEqual(res["failed"], 0, workload)
                self.assertGreaterEqual(res["attempted"], 1)

    def test_metric_names_match_benchmark_json(self):
        end_to_end = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        for workload, (plain, traced, _) in self.runs.items():
            self.assertEqual({k: v["unit"] for k, v in plain["metrics"].items()}, end_to_end)
            self.assertEqual({k: v["unit"] for k, v in traced["metrics"].items()}, per_layer)
            for name, m in plain["metrics"].items():
                self.assertGreater(m["value"], 0, (workload, name))

    def test_counts_repeat_across_traced_runs(self):
        counts = [m["name"] for m in self.spec["per_layer"] if m["unit"] == "count"]
        counts.append("freealg.redex_hit_ratio")
        for workload, (_, first, second) in self.runs.items():
            for name in counts:
                self.assertEqual(first["metrics"][name], second["metrics"][name],
                                 (workload, name))
        for name in ("freealg.rewrite_steps", "matops.mat_mul.calls", "coeff.ratfunc_new"):
            self.assertGreater(self.runs["suites"][1]["metrics"][name]["value"], 0, name)


class LayoutTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            proc = bench("requests", 1, 0, cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
