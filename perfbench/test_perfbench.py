#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

    python3 perfbench/test_perfbench.py

Builds the driver through run.py, then checks that:
  - every workload prints exactly the end-to-end metrics BENCHMARK.json
    declares when untraced, and exactly its per-layer metrics when traced,
    each with the declared unit, and no end-to-end value is 0;
  - deterministic results (simulated speedups, model error, instruction,
    loop, invocation and witness counts) are bit-identical across two runs
    with the same seed and the same fixed amount of work (--units);
  - another seed changes the fuzz and serve inputs;
  - the suite and serve workloads report the same simulated speedups for
    the same 4-core configuration;
  - run.py exits nonzero, printing no result, when only BENCHMARK.json and
    the benchmark's own files are present.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run as bench  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {"suite": 1, "fuzz": 6, "serve": 24}

DETERMINISTIC = ("pipeline.profile.instrs", "pipeline.model-profile.instrs",
                 "pipeline.validate.instrs", "check.sync.loops",
                 "check.dep.witnessed", "runtime.invocations",
                 "runtime.iterations", "runtime.signals")


def deterministic(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if k in DETERMINISTIC or k.startswith(("sim.", "analysis."))}


class Perfbench(unittest.TestCase):
    driver = None
    runs = {}

    @classmethod
    def setUpClass(cls):
        cls.driver = bench.build()

    def drive(self, workload, seed, trace):
        """Runs the driver on a fixed amount of work and checks it passed."""
        args = [self.driver, "--workload", workload, "--seed", str(seed),
                "--seconds", "1", "--trace", str(trace),
                "--units", str(UNITS[workload])]
        p = subprocess.run(args, capture_output=True, text=True,
                           cwd=bench.build_dir(), timeout=600)
        self.assertEqual(p.returncode, 0, p.stderr)
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"], p.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        return json.loads(lines[-2])["run"], result["metrics"]

    def cached(self, workload, seed, trace, copy=0):
        """drive() memoized per (workload, seed, trace, copy)."""
        key = (workload, seed, trace, copy)
        if key not in Perfbench.runs:
            Perfbench.runs[key] = self.drive(workload, seed, trace)
        return Perfbench.runs[key]

    def test_metric_names_and_units(self):
        for trace, declared in ((0, SPEC["end_to_end"]),
                                (1, SPEC["per_layer"])):
            want = {m["name"]: m["unit"] for m in declared}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    _, metrics = self.cached(w, 1, trace)
                    got = {k: v["unit"] for k, v in metrics.items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for k, v in metrics.items():
                            self.assertGreater(v["value"], 0, k)

    def test_same_seed_is_bit_identical(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                run1, m1 = self.cached(w, 1, 1)
                run2, m2 = self.cached(w, 1, 1, copy=1)
                self.assertEqual(run1["inputs_digest"], run2["inputs_digest"])
                self.assertEqual(run1["deterministic"],
                                 run2["deterministic"])
                self.assertEqual(deterministic(m1), deterministic(m2))

    def test_other_seed_changes_generated_inputs(self):
        for w in ("fuzz", "serve"):
            with self.subTest(workload=w):
                run1, _ = self.cached(w, 1, 1)
                run2, _ = self.cached(w, 2, 1)
                self.assertNotEqual(run1["inputs_digest"],
                                    run2["inputs_digest"])

    def test_suite_and_serve_agree_on_simulated_speedups(self):
        _, suite = self.cached("suite", 1, 1)
        _, serve = self.cached("serve", 1, 1)
        sim = [k for k in suite if k.startswith("sim.")]
        self.assertTrue(sim)
        for k in sim:
            self.assertEqual(suite[k]["value"], serve[k]["value"], k)
        self.assertGreater(suite["sim.speedup_geomean"]["value"], 1.0)

    def test_fails_without_the_repository(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(tmp, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            p = subprocess.run(SPEC["command"] +
                               ["--workload", WORKLOADS[0], "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
                               cwd=tmp, env=env, capture_output=True,
                               text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
