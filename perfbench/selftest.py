"""Self-test of the benchmark: its checks catch broken outputs, and it runs.

    python3 perfbench/selftest.py

Each correctness check is fed a tampered output and must report a failure;
every workload must finish a smoke-size run in both modes and print the
result object that ``BENCHMARK.json`` promises; and the benchmark must
refuse, with a non-zero exit and no result, a directory without the source.
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from rampc.geometry import Polytope  # noqa: E402
from rampc.qpsolver import SolveStatus  # noqa: E402
from rampc.simulator import simulate_closed_loop  # noqa: E402
from rampc.system import sample_realization  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


class ChecksCatchFailures(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.stack = workloads.Stack(workloads.load_default_problem(), with_baseline=True)

    def test_tampered_farkas_certificate(self):
        s = self.stack
        x = np.array([8.0, 8.0])
        sol = s.ctl.solve(x)
        self.assertIs(sol.status, SolveStatus.INFEASIBLE)
        self.assertIsNone(checks.classification_failure(s.prob.system, s.ctl.templates, x, sol))
        bad = copy.deepcopy(sol)
        cert = bad.per_horizon[-1].farkas
        cert["y"] = cert["y"] + 0.5
        reason = checks.classification_failure(s.prob.system, s.ctl.templates, x, bad)
        self.assertIn("Farkas certificate rejected", reason)

    def test_containment_violating_mask(self):
        self.assertEqual(checks.dominance_failures([True, True, True], [True, False, True]), [])
        self.assertEqual(checks.dominance_failures([True, False, True], [True, True, False]), [1])

    def test_constraint_violating_step(self):
        s = self.stack
        sys_ = s.prob.system
        real = sample_realization(sys_, 5, seed=0)
        trace = simulate_closed_loop(sys_, s.cfg, np.array([6.0, -6.0]), 5, real, controller=s.ctl)
        self.assertEqual(checks.closed_loop_failures(sys_, trace, real, 5), {})
        bad = copy.deepcopy(trace)
        bad.states[2] = [9.0, 0.0]
        bad.inputs[1] = [5.0]
        bad.records[3].iss_gap = -1.0
        found = checks.closed_loop_failures(sys_, bad, real, 5)
        self.assertEqual(found[1], "constraint violation")
        self.assertEqual(found[2], "constraint violation")
        self.assertEqual(found[3], "ISS descent violation")
        short = copy.deepcopy(trace)
        short.completed = 3
        self.assertEqual(checks.closed_loop_failures(sys_, short, real, 5), {3: "not reached", 4: "not reached"})

    def test_empty_terminal_set(self):
        self.assertIsNone(checks.terminal_set_failure(self.stack.cfg.terminal.X_N))
        self.assertIsNone(checks.terminal_set_failure(self.stack.bcfg.X_N_lump))
        self.assertEqual(checks.terminal_set_failure(Polytope.empty(2)), "empty terminal set")


class Runs(unittest.TestCase):
    def test_benchmark_json_matches_catalogue(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]],
            [tuple(m) for m in metrics.END_TO_END],
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [m[:3] for m in metrics.PER_LAYER],
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_smoke_runs(self):
        for workload in workloads.WORKLOADS:
            for trace, catalogue in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(ROOT, workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), RESULT_KEYS)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        {m[0]: m[1] for m in catalogue},
                    )

    def test_refuses_directory_without_source(self):
        bare = BENCH_DIR / "out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in BENCH_DIR.iterdir():
                if path.is_file():
                    shutil.copy(path, bare / "perfbench")
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "roa_grid", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170, env=env,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
