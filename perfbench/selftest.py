"""Self-test of the benchmark harness.  Run from the root of a checkout::

    python3 perfbench/selftest.py

Tiny-budget runs of every workload must print every metric that
``BENCHMARK.json`` names, with its unit, and the traced runs must show
each workload's role; a trajectory corrupted on the benchmark side must
make the correctness checks fail; and without the program the benchmark
must fail without printing a result.
"""

import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

TINY = 12  # n_init = 10 plus two model-guided rounds


def run_benchmark(workload: str, trace: int, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace),
         "--iterations", str(TINY)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


class TinyRuns(unittest.TestCase):
    """One untraced and one traced tiny run per workload."""

    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.results = {}
        for workload in (w["name"] for w in cls.spec["workloads"]):
            for trace in (0, 1):
                proc = run_benchmark(workload, trace)
                cls.results[workload, trace] = proc

    def last_json(self, workload, trace):
        proc = self.results[workload, trace]
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_named_metric_with_its_unit(self):
        for (workload, trace), proc in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                out = self.last_json(workload, trace)
                self.assertEqual(
                    set(out), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(out["correct"])
                self.assertEqual(out["failed"], 0)
                self.assertGreaterEqual(out["attempted"], 1)
                named = self.spec["per_layer" if trace else "end_to_end"]
                self.assertEqual(
                    {m["name"]: m["unit"] for m in named},
                    {k: v["unit"] for k, v in out["metrics"].items()})
                for name, metric in out["metrics"].items():
                    self.assertIsInstance(metric["value"], (int, float), name)
                    self.assertIn(name, proc.stdout.split("{")[0])

    def test_traced_runs_confirm_each_workload_role(self):
        layers = {w: {k: v["value"] for k, v in
                      self.last_json(w, 1)["metrics"].items()}
                  for w, trace in self.results if trace}
        for workload, m in layers.items():
            with self.subTest(workload=workload):
                self.assertEqual(m["tuning.checkpoint_writes"] > 0,
                                 workload == "seq-ckpt")
                self.assertEqual(m["tuning.server.waves"] > 0,
                                 workload == "serve-sim")
                self.assertEqual(m["optimizers.gp_fit_calls"] > 0,
                                 workload == "gpbo-seq")
                self.assertEqual(m["optimizers.fit_calls"] > 0,
                                 workload != "gpbo-seq")
                # Stacked evaluation only in the wave; scalar evaluation
                # everywhere else.  (Both show the shims kept the
                # program's path choice.)
                self.assertEqual(m["dbms.stacked_calls"] > 0,
                                 workload == "wave-mixed")
                self.assertEqual(m["tuning.wave_members"] > 1,
                                 workload in ("wave-mixed", "serve-sim"))
                self.assertGreater(m["dbms.evaluated_rows"], 0)


class CorruptedTrajectory(unittest.TestCase):
    """The output checks can fire: perturb one recorded value by a
    relative 1e-12 on the benchmark side and every check must fail."""

    def test_checks_fail_on_a_corrupted_trajectory(self):
        from workloads import WORKLOADS

        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name), \
                    tempfile.TemporaryDirectory() as work:
                workload = cls(7, TINY, pathlib.Path(work))
                workload.run(0.0, workload.clock())
                workload.check()
                self.assertTrue(all(c.ok for c in workload.checks))
                result = (workload.last if name == "seq-ckpt"
                          else workload.subject)[-1]
                observations = result.knowledge_base.observations
                observations[-1] = dataclasses.replace(
                    observations[-1], value=observations[-1].value * (1 + 1e-12))
                workload.check()
                self.assertFalse(workload.checks[-1].ok)
                self.assertEqual(workload.ops["checks"], [2, 1])


class WithoutTheProgram(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, pathlib.Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_benchmark("seq-ckpt", 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
