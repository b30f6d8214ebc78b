"""Smoke runs of the built benchmark: hrt_e2e's self-test, a short mode
of every workload (fingerprint stable across two invocations), and the
result line's format against BENCHMARK.json.

Run from the repository root (builds perfbench/ like run.py does):

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402


def smoke(binary, workload, trace=0, seed=7, short=True):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           "0", "--trace", str(trace), "--max-iterations",
           "4" if trace else "2"]
    if short:
        cmd.append("--smoke")
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170,
                       check=True)
    return json.loads(p.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]

    def test_binary_self_test(self):
        p = subprocess.run([self.binary, "--self-test"],
                           stdout=subprocess.PIPE, text=True)
        self.assertEqual(p.returncode, 0, p.stdout)

    def test_fingerprint_stable_across_invocations(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                a = smoke(self.binary, workload)
                b = smoke(self.binary, workload)
                self.assertEqual(a["failures"], [])
                self.assertTrue(a["fingerprints_agree"])
                self.assertEqual(a["fingerprint"], b["fingerprint"])
                self.assertEqual(a["deterministic"], b["deterministic"])
                self.assertNotEqual(
                    a["fingerprint"],
                    smoke(self.binary, workload, seed=8)["fingerprint"])

    @unittest.expectedFailure
    def test_no_timer_pass_livelock(self):
        # Known failure (README.md, "Findings"): seed 8 of the full churn
        # workload drives one CPU into the timer-pass livelock.  Once the
        # scheduler is fixed this passes; then drop the decorator.
        raw = smoke(self.binary, "admit_churn_phi256", seed=8, short=False)
        self.assertEqual(raw["failures"], [])
        self.assertEqual(raw["deterministic"]["livelocked_cpus"], 0)

    def test_trace_mode_reports_every_per_layer_metric(self):
        names = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        for workload in self.workloads:
            with self.subTest(workload=workload):
                raw = smoke(self.binary, workload, trace=1)
                rows = {n: u for n, u, _ in run.per_layer(raw)}
                self.assertEqual(rows, names)

    def test_result_line_format(self):
        names = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        for workload in self.workloads:
            with self.subTest(workload=workload):
                p = subprocess.run(
                    [sys.executable, os.path.join(BENCH, "run.py"),
                     "--workload", workload, "--seed", "3", "--seconds",
                     "0", "--trace", "0", "--smoke"],
                    stdout=subprocess.PIPE, text=True, timeout=170)
                self.assertEqual(p.returncode, 0, p.stdout)
                last = json.loads(p.stdout.strip().splitlines()[-1])
                self.assertEqual(set(last),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(last["correct"])
                self.assertGreaterEqual(last["attempted"], 1)
                self.assertEqual(last["failed"], 0)
                got = {n: m["unit"] for n, m in last["metrics"].items()}
                self.assertEqual(got, names)
                for m in last["metrics"].values():
                    self.assertGreater(m["value"], 0)


if __name__ == "__main__":
    unittest.main()
