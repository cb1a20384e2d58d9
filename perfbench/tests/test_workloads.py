#!/usr/bin/env python3
"""Determinism tests of the perfbench workloads at a tiny size.

    python3 perfbench/tests/test_workloads.py

For every workload: two seeds give the same work (item counts and mix),
one seed run twice gives the same output digest, and the traced run
passes its own checks (its rows digest equals the untraced one).
"""

import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "run.py")
WORKLOADS = ["sim_sweep", "failure_sweep"]
# Record keys that describe the amount and mix of work, per workload.
WORK_KEYS = {
    "sim_sweep": ["items", "windows", "rounds", "items_per_round"],
    "failure_sweep": ["items", "windows", "rounds", "trials_per_round"],
}


def run(workload, seed, trace=0):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{workload} seed {seed} exited {out.returncode}:\n"
                             f"{out.stdout}\n{out.stderr[-2000:]}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


class WorkloadDeterminism(unittest.TestCase):
    def test_work_is_seed_independent_and_output_repeats(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, res_a = run(w, 1)
                b, _ = run(w, 2)
                a2, _ = run(w, 1)
                self.assertTrue(res_a["correct"])
                self.assertEqual(res_a["failed"], 0)
                for key in WORK_KEYS[w]:
                    self.assertEqual(a[key], b[key], key)
                self.assertEqual(a["digest"], a2["digest"])
                self.assertNotEqual(a["digest"], b["digest"])

    def test_traced_run_matches_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, res = run(w, 3, trace=1)
                self.assertTrue(res["correct"])
                self.assertIn("trace.overhead_frac", res["metrics"])


if __name__ == "__main__":
    unittest.main()
