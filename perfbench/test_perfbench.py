#!/usr/bin/env python3
"""Self-test of the benchmark: python3 perfbench/test_perfbench.py

Builds the binary like run.py does, runs one untraced, one traced and one
replay repetition of every workload at its default seed, and requires
run.py's output checks to pass on the three: the timing decorator is
transparent (a bit-identical canonicalResultText digest and identical
identity counts in every mode, equal to reference.json), the traced self
times account for the run phase, and every submit is answered and
replayed. Also checks the verdict rule of compare.py on synthetic runs.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402
import run  # noqa: E402

EXE = None


class DecoratorTransparency(unittest.TestCase):
    def check_workload(self, workload):
        reference = run.load_reference()
        seed = reference["default_seed"]
        reps = [run.run_rep(EXE, workload, seed, mode)
                for mode in ("plain", "traced", "replay")]
        self.assertEqual(run.check(reps, workload, seed, reference), [])

    def test_nfs_create_stat(self):
        self.check_workload("nfs_create_stat")

    def test_wide_create(self):
        self.check_workload("wide_create")

    def test_lustre_wb_lossy(self):
        self.check_workload("lustre_wb_lossy")


class CompareVerdict(unittest.TestCase):
    def test_consistent_win_is_better(self):
        parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
        change = [v * 0.8 for v in parent]
        self.assertEqual(compare.verdict(parent, change, "lower", 0.2)[0],
                         "better")

    def test_consistent_loss_is_worse(self):
        parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
        change = [v * 1.1 for v in parent]
        self.assertEqual(compare.verdict(parent, change, "lower", 0.2)[0],
                         "worse")

    def test_noise_is_unresolved(self):
        parent = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 11.0, 9.0, 10.5, 9.5]
        change = [9.5, 11.0, 9.0, 10.0, 10.5, 9.5, 10.5, 9.0, 11.0, 10.0]
        self.assertEqual(compare.verdict(parent, change, "higher", 0.2)[0],
                         "unresolved")


if __name__ == "__main__":
    EXE = run.build()
    if EXE is None:
        sys.exit(2)
    unittest.main()
