"""The benchmark's output checks accept the program's rows and reject perturbed ones.

    python3 perfbench/test_checks.py
"""

import sys
import unittest
from dataclasses import replace
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for _path in (_HERE, _HERE.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from checks import check_optimal, check_rows  # noqa: E402
from uavwpt.cli import SweepSpec, run_sweep  # noqa: E402
from uavwpt.config import load_config  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _sweep(workload, p_cir, c, trials, seed=7):
    cfg = load_config(None, WORKLOADS[workload].overrides)
    spec = SweepSpec(p_cir, c, trials, seed)
    rows, _ = run_sweep(cfg, spec)
    return cfg, spec, rows


def _perturb(rows, **scale):
    first = rows[0]
    changed = replace(first, **{key: getattr(first, key) * f for key, f in scale.items()})
    return [changed] + rows[1:]


class StockChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cfg, cls.spec, cls.rows = _sweep("stock", (40.0, 80.0), (100.0,), 2)

    def test_program_rows_pass(self):
        self.assertEqual(check_rows(self.cfg, self.spec, self.rows, saturated=True)[0], [])
        failures, budgeted = check_optimal(self.cfg, self.spec, self.rows)
        self.assertEqual(failures, [])
        self.assertEqual(budgeted, 4)

    def test_perturbed_budget_fails(self):
        rows = _perturb(self.rows, mean_budget=1.0 + 1e-6)
        self.assertTrue(check_rows(self.cfg, self.spec, rows, saturated=True)[0])
        self.assertTrue(check_rows(self.cfg, self.spec, rows, saturated=False)[0])

    def test_perturbed_throughput_fails(self):
        for factor in (1.0 - 1e-4, 1.0 + 1e-4):
            rows = _perturb(self.rows, mean_throughput=factor)
            self.assertTrue(check_optimal(self.cfg, self.spec, rows)[0], factor)
        for factor in (0.5, 4.0):
            rows = _perturb(self.rows, mean_throughput=factor)
            self.assertTrue(check_rows(self.cfg, self.spec, rows, saturated=True)[0], factor)


class HarvestEdgeChecks(unittest.TestCase):
    def test_recomputed_budget_and_infeasible_share(self):
        cfg, spec, rows = _sweep("harvest_edge", (40.0,), (200.0,), 40)
        failures, infeasible = check_rows(cfg, spec, rows, saturated=False)
        self.assertEqual(failures, [])
        self.assertTrue(0 < infeasible[0] < spec.trials)
        self.assertTrue(check_rows(cfg, spec, _perturb(rows, mean_budget=1.0 + 1e-6), False)[0])
        moved = [replace(rows[0], fraction_infeasible=rows[0].fraction_infeasible - 1 / 40)]
        self.assertTrue(check_rows(cfg, spec, moved, saturated=False)[0])
        self.assertEqual(check_optimal(cfg, spec, rows)[0], [])
        self.assertTrue(check_optimal(cfg, spec, _perturb(rows, mean_throughput=1.0 + 1e-4))[0])


if __name__ == "__main__":
    unittest.main()
