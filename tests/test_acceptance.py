"""Acceptance gate: nine pinned criteria, one printed verdict line each.

Criteria 1-6 run the analytic checks of :mod:`uavwpt.checks`, the ones
behind ``uavwpt validate``, at frozen instance counts on one high-SNR
config; 7-9 run sweeps.  Each test computes its criterion, prints a single
PASS/FAIL line to the live terminal (bypassing capture), and only then
asserts.  Tolerances and instance counts are frozen; loosening them is not
an option.
"""

from uavwpt import checks
from uavwpt.cli import main, run_sweep
from uavwpt.config import load_config

# The stock config without line of sight and with the noise floor at
# 2e-5 mW.  The mean path-loss gains d^-2.5 run from 4.7e-5 to 5.4e-5 over
# the 51-54 m links and the checks' budgets from 5 to 150 mW, so the mean
# budget-to-noise ratio per antenna runs from about 12 to 405.
ANALYTIC_CFG = load_config(overrides=["channel.kappa=0", "system.noise_power=2e-5"])


def _verdict(capsys, index, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {index} {name}: {status} ({detail})", flush=True)


def _analytic(capsys, index, name, instances):
    passed, detail = dict(checks.CHECKS)[name](ANALYTIC_CFG, ANALYTIC_CFG.seed, instances)
    _verdict(capsys, index, name, passed, detail)
    assert passed, detail


def test_acceptance_1_duality_identity(capsys):
    _analytic(capsys, 1, "duality-identity", 200)


def test_acceptance_2_permutation_optimality(capsys):
    _analytic(capsys, 2, "permutation-enumeration", 50)


def test_acceptance_3_solver_vs_grid(capsys):
    _analytic(capsys, 3, "grid-oracle", 70)  # 50 at K=2, 20 at K=3


def test_acceptance_4_gradient_fd(capsys):
    _analytic(capsys, 4, "finite-difference-gradient", 100)


def test_acceptance_5_harvester_shape(capsys):
    _analytic(capsys, 5, "harvester-shape", None)  # deterministic


def test_acceptance_6_mrt_dominance(capsys):
    _analytic(capsys, 6, "mrt-dominance", 20)


def test_acceptance_7_fig3_trends(capsys):
    cfg = load_config()
    assert cfg.trials == 10_000
    rows, warnings = run_sweep(cfg)
    series = {c: [] for c in cfg.sweep_c}
    for row in rows:
        series[row.c].append((row.p_cir, row.mean_throughput))
    problems = []
    drops = {}
    for c, pairs in series.items():
        pairs.sort()
        values = [v for _, v in pairs]
        if not all(a >= b for a, b in zip(values, values[1:])):
            problems.append(f"c={c}: not monotone nonincreasing")
        drops[c] = (values[0] - values[-1]) / values[0]
    if not 0.35 <= drops[100.0] <= 0.56:
        problems.append(f"c=100 drop {drops[100.0]:.3f} outside [0.35, 0.56]")
    if not 0.05 <= drops[200.0] <= 0.18:
        problems.append(f"c=200 drop {drops[200.0]:.3f} outside [0.05, 0.18]")
    if warnings:
        problems.append(f"{len(warnings)} convergence warnings")
    ok = not problems
    _verdict(
        capsys, 7, "fig3-trends", ok,
        "; ".join(problems)
        if problems
        else f"drop c=100 {drops[100.0]:.1%}, c=200 {drops[200.0]:.1%}, monotone",
    )
    assert ok, problems


def test_acceptance_8_determinism(capsys, tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--trials", "25"]
    rc_a = main([*args, "--out", str(first)])
    rc_b = main([*args, "--out", str(second)])
    same = first.read_bytes() == second.read_bytes()
    ok = rc_a == 0 and rc_b == 0 and same
    _verdict(
        capsys, 8, "determinism", ok,
        f"two runs, {len(first.read_bytes())} bytes, byte-identical={same}",
    )
    assert ok


def test_acceptance_9_unsaturated_harvester(capsys):
    # At p_max = 3 mW the RF input sits near the sigmoid's turning point,
    # so every cell holds both infeasible and funded trials.
    cfg = load_config(overrides=["ue.p_max=3", "sweep.trials=300"])
    rows, warnings = run_sweep(cfg)
    problems = []
    for row in rows:
        cell = f"p_cir={row.p_cir:g}, c={row.c:g}"
        if not 0.0 < row.fraction_infeasible < 1.0:
            problems.append(f"{cell}: infeasible fraction {row.fraction_infeasible}")
        if not 0.0 < row.mean_budget < cfg.amp_efficiency * (row.c - row.p_cir):
            problems.append(f"{cell}: mean budget {row.mean_budget} not below saturation")
        if not row.mean_throughput > 0.0:
            problems.append(f"{cell}: throughput {row.mean_throughput}")
    if warnings:
        problems.append(f"{len(warnings)} convergence warnings")
    infeasible = [row.fraction_infeasible for row in rows]
    ok = not problems
    _verdict(
        capsys, 9, "unsaturated-harvester", ok,
        "; ".join(problems)
        if problems
        else f"{len(rows)} cells, infeasible {min(infeasible):.3f}-{max(infeasible):.3f}",
    )
    assert ok, problems
