"""Budgeted-simplex projection, KKT residual, and the power-allocation solver."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavwpt._kernels import _ref
from uavwpt.channel import ChannelRealization, draw_channel, draw_topology, trial_rng
from uavwpt.rate import (
    dual_weighted_rate,
    objective_gradient,
    optimal_permutation,
)
from uavwpt.solver import solve_power_allocation

SIGMA2 = 0.001
SETTINGS = (1e-8, 1e-6, 10_000, 1e-4, 0.5)  # tol, kkt_tol, max_iter, armijo, shrink


def _instance(seed, trial, k, n=3):
    rng = trial_rng(seed, cell=0, trial=trial)
    topo = draw_topology(rng, k, 10.0, 20.0, 50.0, 2.5, 2.0)
    channels = draw_channel(rng, topo, n)
    return rng, channels


# ---------------------------------------------------------------- projection

def test_projection_passthrough_when_feasible():
    assert np.allclose(_ref.project_simplex([1.0, 2.0], 10.0), [1.0, 2.0])


def test_projection_symmetric_split():
    assert np.allclose(_ref.project_simplex([2.0, 2.0], 2.0), [1.0, 1.0])


def test_projection_negative_coordinate_dropped():
    assert np.allclose(_ref.project_simplex([-1.0, 3.0], 2.0), [0.0, 2.0])


def test_projection_clips_negatives_inside_budget():
    assert np.allclose(_ref.project_simplex([-5.0, 1.0], 10.0), [0.0, 1.0])


def test_projection_zero_budget():
    assert np.allclose(_ref.project_simplex([3.0, 4.0], 0.0), [0.0, 0.0])


def test_projection_rejects_negative_budget():
    with pytest.raises(ValueError):
        _ref.project_simplex([1.0], -1.0)


def test_projection_against_fine_grid():
    # nearest feasible point by brute force on a 2D lattice
    rng = np.random.default_rng(404)
    grid = np.linspace(0.0, 2.0, 401)
    xx, yy = np.meshgrid(grid, grid, indexing="ij")
    mask = xx + yy <= 2.0
    points = np.stack([xx[mask], yy[mask]], axis=1)
    for _ in range(20):
        v = rng.uniform(-2.0, 3.0, size=2)
        proj = _ref.project_simplex(v, 2.0)
        best = points[np.argmin(np.sum((points - v) ** 2, axis=1))]
        assert np.linalg.norm(proj - best) <= 0.01  # lattice pitch 5e-3
        assert proj.min() >= 0.0
        assert proj.sum() <= 2.0 + 1e-12


def test_projection_idempotent_and_feasible():
    rng = np.random.default_rng(405)
    for _ in range(200):
        k = int(rng.integers(1, 8))
        budget = float(rng.uniform(0.0, 50.0))
        v = rng.uniform(-20.0, 40.0, size=k)
        p = _ref.project_simplex(v, budget)
        assert p.min() >= 0.0
        assert p.sum() <= budget + 1e-9 * max(budget, 1.0)
        again = _ref.project_simplex(p, budget)
        assert np.allclose(again, p, atol=1e-12)


def test_projection_of_large_steps_onto_a_tiny_budget_stays_feasible():
    # theta = (top - budget) / count cancels when v is twelve orders above the
    # budget; the result must still be feasible to rounding.
    rng = np.random.default_rng(406)
    for _ in range(200):
        v = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 17))) * 1e3
        p = _ref.project_simplex(v, 1e-9)
        assert p.min() >= 0.0
        assert p.sum() <= 1e-9
        assert p.sum() == pytest.approx(1e-9, rel=1e-6)


# -------------------------------------------------------------- KKT residual

def test_kkt_single_active_coordinate():
    assert _ref.kkt_residual([5.0], [0.123], 5.0, 1e-9 * 5.0) == 0.0


def test_kkt_flags_unequal_active_gradients():
    r = _ref.kkt_residual([2.0, 2.0], [1.0, 0.5], 4.0, 1e-9 * 4.0)
    assert r == pytest.approx(0.5, rel=1e-12)  # |0.5 - 1|/1


def test_kkt_flags_budget_slack():
    r = _ref.kkt_residual([1.0, 1.0], [1.0, 1.0], 4.0, 1e-9 * 4.0)
    assert r == pytest.approx(0.5, rel=1e-12)  # |2 - 4|/4


def test_kkt_grows_with_perturbation():
    _, channels = _instance(2100, 0, 3)
    w = np.array([0.5, 0.3, 0.2])
    perm = optimal_permutation(w)
    budget = 60.0
    report = solve_power_allocation(channels, w, perm, SIGMA2, budget)
    base = report.kkt_residual
    last = base
    for scale in (0.01, 0.05, 0.2):
        bad = _ref.project_simplex(
            report.p + scale * budget * np.array([1.0, -1.0, 0.3]), budget
        )
        grad_perm = objective_gradient(bad, channels, w, perm, SIGMA2)
        grad = np.empty(3)
        grad[perm] = grad_perm
        r = _ref.kkt_residual(bad, grad, budget, 1e-9 * budget)
        assert r > last
        last = r


# -------------------------------------------------------------------- solver

def test_solver_single_user_closed_form():
    _, channels = _instance(2101, 1, 1)
    gain = float(np.sum(np.abs(channels.h[0]) ** 2))
    budget = 80.0
    report = solve_power_allocation(channels, [0.9], [0], SIGMA2, budget)
    assert report.converged
    assert report.p[0] == pytest.approx(budget, rel=1e-9)
    assert report.objective == pytest.approx(
        0.9 * np.log1p(budget * gain / SIGMA2), rel=1e-9
    )


def test_solver_zero_budget():
    _, channels = _instance(2102, 0, 3)
    report = solve_power_allocation(
        channels, [0.5, 0.3, 0.2], [0, 1, 2], SIGMA2, 0.0
    )
    assert report.converged
    assert report.objective == 0.0
    assert np.all(report.p == 0.0)
    assert report.iterations == 0


def test_solver_feasible_tight_and_certified():
    for trial in range(25):
        rng, channels = _instance(2103, trial, trial % 5 + 1)
        k = channels.n_ues
        w = np.sort(rng.uniform(0.05, 1.0, size=k))[::-1]
        perm = optimal_permutation(w)
        budget = float(rng.uniform(1.0, 150.0))
        report = solve_power_allocation(channels, w, perm, SIGMA2, budget)
        assert report.converged
        assert report.kkt_residual <= 1e-6
        assert np.all(report.p >= 0.0)
        assert report.p.sum() <= budget + 1e-9 * max(budget, 1.0)
        # all weights positive: gradient is positive, so the budget binds
        assert report.p.sum() == pytest.approx(budget, rel=1e-6)
        # reported objective is the dual form at the returned point
        value = dual_weighted_rate(report.p, channels, w, perm, SIGMA2).value
        assert report.objective == pytest.approx(value, rel=1e-9)


def test_solver_deterministic():
    _, channels = _instance(2104, 4, 4)
    w = np.array([0.4, 0.3, 0.2, 0.1])
    perm = optimal_permutation(w)
    a = solve_power_allocation(channels, w, perm, SIGMA2, 90.0)
    b = solve_power_allocation(channels, w, perm, SIGMA2, 90.0)
    assert np.array_equal(a.p, b.p)
    assert a.objective == b.objective
    assert a.iterations == b.iterations


def test_solver_honest_nonconvergence_flag():
    _, channels = _instance(2105, 2, 5)
    w = np.array([0.3, 0.25, 0.2, 0.15, 0.1])
    perm = optimal_permutation(w)
    report = solve_power_allocation(channels, w, perm, SIGMA2, 100.0, max_iter=1)
    assert not report.converged
    assert report.iterations == 1
    # the returned iterate is still feasible
    assert np.all(report.p >= 0.0)
    assert report.p.sum() <= 100.0 + 1e-7


def test_solver_unsorted_order_accepted():
    # enumeration oracles pass arbitrary orders; result is stationary, maybe
    # not globally optimal, but must still be feasible and finite
    _, channels = _instance(2106, 1, 3)
    w = np.array([0.2, 0.3, 0.5])
    report = solve_power_allocation(channels, w, [0, 1, 2], SIGMA2, 50.0)
    assert np.isfinite(report.objective)
    assert np.all(report.p >= 0.0)
    assert report.p.sum() <= 50.0 + 1e-7


def test_solver_objective_beats_uniform_and_random():
    rng, channels = _instance(2107, 7, 4)
    w = np.sort(rng.uniform(0.05, 1.0, size=4))[::-1]
    perm = optimal_permutation(w)
    budget = 70.0
    report = solve_power_allocation(channels, w, perm, SIGMA2, budget)
    uniform = dual_weighted_rate(
        np.full(4, budget / 4), channels, w, perm, SIGMA2
    ).value
    assert report.objective >= uniform - 1e-9
    for _ in range(50):
        q = rng.dirichlet(np.ones(5))[:4] * budget
        value = dual_weighted_rate(q, channels, w, perm, SIGMA2).value
        assert report.objective >= value - 1e-7 * max(1.0, abs(value))


def test_solver_input_validation():
    _, channels = _instance(2108, 0, 2)
    with pytest.raises(ValueError):
        solve_power_allocation(channels, [0.5], [0, 1], SIGMA2, 10.0)
    with pytest.raises(ValueError):
        solve_power_allocation(channels, [0.5, 0.5], [0, 0], SIGMA2, 10.0)
    with pytest.raises(ValueError):
        solve_power_allocation(channels, [0.5, -0.5], [0, 1], SIGMA2, 10.0)
    with pytest.raises(ValueError):
        solve_power_allocation(channels, [0.5, 0.5], [0, 1], 0.0, 10.0)
    with pytest.raises(ValueError):
        solve_power_allocation(channels, [0.5, 0.5], [0, 1], SIGMA2, -1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.1, np.nan)])
def test_solver_rejects_non_finite_channels(bad):
    channels = ChannelRealization([[bad, 0.1], [0.2, 0.3]])
    with pytest.raises(ValueError, match="channel entries must be finite"):
        solve_power_allocation(channels, [0.6, 0.4], [0, 1], SIGMA2, 5.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solver_rejects_non_finite_weights(bad):
    channels = ChannelRealization([[0.4, 0.1], [0.2, 0.3]])
    with pytest.raises(ValueError, match="weights must be finite"):
        solve_power_allocation(channels, [0.6, bad], [0, 1], SIGMA2, 5.0)


@settings(max_examples=80, deadline=None)
@given(
    k=st.sampled_from([1, 2, 5, 16]),
    n=st.sampled_from([1, 3, 8]),
    weights=st.sampled_from(["distinct", "zero", "tied", "unsorted"]),
    exponent=st.floats(-9.0, 6.0),
    collinear=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_newton_solve_is_feasible_ascending_and_optimal(k, n, weights, exponent, collinear, seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    if collinear:
        h = h[:1] + 1e-6 * h  # every channel within 1e-6 of the first
    h *= 10.0 ** rng.uniform(-4.0, -1.0, size=(k, 1))
    w = np.sort(rng.uniform(0.05, 1.0, k))[::-1]
    if weights == "zero":
        w[k // 2 :] = 0.0
    elif weights == "tied":
        w[:] = w[0]
    elif weights == "unsorted":
        w = w[::-1]  # increasing along the encoding order: negative decrements
    dw = np.append(w[:-1] - w[1:], w[-1])
    budget = 10.0**exponent
    max_iter = 500  # some unsorted rows never meet the KKT test
    p, f, iterations, _, converged = _ref.solve_pga(
        h, dw, SIGMA2, budget, *SETTINGS[:2], max_iter, *SETTINGS[3:]
    )
    assert np.all(p >= 0.0) and p.sum() <= budget
    assert f >= _ref.dual_objective(h, dw, np.full(k, budget / k), SIGMA2)
    if weights == "unsorted":
        return
    # Concave: a solve certifies its point or stops early as numerically
    # stationary, which near-collinear channels at budgets near 1e6 mW can
    # reach before the KKT test holds (their last gains are below the rounding
    # of f).  At a certified point the Frank-Wolfe gap bounds the distance to
    # the optimum.
    assert converged or iterations < max_iter
    if converged:
        _, g = _ref.dual_objective_grad(h, dw, p, SIGMA2)
        assert budget * g.max() - g @ p <= 1e-6 * max(1.0, abs(f))


def _bench_kernels():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_instances_solve_in_few_newton_iterations(monkeypatch):
    instances = _bench_kernels().make_instances(300)
    h, dw, budget = (np.stack(column) for column in zip(*instances))
    factorised = 0

    def factors(h, p, sigma2, _real=_ref.factors):
        nonlocal factorised
        factorised += 1
        return _real(h, p, sigma2)

    monkeypatch.setattr(_ref, "factors", factors)
    _, _, iterations, kkt, converged = _ref.solve_pga_batch(h, dw, SIGMA2, budget, *SETTINGS)
    assert np.all(converged) and np.all(kkt <= 1e-6)
    assert np.percentile(iterations, 99) <= 8
    # Nearly every Newton step is accepted at its first trial point: few
    # backtracks beyond one evaluation per iteration.
    assert factorised <= 1.1 * (len(budget) + iterations.sum())
