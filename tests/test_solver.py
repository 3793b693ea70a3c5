"""Budgeted-simplex projection, KKT residual, and the power-allocation solver."""

import numpy as np
import pytest

from uavwpt.channel import ChannelRealization, draw_channel, draw_topology, trial_rng
from uavwpt.rate import (
    dual_weighted_rate,
    objective_gradient,
    optimal_permutation,
)
from uavwpt.solver import (
    kkt_residual,
    project_budget_simplex,
    solve_power_allocation,
)

SIGMA2 = 0.001


def _instance(seed, trial, k, n=3):
    rng = trial_rng(seed, cell=0, trial=trial)
    topo = draw_topology(rng, k, 10.0, 20.0, 50.0, 2.5, 2.0)
    channels = draw_channel(rng, topo, n)
    return rng, channels


# ---------------------------------------------------------------- projection

def test_projection_passthrough_when_feasible():
    assert np.allclose(project_budget_simplex([1.0, 2.0], 10.0), [1.0, 2.0])


def test_projection_symmetric_split():
    assert np.allclose(project_budget_simplex([2.0, 2.0], 2.0), [1.0, 1.0])


def test_projection_negative_coordinate_dropped():
    assert np.allclose(project_budget_simplex([-1.0, 3.0], 2.0), [0.0, 2.0])


def test_projection_clips_negatives_inside_budget():
    assert np.allclose(project_budget_simplex([-5.0, 1.0], 10.0), [0.0, 1.0])


def test_projection_zero_budget():
    assert np.allclose(project_budget_simplex([3.0, 4.0], 0.0), [0.0, 0.0])


def test_projection_rejects_negative_budget():
    with pytest.raises(ValueError):
        project_budget_simplex([1.0], -1.0)


def test_projection_against_fine_grid():
    # nearest feasible point by brute force on a 2D lattice
    rng = np.random.default_rng(404)
    grid = np.linspace(0.0, 2.0, 401)
    xx, yy = np.meshgrid(grid, grid, indexing="ij")
    mask = xx + yy <= 2.0
    points = np.stack([xx[mask], yy[mask]], axis=1)
    for _ in range(20):
        v = rng.uniform(-2.0, 3.0, size=2)
        proj = project_budget_simplex(v, 2.0)
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
        p = project_budget_simplex(v, budget)
        assert p.min() >= 0.0
        assert p.sum() <= budget + 1e-9 * max(budget, 1.0)
        again = project_budget_simplex(p, budget)
        assert np.allclose(again, p, atol=1e-12)


# -------------------------------------------------------------- KKT residual

def test_kkt_single_active_coordinate():
    assert kkt_residual([5.0], [0.123], 5.0) == 0.0


def test_kkt_zero_budget():
    assert kkt_residual([0.0, 0.0], [1.0, 2.0], 0.0) == 0.0


def test_kkt_flags_unequal_active_gradients():
    r = kkt_residual([2.0, 2.0], [1.0, 0.5], 4.0)
    assert r == pytest.approx(0.5, rel=1e-12)  # |0.5 - 1|/1


def test_kkt_flags_budget_slack():
    r = kkt_residual([1.0, 1.0], [1.0, 1.0], 4.0)
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
        bad = project_budget_simplex(
            report.p + scale * budget * np.array([1.0, -1.0, 0.3]), budget
        )
        grad_perm = objective_gradient(bad, channels, w, perm, SIGMA2)
        grad = np.empty(3)
        grad[perm] = grad_perm
        r = kkt_residual(bad, grad, budget)
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
