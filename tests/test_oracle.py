"""The brute-force references themselves: guards, tie-breaks, statistics."""

import numpy as np
import pytest

from uavwpt.channel import ChannelRealization, draw_channel, draw_topology, trial_rng
from uavwpt.oracle import (
    GridSpec,
    best_permutation_exhaustive,
    grid_search,
    random_feasible_allocations,
)
from uavwpt.rate import dpc_weighted_rate, dual_weighted_rate, optimal_permutation
from uavwpt.solver import solve_power_allocation

SIGMA2 = 0.001


def _instance(seed, trial, k, n=3):
    rng = trial_rng(seed, cell=0, trial=trial)
    topo = draw_topology(rng, k, 10.0, 20.0, 50.0, 2.5, 2.0)
    return rng, draw_channel(rng, topo, n)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1, 10.0)
    with pytest.raises(ValueError):
        GridSpec(10, -1.0)


def test_grid_search_size_guard():
    _, channels = _instance(3000, 0, 4)
    with pytest.raises(ValueError):
        grid_search(channels, np.full(4, 0.25), np.arange(4), SIGMA2, GridSpec(5, 10.0))


def test_grid_search_single_user_boundary():
    _, channels = _instance(3001, 0, 1)
    p, obj = grid_search(channels, [1.0], [0], SIGMA2, GridSpec(100, 30.0))
    assert p[0] == pytest.approx(30.0, rel=1e-12)
    assert obj == pytest.approx(
        dual_weighted_rate(p, channels, [1.0], [0], SIGMA2).value, rel=1e-12
    )


def test_grid_search_zero_budget():
    _, channels = _instance(3002, 0, 2)
    p, obj = grid_search(channels, [0.6, 0.4], [0, 1], SIGMA2, GridSpec(50, 0.0))
    assert np.all(p == 0.0)
    assert obj == 0.0


def test_grid_search_matches_direct_enumeration():
    # cross-check the chunked slogdet path against a tiny explicit loop
    _, channels = _instance(3003, 1, 2)
    w = np.array([0.7, 0.3])
    perm = optimal_permutation(w)
    spec = GridSpec(25, 40.0)
    p_grid, obj_grid = grid_search(channels, w, perm, SIGMA2, spec)
    delta = spec.budget / (spec.resolution - 1)
    best = (None, -np.inf)
    for i in range(spec.resolution):
        for j in range(spec.resolution):
            if i + j > spec.resolution - 1:
                continue
            p = np.array([i * delta, j * delta])
            val = dual_weighted_rate(p, channels, w, perm, SIGMA2).value
            if val > best[1]:
                best = (p, val)
    assert obj_grid == pytest.approx(best[1], rel=1e-12)
    assert np.allclose(p_grid, best[0], atol=1e-12)


def test_grid_search_k3_runs():
    rng, channels = _instance(3005, 0, 3)
    w = np.array([0.5, 0.3, 0.2])
    perm = optimal_permutation(w)
    report = solve_power_allocation(channels, w, perm, SIGMA2, 50.0)
    _, lattice = grid_search(channels, w, perm, SIGMA2, GridSpec(40, 50.0))
    assert lattice <= report.objective + 1e-3 * abs(report.objective)


def test_enumeration_size_guard():
    _, channels = _instance(3006, 0, 6)
    with pytest.raises(ValueError):
        best_permutation_exhaustive(channels, np.full(6, 1 / 6), SIGMA2, 10.0)


def test_enumeration_matches_sorted_order():
    _, channels = _instance(3007, 0, 2)
    w = np.array([0.9, 0.1])
    perm, obj = best_permutation_exhaustive(channels, w, SIGMA2, 60.0)
    star = optimal_permutation(w)
    report = solve_power_allocation(channels, w, star, SIGMA2, 60.0)
    value = dpc_weighted_rate(report.p, channels, w, star, SIGMA2).value
    assert obj <= value + 1e-6 * abs(value)
    assert perm.tolist() == star.tolist()


def test_enumeration_equal_weights_tie():
    _, channels = _instance(3008, 1, 3)
    w = np.full(3, 1 / 3)
    values = []
    import itertools

    for cand in itertools.permutations(range(3)):
        report = solve_power_allocation(channels, w, list(cand), SIGMA2, 45.0)
        values.append(dpc_weighted_rate(report.p, channels, w, list(cand), SIGMA2).value)
    spread = (max(values) - min(values)) / max(abs(max(values)), 1e-12)
    assert spread < 1e-8
    # the scores differ only in the last few ulps, so the oracle's strict
    # comparison picks the numerically largest one, deterministically
    perm, best = best_permutation_exhaustive(channels, w, SIGMA2, 45.0)
    assert sorted(perm.tolist()) == [0, 1, 2]
    assert best == max(values)


def test_random_allocations_feasible():
    rng = np.random.default_rng(77)
    budget = 32.0
    samples = random_feasible_allocations(rng, budget, 500, 4)
    assert samples.shape == (500, 4)
    assert np.all(samples >= 0.0)
    assert np.all(samples.sum(axis=1) <= budget + 1e-9 * budget)


def test_random_allocations_zero_budget():
    rng = np.random.default_rng(78)
    samples = random_feasible_allocations(rng, 0.0, 10, 3)
    assert np.all(samples == 0.0)


def test_random_allocations_mean_total():
    # the documented sampler statistic: E[sum p] = budget * K/(K+1)
    rng = np.random.default_rng(79)
    budget, k = 50.0, 3
    samples = random_feasible_allocations(rng, budget, 100_000, k)
    mean_total = float(samples.sum(axis=1).mean())
    assert mean_total == pytest.approx(budget * k / (k + 1), rel=0.01)


def test_random_allocations_validation():
    rng = np.random.default_rng(80)
    with pytest.raises(ValueError):
        random_feasible_allocations(rng, -1.0, 5, 2)
    with pytest.raises(ValueError):
        random_feasible_allocations(rng, 1.0, -5, 2)
    with pytest.raises(ValueError):
        random_feasible_allocations(rng, 1.0, 5, 0)
