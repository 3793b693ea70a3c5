"""End-to-end pipeline: budget arithmetic, invariants, oracle dominance."""

import numpy as np
import pytest

from uavwpt.channel import draw_channel, draw_topology, trial_rng
from uavwpt.eh_model import EhParams, harvest
from uavwpt.emwt import EmwtResult, SystemConfig, compute_budget, run_emwt
from uavwpt.oracle import GridSpec, grid_search, random_feasible_allocations
from uavwpt.rate import dual_weighted_rate, optimal_permutation

EH = EhParams(6400.0, 0.003, 200.0)


def _config(k=5, n=3, circuit_power=40.0, eh=EH, weights=None, p_max=200.0):
    if weights is None:
        weights = np.array([0.3, 0.25, 0.2, 0.15, 0.1])[:k]
        weights = weights / weights.sum()
    return SystemConfig(
        n_ues=k,
        n_antennas=n,
        noise_power=0.001,
        amp_efficiency=0.8,
        circuit_power=circuit_power,
        p_max=np.full(k, p_max),
        weights=np.asarray(weights),
        eh=eh,
    )


def _channels(seed, trial, k=5, n=3):
    rng = trial_rng(seed, cell=0, trial=trial)
    topo = draw_topology(rng, k, 10.0, 20.0, 50.0, 2.5, 2.0)
    return rng, draw_channel(rng, topo, n)


def test_compute_budget_arithmetic():
    assert compute_budget(100.0, 0.8, 40.0) == pytest.approx(48.0, rel=1e-15)
    assert compute_budget(75.0, 0.8, 75.0) == 0.0
    assert compute_budget(10.0, 0.8, 75.0) == 0.0


def test_compute_budget_on_an_array_matches_scalars():
    p_out = np.array([100.0, 75.0, 10.0, 0.0])
    budget = compute_budget(p_out, 0.8, 75.0)
    assert budget.shape == p_out.shape
    assert budget.tolist() == [compute_budget(float(v), 0.8, 75.0) for v in p_out]
    with pytest.raises(ValueError):
        compute_budget(np.array([1.0, -1.0]), 0.8, 40.0)


def test_compute_budget_with_an_array_circuit_power():
    # A sweep budgets the rows of many cells at once, each at its own P_cir.
    p_out = np.array([100.0, 75.0, 10.0, 5.0, 6.0])
    circuit = np.array([40.0, 75.0, 5.0, 1.0, 2.0])
    budget = compute_budget(p_out, 0.8, circuit)
    assert budget.tolist() == [
        compute_budget(float(p), 0.8, float(c)) for p, c in zip(p_out, circuit)
    ]
    assert compute_budget(np.array([5.0, 6.0]), 0.8, np.array([1.0, 2.0])).shape == (2,)
    # A scalar supply broadcasts against the circuit powers.
    assert compute_budget(50.0, 0.8, np.array([40.0, 60.0])).tolist() == [
        compute_budget(50.0, 0.8, 40.0),
        0.0,
    ]
    with pytest.raises(ValueError, match="powers must be nonnegative"):
        compute_budget(np.array([5.0, 6.0]), 0.8, np.array([1.0, -2.0]))
    with pytest.raises(ValueError, match="powers must be nonnegative"):
        compute_budget(5.0, 0.8, np.array([-1.0]))


def test_compute_budget_validation():
    with pytest.raises(ValueError):
        compute_budget(-1.0, 0.8, 40.0)
    with pytest.raises(ValueError):
        compute_budget(100.0, 0.0, 40.0)
    with pytest.raises(ValueError):
        compute_budget(100.0, 1.5, 40.0)
    with pytest.raises(ValueError):
        compute_budget(100.0, 0.8, -40.0)


def test_system_config_validation():
    with pytest.raises(ValueError):
        _config(k=5, weights=np.array([0.5, 0.5]))  # wrong length
    with pytest.raises(ValueError):
        _config(k=2, weights=np.array([0.5, -0.5]))
    cfg = _config()
    with pytest.raises(ValueError):
        SystemConfig(
            n_ues=5,
            n_antennas=3,
            noise_power=0.0,
            amp_efficiency=0.8,
            circuit_power=40.0,
            p_max=cfg.p_max,
            weights=cfg.weights,
            eh=EH,
        )


def test_run_emwt_invariants():
    cfg = _config()
    for trial in range(20):
        _, channels = _channels(4000, trial)
        res = run_emwt(cfg, channels)
        assert isinstance(res, EmwtResult)
        assert res.p_in > 0.0
        assert res.p_out == harvest(EH, res.p_in)
        assert res.budget == compute_budget(res.p_out, 0.8, 40.0)
        assert np.all(res.allocation >= 0.0)
        assert res.allocation.sum() <= res.budget + 1e-9 * max(res.budget, 1.0)
        perm = optimal_permutation(cfg.weights)
        value = dual_weighted_rate(
            res.allocation, channels, cfg.weights, perm, cfg.noise_power
        ).value
        assert res.weighted_throughput == pytest.approx(value, rel=1e-9)
        assert res.solve.converged


def test_run_emwt_beams_are_full_power_mrt():
    cfg = _config()
    _, channels = _channels(4001, 0)
    res = run_emwt(cfg, channels)
    powers = np.sum(np.abs(res.beams) ** 2, axis=1)
    assert np.allclose(powers, cfg.p_max, rtol=1e-12)
    # each beam parallel to its channel
    for k in range(cfg.n_ues):
        inner = abs(np.vdot(channels.h[k], res.beams[k]))
        assert inner == pytest.approx(
            np.linalg.norm(channels.h[k]) * np.linalg.norm(res.beams[k]), rel=1e-12
        )


def test_infeasible_budget_silent_downlink():
    # circuit power above the harvester ceiling: nothing left to transmit
    cfg = _config(circuit_power=250.0)
    _, channels = _channels(4002, 0)
    res = run_emwt(cfg, channels)
    assert res.budget == 0.0
    assert np.all(res.allocation == 0.0)
    assert res.weighted_throughput == 0.0
    assert res.solve.converged


def test_single_user_closed_form():
    cfg = _config(k=1, weights=np.array([1.0]))
    _, channels = _channels(4003, 2, k=1)
    res = run_emwt(cfg, channels)
    gain = float(np.sum(np.abs(channels.h[0]) ** 2))
    expect = np.log1p(res.budget * gain / cfg.noise_power)
    assert res.weighted_throughput == pytest.approx(expect, rel=1e-9)


def test_throughput_nonincreasing_in_circuit_power():
    _, channels = _channels(4004, 1)
    values = []
    for p_cir in (40.0, 50.0, 60.0, 70.0, 80.0, 240.0):
        res = run_emwt(_config(circuit_power=p_cir), channels)
        values.append(res.weighted_throughput)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == 0.0  # past the harvester ceiling


def test_throughput_nondecreasing_in_saturation():
    _, channels = _channels(4005, 1)
    values = []
    for c in (60.0, 100.0, 150.0, 200.0, 300.0):
        res = run_emwt(_config(eh=EhParams(6400.0, 0.003, c)), channels)
        values.append(res.weighted_throughput)
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_dominates_grid_and_random_allocations():
    cfg = _config(k=2, weights=np.array([0.6, 0.4]))
    rng, channels = _channels(4006, 3, k=2)
    res = run_emwt(cfg, channels)
    perm = optimal_permutation(cfg.weights)
    _, lattice = grid_search(
        channels, cfg.weights, perm, cfg.noise_power, GridSpec(500, res.budget)
    )
    assert res.weighted_throughput >= lattice - 1e-4 * abs(lattice)
    for q in random_feasible_allocations(rng, res.budget, 100, 2):
        value = dual_weighted_rate(q, channels, cfg.weights, perm, cfg.noise_power).value
        assert res.weighted_throughput >= value - 1e-7 * max(1.0, abs(value))


def test_independent_downlink_changes_rate_not_budget():
    cfg = _config()
    rng, channels = _channels(4007, 0)
    topo = draw_topology(rng, 5, 10.0, 20.0, 50.0, 2.5, 2.0)
    other = draw_channel(rng, topo, 3)
    base = run_emwt(cfg, channels)
    crossed = run_emwt(cfg, channels, downlink=other)
    assert crossed.budget == base.budget
    assert crossed.p_in == base.p_in
    assert crossed.weighted_throughput != base.weighted_throughput


def test_dimension_mismatch_rejected():
    cfg = _config()
    _, channels = _channels(4008, 0, k=4)
    with pytest.raises(ValueError):
        run_emwt(cfg, channels)
    _, good = _channels(4008, 1, k=5)
    _, bad_dl = _channels(4008, 2, k=4)
    with pytest.raises(ValueError):
        run_emwt(cfg, good, downlink=bad_dl)
