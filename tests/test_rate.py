"""Weighted throughput forms: the two evaluations, ordering, and gradient."""

import numpy as np
import pytest

from uavwpt.channel import ChannelRealization, draw_channel, draw_topology, trial_rng
from uavwpt.rate import (
    dpc_weighted_rate,
    dual_weighted_rate,
    objective_gradient,
    optimal_permutation,
    weight_decrements,
)
from uavwpt.solver import solve_power_allocation

SIGMA2 = 0.001


def _random_instance(seed, trial, k_lo=1, k_hi=5, n_lo=1, n_hi=4):
    rng = trial_rng(seed, cell=0, trial=trial)
    k = int(rng.integers(k_lo, k_hi + 1))
    n = int(rng.integers(n_lo, n_hi + 1))
    topo = draw_topology(rng, k, 10.0, 20.0, 50.0, 2.5, 2.0)
    channels = draw_channel(rng, topo, n)
    return rng, channels


def test_optimal_permutation_sorts_descending():
    w = np.array([0.1, 0.3, 0.25, 0.2, 0.15])
    perm = optimal_permutation(w)
    assert np.all(np.diff(w[perm]) <= 0)
    assert sorted(perm.tolist()) == [0, 1, 2, 3, 4]


def test_optimal_permutation_stable_ties():
    perm = optimal_permutation([0.5, 0.2, 0.5, 0.2])
    assert perm.tolist() == [0, 2, 1, 3]


def test_optimal_permutation_rejects_negative():
    with pytest.raises(ValueError):
        optimal_permutation([0.5, -0.1])


def test_weight_decrements_values():
    dw = weight_decrements([0.3, 0.25, 0.2], [0, 1, 2])
    assert np.allclose(dw, [0.05, 0.05, 0.2])
    # telescoping: partial sums recover the permuted weights
    assert np.allclose(np.cumsum(dw[::-1])[::-1], [0.3, 0.25, 0.2])
    # non-sorted order gives a negative decrement, by design
    dw2 = weight_decrements([0.3, 0.25, 0.2], [2, 0, 1])
    assert np.allclose(dw2, [0.2 - 0.3, 0.3 - 0.25, 0.25])


def test_value_matches_weighted_per_user():
    for trial in range(20):
        rng, channels = _random_instance(1002, trial)
        k = channels.n_ues
        w = rng.uniform(0.0, 1.0, size=k)
        perm = optimal_permutation(w)
        p = rng.uniform(0.0, 60.0, size=k)
        for order in (perm, rng.permutation(k)):
            res = dpc_weighted_rate(p, channels, w, order, SIGMA2)
            assert res.value == pytest.approx(float(w @ res.per_user), rel=1e-9, abs=1e-12)
            assert np.all(res.per_user >= -1e-12)
            # the dual form gives the same per-user split, in any encoding order
            dual = dual_weighted_rate(p, channels, w, order, SIGMA2)
            assert np.allclose(res.per_user, dual.per_user, rtol=1e-9, atol=1e-12)


def test_zero_power_zero_rate():
    _, channels = _random_instance(1003, 0)
    k = channels.n_ues
    res = dpc_weighted_rate(
        np.zeros(k), channels, np.ones(k), np.arange(k), SIGMA2
    )
    assert res.value == 0.0
    assert np.all(res.per_user == 0.0)


def test_single_user_closed_form():
    rng, channels = _random_instance(1004, 3, k_lo=1, k_hi=1)
    gain = float(np.sum(np.abs(channels.h[0]) ** 2))
    p = 42.0
    res = dpc_weighted_rate([p], channels, [0.7], [0], SIGMA2)
    assert res.value == pytest.approx(0.7 * np.log1p(p * gain / SIGMA2), rel=1e-12)


def test_single_antenna_is_the_degraded_broadcast():
    # At N=1, logdet A_k = log1p(sum_{n<=k} p_n |h_n|^2 / sigma2): the rates
    # of the degraded single-antenna broadcast channel (Tse, ISIT 1997).
    # Total SNRs stay within 1e-2..1e6; below 1e-2 the pivot logs start to
    # lose relative precision.
    rng = np.random.default_rng(1997)
    for _ in range(200):
        k = int(rng.integers(1, 7))
        phases = np.exp(2j * np.pi * rng.uniform(size=k))
        channels = ChannelRealization((phases * np.sqrt(rng.uniform(0.5, 1.0, size=k)))[:, None])
        snr = np.abs(channels.h[:, 0]) ** 2 / SIGMA2
        weights = rng.uniform(0.05, 1.0, size=k)
        perm = optimal_permutation(weights)
        dw = weight_decrements(weights, perm)

        def broadcast(p):
            return float(dw @ np.log1p(np.cumsum(p[perm] * snr[perm])))

        total = 10.0 ** rng.uniform(-2.0, np.log10(5e5))
        p = rng.dirichlet(np.ones(k))
        p *= total / (p @ snr)
        value = dual_weighted_rate(p, channels, weights, perm, SIGMA2).value
        assert value == pytest.approx(broadcast(p), rel=1e-12, abs=0.0)
        # The whole budget is spent, so the solve's total SNR is total..2*total.
        report = solve_power_allocation(channels, weights, perm, SIGMA2, total / snr.min())
        assert report.converged
        assert report.objective == pytest.approx(broadcast(report.p), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k, n", [(0, 2), (2, 2), (3, 5), (5, 8)])
def test_orthogonal_users_closed_form(k, n):
    # Mutually orthogonal channels do not interfere: each user gets its
    # single-user rate log(1 + p_k ||h_k||^2 / sigma2), and each gradient
    # component is w_k ||h_k||^2 / (sigma2 + p_k ||h_k||^2), since h_k is an
    # eigenvector of every A_j that contains it.
    rng = np.random.default_rng(1005 + 10 * k + n)
    unitary = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    channels = ChannelRealization(unitary.T[:k] * rng.uniform(0.05, 0.5, size=(k, 1)))
    gain = np.sum(np.abs(channels.h) ** 2, axis=1)
    w = rng.uniform(0.1, 1.0, size=k)
    perm = optimal_permutation(w)
    p = rng.uniform(1.0, 60.0, size=k)
    res = dpc_weighted_rate(p, channels, w, perm, SIGMA2)
    assert np.allclose(res.per_user, np.log1p(p * gain / SIGMA2), rtol=1e-12, atol=0.0)
    grad = objective_gradient(p, channels, w, perm, SIGMA2)
    want = (w * gain / (SIGMA2 + p * gain))[perm]
    assert np.allclose(grad, want, rtol=1e-12, atol=0.0)


def test_rate_input_validation():
    _, channels = _random_instance(1005, 0, k_lo=3, k_hi=3)
    w = np.array([0.5, 0.3, 0.2])
    with pytest.raises(ValueError):
        dpc_weighted_rate([1.0, 2.0], channels, w, [0, 1, 2], SIGMA2)
    with pytest.raises(ValueError):
        dpc_weighted_rate([1.0, 2.0, 3.0], channels, w, [0, 1, 1], SIGMA2)
    with pytest.raises(ValueError):
        dpc_weighted_rate([1.0, -2.0, 3.0], channels, w, [0, 1, 2], SIGMA2)
    with pytest.raises(ValueError):
        dpc_weighted_rate([1.0, 2.0, 3.0], channels, w, [0, 1, 2], 0.0)


@pytest.mark.parametrize("rate", [dpc_weighted_rate, dual_weighted_rate])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rate_rejects_non_finite_powers(rate, bad):
    # Unchecked, a NaN power comes back as value=nan.
    _, channels = _random_instance(1005, 0, k_lo=2, k_hi=2)
    with pytest.raises(ValueError, match="powers must be finite"):
        rate([bad, 1.0], channels, [0.5, 0.5], [0, 1], SIGMA2)


@pytest.mark.parametrize("rate", [dpc_weighted_rate, dual_weighted_rate])
@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_rate_rejects_negative_or_non_finite_weights(rate, bad):
    # Unchecked, these give a number, even a negative throughput.
    _, channels = _random_instance(1005, 0, k_lo=2, k_hi=2)
    with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
        rate([1.0, 1.0], channels, [bad, 0.5], [0, 1], SIGMA2)


def test_permutation_changes_value_but_not_sum_rate():
    # with equal weights the weighted rate telescopes to a permutation-
    # invariant sum rate; unequal weights generically depend on the order
    rng, channels = _random_instance(1006, 1, k_lo=3, k_hi=3, n_lo=2, n_hi=2)
    p = rng.uniform(5.0, 50.0, size=3)
    equal = [
        dpc_weighted_rate(p, channels, np.full(3, 1 / 3), perm, SIGMA2).value
        for perm in ([0, 1, 2], [2, 1, 0], [1, 0, 2])
    ]
    assert max(equal) - min(equal) <= 1e-9 * max(map(abs, equal))
    skew = [
        dpc_weighted_rate(p, channels, np.array([0.7, 0.2, 0.1]), perm, SIGMA2).value
        for perm in ([0, 1, 2], [2, 1, 0])
    ]
    assert abs(skew[0] - skew[1]) > 1e-6


def test_gradient_positive_for_positive_weights():
    rng, channels = _random_instance(1008, 2, k_lo=4, k_hi=4)
    w = np.sort(rng.uniform(0.1, 1.0, size=4))[::-1]
    perm = optimal_permutation(w)
    grad = objective_gradient(np.full(4, 10.0), channels, w, perm, SIGMA2)
    assert np.all(grad > 0)
