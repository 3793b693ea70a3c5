"""Weighted downlink throughput under dirty-paper coding, and its dual form.

For an encoding permutation ``perm`` (perm[k] is the UE encoded k-th) and
downlink powers p (mW, original UE order), define the accumulated matrices

    A_k = I + sum_{n<=k} (p[perm[n]] / sigma2) * h_perm[n] h_perm[n]^H .

The direct form weights the per-user log-det increments,

    value = sum_k w[perm[k]] * (logdet A_k - logdet A_{k-1}),

and summation by parts turns it into the weight-decrement form

    value = sum_k (w[perm[k]] - w[perm[k+1]]) * logdet A_k,   w[perm[K+1]] := 0,

an identity that holds for every permutation and every p >= 0.  When the
permutation sorts the weights in descending order every decrement is
nonnegative, making the second form a concave function of p; that is the
objective the power-allocation solver maximizes.

Rates are in nats.  The log-determinants come from the Cholesky factors
of the explicitly accumulated A_k (``factors`` and ``logdets`` of
uavwpt._kernels._ref), and the gradient from ``_ref.dual_objective_grad``,
the evaluation the numpy solver ascends with.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import _ref


@dataclass(frozen=True)
class WeightedRate:
    """Weighted throughput (nats) plus the per-UE rate increments.

    ``per_user[j]`` is the rate of UE j in original index order, so
    ``value == weights @ per_user`` up to rounding.
    """

    value: float
    per_user: np.ndarray


def optimal_permutation(weights) -> np.ndarray:
    """Encoding order that sorts weights descending, ties by ascending index.

    Encoding the heaviest-weighted UE first maximizes the weighted DPC
    throughput over all K! orders (see the enumeration oracle).
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("throughput weights must be nonnegative")
    return np.argsort(-w, kind="stable")


def _check_inputs(p, channels, weights, perm, sigma2):
    p = np.asarray(p, dtype=float)
    w = np.asarray(weights, dtype=float)
    perm = np.asarray(perm, dtype=np.intp)
    k_ues = channels.n_ues
    if p.shape != (k_ues,) or w.shape != (k_ues,):
        raise ValueError("powers and weights must be length-K vectors")
    if sorted(perm.tolist()) != list(range(k_ues)):
        raise ValueError(f"perm must be a permutation of 0..{k_ues - 1}")
    if not (np.all(np.isfinite(p)) and np.all(p >= 0)):
        raise ValueError("downlink powers must be finite and nonnegative")
    if not (np.all(np.isfinite(w)) and np.all(w >= 0)):
        raise ValueError("throughput weights must be finite and nonnegative")
    if not sigma2 > 0:
        raise ValueError("noise power must be positive")
    return p, w, perm


def _logdet_sequence(p, channels, perm, sigma2) -> np.ndarray:
    """logdet(A_k) for k = 1..K along the given encoding order."""
    if perm.size == 0:
        return np.zeros(0)
    return _ref.logdets(_ref.factors(channels.h[perm], p[perm], sigma2))


def dpc_weighted_rate(p, channels, weights, perm, sigma2: float) -> WeightedRate:
    """Weighted DPC throughput, direct per-user form."""
    p, w, perm = _check_inputs(p, channels, weights, perm, sigma2)
    logdets = _logdet_sequence(p, channels, perm, sigma2)
    increments = np.diff(logdets, prepend=0.0)
    per_user = np.empty_like(increments)
    per_user[perm] = increments
    return WeightedRate(float(w[perm] @ increments), per_user)


def dual_weighted_rate(p, channels, weights, perm, sigma2: float) -> WeightedRate:
    """Weighted DPC throughput via the weight-decrement (dual uplink) form."""
    p, w, perm = _check_inputs(p, channels, weights, perm, sigma2)
    logdets = _logdet_sequence(p, channels, perm, sigma2)
    dw = weight_decrements(w, perm)
    increments = np.diff(logdets, prepend=0.0)
    per_user = np.empty_like(increments)
    per_user[perm] = increments
    return WeightedRate(float(dw @ logdets), per_user)


def weight_decrements(weights, perm) -> np.ndarray:
    """dw_k = w[perm[k]] - w[perm[k+1]], with w past the last position = 0."""
    wp = np.asarray(weights, dtype=float)[np.asarray(perm, dtype=np.intp)]
    dw = np.empty_like(wp)
    dw[:-1] = wp[:-1] - wp[1:]
    if wp.size:
        dw[-1] = wp[-1]
    return dw


def objective_gradient(p, channels, weights, perm, sigma2: float) -> np.ndarray:
    """Gradient of the weight-decrement form w.r.t. the powers, permuted order.

    Component m is d(value)/d p[perm[m]]:

        (1/sigma2) * sum_{k>=m} dw_k * h_perm[m]^H A_k^{-1} h_perm[m],

    strictly positive whenever the smallest weight is positive.  This is the
    gradient the solver ascends, :func:`uavwpt._kernels._ref.dual_objective_grad`.
    """
    p, w, perm = _check_inputs(p, channels, weights, perm, sigma2)
    if perm.size == 0:
        return np.zeros(0)
    dw = weight_decrements(w, perm)
    return _ref.dual_objective_grad(channels.h[perm], dw, p[perm], sigma2)[1]
