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

Rates are in nats.  Both forms evaluate one sequence of log-det
increments, logdet A_k - logdet A_{k-1} = log1p((p/sigma2) h^H A_{k-1}^{-1} h)
from square-root factors that are updated user by user, never from A_k
itself (``evaluate`` of uavwpt._kernels._ref), and differ only in the
weights they apply to it.  The gradient comes from
``_ref.dual_objective_grad``, the evaluation the numpy solver ascends
with.
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


def _rate_terms(p, channels, weights, perm, sigma2):
    """(w, perm, logdet(A_k) for k = 1..K along perm, per-UE increments in UE order)."""
    p, w, perm = _check_inputs(p, channels, weights, perm, sigma2)
    increments = np.zeros(0)
    if perm.size:
        increments, _ = _ref.evaluate(channels.h[perm], np.zeros(perm.size), p[perm], sigma2)
    per_user = np.empty_like(increments)
    per_user[perm] = increments
    return w, perm, np.add.accumulate(increments), per_user


def dpc_weighted_rate(p, channels, weights, perm, sigma2: float) -> WeightedRate:
    """Weighted DPC throughput, direct per-user form."""
    w, perm, _, per_user = _rate_terms(p, channels, weights, perm, sigma2)
    return WeightedRate(float(w[perm] @ per_user[perm]), per_user)


def dual_weighted_rate(p, channels, weights, perm, sigma2: float) -> WeightedRate:
    """Weighted DPC throughput via the weight-decrement (dual uplink) form."""
    w, perm, logdets, per_user = _rate_terms(p, channels, weights, perm, sigma2)
    return WeightedRate(float(weight_decrements(w, perm) @ logdets), per_user)


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
