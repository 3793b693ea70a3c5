"""Downlink power allocation on the budgeted simplex.

Maximizes the weight-decrement throughput form (see uavwpt.rate) over
{p >= 0, sum p <= budget} with active-set projected Newton ascent and Armijo
backtracking.  The hot loop lives in uavwpt._kernels; this module owns
validation, the permute/unpermute bookkeeping and the report type.
:func:`solve_batch` is the package's one call into the kernel, and
:func:`solve_power_allocation` is its batch of one.

Design notes on the solver itself: the feasible set has a cheap exact
Euclidean projection, the objective is smooth, and it is concave whenever the
weight decrements are all nonnegative (weights sorted descending along the
encoding order), so an ascent method with a nondecreasing-objective line
search converges to the global maximum in that case.  Stop when the
relative objective change is <= tol (default 1e-8) AND the KKT residual is
<= _KKT_TOL, a fixed 1e-6; uniform feasible start.  Each iteration fixes
the users with (nearly) no power whose gradient is below the largest one,
and takes the Newton step for the rest on the budget face: the Hessian
-sum_{k >= max(m, n)} dw_k |h_m^H A_k^{-1} h_n|^2 / sigma2^2 comes from the
same factorization as the value and the gradient (Bertsekas, SIAM J.
Control Optim. 1982).  Armijo backtracking runs along the projection of
that step onto the simplex.  Where the Newton direction gives no ascent
(unsorted weights make the objective nonconcave) the step is the gradient
scaled so that its largest entry is the budget.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .rate import optimal_permutation, weight_decrements

_KKT_TOL = 1e-6
_ARMIJO = 1e-4
_SHRINK = 0.5


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one power-allocation solve.

    ``p`` is in original UE order (mW).  ``converged`` is False when the
    iteration limit ran out before both stopping tests held; the best iterate
    is still returned so the caller can decide what to do with it.
    """

    p: np.ndarray
    objective: float
    iterations: int
    kkt_residual: float
    converged: bool


def solve_power_allocation(
    channels,
    weights,
    perm,
    sigma2: float,
    budget: float,
    tol: float = 1e-8,
    max_iter: int = 10_000,
) -> SolveReport:
    """Maximize the weighted DPC throughput over the power budget.

    ``perm`` is the encoding order; the returned allocation is in original
    UE order.  Global optimality is guaranteed when the weights are sorted
    descending along ``perm`` (nonnegative decrements, concave objective);
    other orders are accepted so exhaustive-enumeration checks can reuse
    this routine, and then the result is only a stationary point.  The
    solve is :func:`solve_batch` of one row.
    """
    w = np.asarray(weights, dtype=float)
    perm = np.asarray(perm, dtype=np.intp)
    k_ues = channels.n_ues
    if w.shape != (k_ues,):
        raise ValueError("weights must be a length-K vector")
    if sorted(perm.tolist()) != list(range(k_ues)):
        raise ValueError(f"perm must be a permutation of 0..{k_ues - 1}")
    if not np.all(np.isfinite(channels.h)):
        raise ValueError("channel entries must be finite")
    if not (np.all(np.isfinite(w)) and np.all(w >= 0)):
        raise ValueError("throughput weights must be finite and nonnegative")
    if not sigma2 > 0:
        raise ValueError("noise power must be positive")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if not np.isfinite(budget):
        raise ValueError("budget must be finite")

    p, objective, iterations, kkt, converged = solve_batch(
        channels.h[None], w, sigma2, [budget], tol, max_iter, perm
    )
    return SolveReport(
        p=p[0],
        objective=float(objective[0]),
        iterations=int(iterations[0]),
        kkt_residual=float(kkt[0]),
        converged=bool(converged[0]),
    )


def solve_batch(h, weights, sigma2: float, budgets, tol=1e-8, max_iter=10_000, perm=None):
    """Solve many instances that share one weight vector in one kernel call.

    ``h`` is (B, K, N) in original UE order and ``budgets`` (B,).  Every
    instance uses the encoding order ``perm``, by default the
    descending-weight one, the globally optimal order.  Returns arrays (p,
    objective, iterations, kkt_residual, converged) with p in original UE
    order.
    """
    if perm is None:
        perm = optimal_permutation(weights)
    budgets = np.asarray(budgets, dtype=float)
    dw = np.broadcast_to(weight_decrements(weights, perm), (budgets.size, perm.size))
    q, objective, iterations, kkt, converged = _kernels.solve_pga_batch(
        np.ascontiguousarray(h[:, perm]),
        dw,
        float(sigma2),
        budgets,
        float(tol),
        _KKT_TOL,
        int(max_iter),
        _ARMIJO,
        _SHRINK,
    )
    p = np.zeros_like(q)
    p[:, perm] = q
    return p, objective, iterations, kkt, converged
