"""Pure-NumPy kernels: reference implementation of the solver hot path.

These functions mirror uavwpt._kernels._fast; the compiled module is
preferred at import time and this one is the fallback.  Everything works in
*permuted* coordinates on raw arrays: ``h`` is the (K, N) channel matrix with
rows ordered by the encoding permutation and ``dw`` the nonincreasing-weight
decrements, so the objective is sum_k dw[k] * logdet(A_k).

Every kernel also takes a leading batch axis: ``h`` (B, K, N), ``dw`` and
``p`` (B, K), ``budget`` (B,).  Rows never mix, and each row's result is
bitwise the same whatever else is in the batch: the K Cholesky factors of
all rows come from one stacked LAPACK call, every sum runs in a fixed order
along its own axis, and the dot products use ``np.vecdot``, which matches
``@`` bit for bit.  :func:`solve_pga` is the batch of one.
"""

import functools

import numpy as np

from ..errors import ConsistencyError

BACKEND = "python"

_MAX_BACKTRACK = 60  # 0.5**60 is far below any meaningful step


def _cholesky(acc):
    try:
        return np.linalg.cholesky(acc)
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError(
            "accumulated interference matrix is not positive definite"
        ) from exc


def _batched(fn):
    """Let a batch kernel also take one unbatched instance (h of shape (K, N))."""

    @functools.wraps(fn)
    def kernel(h, dw, p, sigma2):
        h = np.asarray(h, dtype=complex)
        if h.ndim == 3:
            return fn(h, np.asarray(dw, dtype=float), np.asarray(p, dtype=float), sigma2)
        dw = np.asarray(dw, dtype=float)[None]
        out = fn(h[None], dw, np.asarray(p, dtype=float)[None], sigma2)
        return (float(out[0][0]), out[1][0]) if isinstance(out, tuple) else float(out[0])

    return kernel


def _invariants(h, dw):
    """Per-row data every evaluation at a new p reuses, as a tuple of (B, ...) arrays.

    The outer products h_n h_n^H (B, K, N, N), the right-hand side h^T of
    the gradient's solve (B, 1, N, K), the (k, m) mask of the gradient terms
    that count (m <= k and dw[k] != 0), and dw itself.
    """
    outer = h[..., :, None] * h.conj()[..., None, :]
    users = np.arange(h.shape[1])
    lower = np.greater_equal.outer(users, users) & (dw != 0.0)[:, :, None]
    return outer, np.swapaxes(h, -1, -2)[:, None], lower, dw


def _factors(outer, p, sigma2, eye):
    """Cholesky factors L_k of A_k = I + sum_{n<=k} (p[n]/sigma2) h_n h_n^H, (B, K, N, N)."""
    acc = (p / sigma2)[..., None, None] * outer
    acc[:, 0] += eye
    return _cholesky(np.add.accumulate(acc, axis=1, out=acc))


def _weighted_logdets(dw, chol):
    """sum_k dw[k] * logdet(A_k) per row, accumulated in k order."""
    logdet = np.add.reduce(np.log(np.diagonal(chol, axis1=-2, axis2=-1).real), axis=-1)
    # + 0.0 turns an all-zero -0.0 sum into +0.0, as a sum started at 0.0 gives.
    return np.add.accumulate(dw * 2.0 * logdet, axis=1)[:, -1] + 0.0


def _value_grad(inv, rows, p, sigma2, eye):
    """Objective and gradient at p from one factorisation.

    ``inv`` is _invariants of a batch and ``rows`` (a slice or indices)
    picks the rows p belongs to.  A copy of the picked outer products lives
    only while the factors are built, not through the solve below.
    """
    outer, rhs, lower, dw = inv
    chol = _factors(outer[rows], p, sigma2, eye)
    rhs, lower, dw = rhs[rows], lower[rows], dw[rows]
    # d logdet(A_k)/d p[m] = h_m^H A_k^{-1} h_m / sigma2 = ||L_k^{-1} h_m||^2 / sigma2,
    # for every (k, m) pair from one stacked solve; only m <= k is used.
    # (B, K, N, K): row k, antenna, column m.  Squared in place, so the
    # complex solution is freed before the sums below.
    sq = np.abs(np.linalg.solve(chol, rhs))
    sq **= 2
    # Antenna sums in antenna order, except user 0's own column, which is one
    # vector sum (pairwise once N >= 8): the orders of the user-by-user
    # evaluation, so results keep their bits at every N.
    quad = np.add.accumulate(sq, axis=2)[:, :, -1]
    quad[:, 0, 0] = np.add.reduce(np.ascontiguousarray(sq[:, 0, :, 0]), axis=-1)
    terms = np.where(lower, dw[:, :, None] * quad / sigma2, 0.0)
    grad = np.add.accumulate(terms, axis=1)[:, -1] + 0.0
    return _weighted_logdets(dw, chol), grad


@_batched
def dual_objective(h, dw, p, sigma2):
    """sum_k dw[k] * logdet(I + sum_{n<=k} (p[n]/sigma2) h_n h_n^H)."""
    outer = _invariants(h, dw)[0]
    return _weighted_logdets(dw, _factors(outer, p, sigma2, np.eye(h.shape[-1])))


@_batched
def dual_objective_grad(h, dw, p, sigma2):
    """Objective and its gradient w.r.t. p (both in permuted order)."""
    return _value_grad(_invariants(h, dw), slice(None), p, sigma2, np.eye(h.shape[-1]))


def project_simplex(v, budget):
    """Euclidean projection onto {p >= 0, sum p <= budget}, row by row.

    Inside the budget it is plain clipping; otherwise the classic
    sort-and-threshold projection onto {p >= 0, sum p = budget}.
    """
    v = np.asarray(v, dtype=float)
    budget = np.asarray(budget, dtype=float)
    if (budget < 0).any():
        raise ValueError("budget must be nonnegative")
    clipped = np.maximum(v, 0.0)
    inside = np.add.reduce(clipped, axis=-1) <= budget
    if inside.all():
        return clipped
    k_ues = v.shape[-1]
    u = np.sort(v, axis=-1)[..., ::-1]
    cumulative = np.add.accumulate(u, axis=-1)
    counts = np.arange(1, k_ues + 1, dtype=float)
    support = u - (cumulative - budget[..., None]) / counts > 0.0
    rho = k_ues - 1 - np.argmax(support[..., ::-1], axis=-1)
    top = np.take_along_axis(cumulative, rho[..., None], axis=-1)[..., 0]
    theta = (top - budget) / (rho + 1.0)
    projected = np.where(budget[..., None] == 0.0, 0.0, np.maximum(v - theta[..., None], 0.0))
    return np.where(inside[..., None], clipped, projected)


def kkt_residual(p, grad, budget, eps_act):
    """First-order optimality residual on the budgeted simplex (see solver), row by row."""
    p = np.asarray(p, dtype=float)
    grad = np.asarray(grad, dtype=float)
    mu = np.maximum.reduce(grad, axis=-1)
    active = p > np.asarray(eps_act)[..., None]
    positive = mu > 0.0
    spread = np.maximum.reduce(np.where(active, np.abs(grad - mu[..., None]), 0.0), axis=-1)
    r_grad = spread / np.where(positive, mu, 1.0)
    r_budget = np.abs(np.add.reduce(p, axis=-1) - budget) / np.maximum(budget, eps_act)
    r_stationary = np.maximum.reduce(np.where(active, np.abs(grad), 0.0), axis=-1)
    out = np.where(
        positive,
        np.where(r_budget > r_grad, r_budget, r_grad),
        r_stationary / np.fmax(1.0, np.abs(mu)),
    )
    return float(out) if out.ndim == 0 else out


def solve_pga(h, dw, sigma2, budget, tol, kkt_tol, max_iter, armijo, shrink):
    """Projected gradient ascent on one instance: :func:`solve_pga_batch` of one row.

    Returns (p, objective, iterations, kkt_residual, converged).
    """
    p, f, iterations, kkt, converged = solve_pga_batch(
        np.asarray(h, dtype=complex)[None],
        np.asarray(dw, dtype=float)[None],
        sigma2,
        np.array([budget], dtype=float),
        tol,
        kkt_tol,
        max_iter,
        armijo,
        shrink,
    )
    return p[0], float(f[0]), int(iterations[0]), float(kkt[0]), bool(converged[0])


def solve_pga_batch(h, dw, sigma2, budget, tol, kkt_tol, max_iter, armijo, shrink):
    """Projected gradient ascent with Armijo backtracking, all rows in lockstep.

    ``h`` is (B, K, N), ``dw`` (B, K) and ``budget`` (B,).  Returns arrays
    (p (B, K), objective, iterations, kkt_residual, converged), one entry
    per row.  Every iterate is feasible and the objective never decreases
    across accepted steps.  The trial step is the budget on the first
    iteration and the Barzilai-Borwein spectral step afterwards (clipped to
    [1e-30, 1e30]); when the curvature estimate is unusable it falls back to
    doubling the last accepted step, capped at the budget.  Each row keeps
    its own iterate, step, backtracking and stop test; only rows still
    running are evaluated.  Each trial point gets one evaluation, value and
    gradient from one factorisation, and an accepted point keeps that
    gradient, so a solve factorises 1 + (number of trial points) times.
    Deterministic: fixed uniform start, no randomness.
    """
    h = np.asarray(h, dtype=complex)
    dw = np.asarray(dw, dtype=float)
    budget = np.asarray(budget, dtype=float)
    n_rows, k_ues = dw.shape
    if (budget < 0).any():
        raise ValueError("budget must be nonnegative")
    p_out = np.zeros((n_rows, k_ues))
    f_out = np.zeros(n_rows)
    it_out = np.zeros(n_rows, dtype=np.int64)
    kkt_out = np.zeros(n_rows)
    conv_out = np.ones(n_rows, dtype=bool)
    rows = np.flatnonzero(budget > 0.0) if k_ues else np.empty(0, dtype=np.intp)
    if rows.size == 0:
        return p_out, f_out, it_out, kkt_out, conv_out

    inv, cap = _invariants(h[rows], dw[rows]), budget[rows]
    eye = np.eye(h.shape[-1])
    eps_act = 1e-9 * cap
    p = np.repeat((cap / k_ues)[:, None], k_ues, axis=1)
    f, g = _value_grad(inv, slice(None), p, sigma2, eye)
    kkt = kkt_residual(p, g, cap, eps_act)
    step = cap.copy()

    def finish(done, iterations, converged):
        """Write the rows flagged in ``done`` back and drop them from the state."""
        nonlocal rows, inv, cap, eps_act, p, f, g, kkt, step
        if not done.any():
            return
        where = rows[done]
        p_out[where], f_out[where], kkt_out[where] = p[done], f[done], kkt[done]
        it_out[where], conv_out[where] = iterations, converged
        keep = ~done
        rows, inv = rows[keep], tuple(a[keep] for a in inv)
        cap, eps_act, p, f, g = cap[keep], eps_act[keep], p[keep], f[keep], g[keep]
        kkt, step = kkt[keep], step[keep]

    finish(kkt <= kkt_tol, 0, True)
    iteration = 0
    for iteration in range(1, max_iter + 1):
        if rows.size == 0:
            break
        t = step.copy()
        cand, f_cand, g_cand = np.empty_like(p), np.empty_like(f), np.empty_like(g)
        accepted = np.zeros(rows.size, dtype=bool)
        # Rows still searching: all of them (a slice, so nothing is copied)
        # for the first trial step, then the indices of the rejected ones.
        search = slice(None)
        for _ in range(_MAX_BACKTRACK):
            trial = project_simplex(p[search] + t[search, None] * g[search], cap[search])
            ascent = np.vecdot(g[search], trial - p[search])
            up = ascent > 0.0
            if not up.all():
                # Rows with no ascent left stop searching without a step.
                search = np.arange(rows.size)[search][up]
                trial, ascent = trial[up], ascent[up]
                if search.size == 0:
                    break
            value, grad = _value_grad(inv, search, trial, sigma2, eye)
            cand[search], f_cand[search], g_cand[search] = trial, value, grad
            ok = value >= f[search] + armijo * ascent
            accepted[search] = ok
            if ok.all():
                break
            search = np.arange(rows.size)[search][~ok]
            t[search] *= shrink
        # No ascent left at any step length: numerically stationary.
        finish(~accepted, iteration, kkt[~accepted] <= kkt_tol)
        if rows.size == 0:
            break
        t, cand, f_cand, g_cand = t[accepted], cand[accepted], f_cand[accepted], g_cand[accepted]
        rel_change = np.abs(f_cand - f) / np.maximum(np.abs(f_cand), 1e-300)
        s = cand - p
        g_prev = g
        p, f, g = cand, f_cand, g_cand
        kkt = kkt_residual(p, g, cap, eps_act)
        curvature = np.vecdot(s, g_prev) - np.vecdot(s, g)
        usable = curvature > 0.0
        spectral = np.vecdot(s, s) / np.where(usable, curvature, 1.0)
        step = np.where(
            usable, np.minimum(np.maximum(spectral, 1e-30), 1e30), np.minimum(2.0 * t, cap)
        )
        done = (rel_change <= tol) & (kkt <= kkt_tol)
        finish(done, iteration, True)
    finish(np.ones(rows.size, dtype=bool), iteration, False)
    return p_out, f_out, it_out, kkt_out, conv_out
