"""Pure-NumPy kernels: the objective, its derivatives and the solver hot path.

:func:`solve_pga_batch` is an active-set projected Newton method; the
objective, gradient, projection and KKT residual are its building blocks,
and uavwpt.rate evaluates the throughput through the same Cholesky factors.
Everything works in *permuted* coordinates on raw arrays: ``h`` is the
(K, N) channel matrix with rows ordered by the encoding permutation and
``dw`` the nonincreasing-weight decrements, so the objective is
sum_k dw[k] * logdet(A_k).

Every kernel also takes a leading batch axis: ``h`` (B, K, N), ``dw`` and
``p`` (B, K), ``budget`` (B,).  Rows never mix, and each row's result is
bitwise the same whatever else is in the batch: the K Cholesky factors of
all rows come from one stacked LAPACK call, the solves against them are a
forward substitution written out in numpy, elementwise in a fixed order,
every sum runs in a fixed order along its own axis, the dot products use
``np.vecdot``, which matches ``@`` bit for bit, and the Hessian's Gram
matrices are one small ``np.matmul`` product per row and k.
:func:`solve_pga` is the batch of one.
"""

import functools

import numpy as np

from ..errors import ConsistencyError

_MAX_BACKTRACK = 60  # 0.5**60 is far below any meaningful step
_EPS = np.finfo(float).eps
_RIDGE = 1e-12  # relative to a face's largest curvature: keeps singular faces solvable


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
    the gradient's solve (B, 1, N, K), the (k, m) mask of the gradient and
    Hessian terms that count (m <= k and dw[k] != 0), and dw itself.
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


def _logdets(chol):
    """logdet(A_k) = 2 sum_i log L_k[i, i] from the factors of :func:`_factors`, (B, K)."""
    return 2.0 * np.add.reduce(np.log(np.diagonal(chol, axis1=-2, axis2=-1).real), axis=-1)


def _weighted_logdets(dw, chol):
    """sum_k dw[k] * logdet(A_k) per row, accumulated in k order."""
    # + 0.0 turns an all-zero -0.0 sum into +0.0, as a sum started at 0.0 gives.
    return np.add.accumulate(dw * _logdets(chol), axis=1)[:, -1] + 0.0


def _value_grad(inv, rows, p, sigma2, eye):
    """Objective, gradient and Hessian at p from one factorisation.

    ``inv`` is _invariants of a batch and ``rows`` (a slice or indices)
    picks the rows p belongs to.  A copy of the picked outer products lives
    only while the factors are built, and the factors only until their
    entries are gathered for the substitution.
    """
    outer, rhs, lower, dw = inv
    chol = _factors(outer[rows], p, sigma2, eye)
    rhs, lower, dw = rhs[rows], lower[rows], dw[rows]
    value = _weighted_logdets(dw, chol)
    pivots, below = _planes(chol)
    del chol
    # sol[j, m, b, k] = (L_k^{-1} h_m)[j] for every (k, m) pair; only m <= k
    # is used.
    sol = _forward_substitute(pivots, below, rhs)
    del pivots, below
    # d logdet(A_k)/d p[m] = h_m^H A_k^{-1} h_m / sigma2 = ||L_k^{-1} h_m||^2 / sigma2,
    # the squares summed in antenna order.
    sq = np.empty(sol.shape[1:])
    quad = np.square(np.abs(sol[0], out=sq))
    for plane in sol[1:]:
        quad += np.square(np.abs(plane, out=sq), out=sq)
    del sq
    quad = quad.transpose(1, 2, 0)  # [b, k, m]
    terms = np.where(lower, dw[:, :, None] * quad / sigma2, 0.0)
    del quad
    grad = np.add.accumulate(terms, axis=1, out=terms)[:, -1] + 0.0
    del terms
    return value, grad, _hessian(sol, dw, sigma2)


def _planes(chol):
    """The entries of the factors (B, K, N, N) that the substitution reads, as contiguous planes.

    Returns (pivots, below): pivots (N, B, 2K) holds each L[j, j] twice,
    once for the real and once for the imaginary part it divides, and
    below[i, j] is L[i, j] of every (b, k), (B, K), for j < i.
    """
    diag = np.diagonal(chol, axis1=-2, axis2=-1).real.transpose(2, 0, 1)
    pivots = np.repeat(diag, 2, axis=-1)
    pairs = [(i, j) for i in range(chol.shape[-1]) for j in range(i)]
    rows, cols = [i for i, _ in pairs], [j for _, j in pairs]
    return pivots, dict(zip(pairs, chol[:, :, rows, cols].transpose(2, 0, 1).copy()))


def _forward_substitute(pivots, below, rhs):
    """L_k^{-1} h_m for every row b, factor k and user m, (N, K, B, K) as [j, m, b, k].

    Column-oriented forward substitution over the N antenna rows, on the
    factors' :func:`_planes` and the right-hand side h^T (B, 1, N, K):
    row j is divided by L[j, j], then L[i, j] times it is taken off every
    later row i in turn.  Every operation is elementwise across rows, in a
    fixed order, so each row's result is bitwise the same whatever else is
    in the batch.  Rows and factors are the innermost axes, so each step is
    one long loop; the only temporary is one (K, B, K) product.
    """
    n_antennas, k_ues = rhs.shape[2:]
    sol = np.empty((n_antennas, k_ues, pivots.shape[1], k_ues), dtype=complex)
    sol[...] = rhs.transpose(2, 3, 0, 1)  # h[b, m, j] for every k
    prod = np.empty(sol.shape[1:], dtype=complex) if below else None
    for j, plane in enumerate(sol):
        np.divide(plane.view(float), pivots[j], out=plane.view(float))
        for i in range(j + 1, n_antennas):
            np.multiply(plane, below[i, j], out=prod)
            np.subtract(sol[i], prod, out=sol[i])
    return sol


def _hessian(sol, dw, sigma2):
    """-sum_{k >= max(m, n)} dw[k] |<L_k^{-1} h_m, L_k^{-1} h_n>|^2 / sigma2^2, (B, K, K).

    ``sol`` is _forward_substitute's (N, K, B, K).  For each k in turn, the
    (k + 1, k + 1) Gram matrices of the users m <= k are one stacked
    ``np.matmul`` over the rows, and their terms are added to every entry
    they reach, so each entry is the sum of its terms in k order and no
    (B, K, K, K) stack exists.
    """
    n_rows, k_ues = dw.shape
    weight = -dw / sigma2 / sigma2
    # -0.0, not 0.0, is the identity of floating-point addition.
    hess = np.full((n_rows, k_ues, k_ues), -0.0)
    for k in range(k_ues):
        cols = np.ascontiguousarray(sol[:, : k + 1, :, k].transpose(2, 0, 1))  # (B, N, k + 1)
        gram = np.matmul(cols.transpose(0, 2, 1).conj(), cols)
        terms = np.square(gram.real)
        terms += np.square(gram.imag)
        terms *= weight[:, k, None, None]
        hess[:, : k + 1, : k + 1] += terms
        del gram, terms  # before the next k's are built
    return hess


def bytes_per_row(k_ues, n_antennas):
    """Peak bytes one :func:`_value_grad` holds per row, with the row's _invariants.

    Counted from the shapes it allocates, 16 bytes per complex and 8 per
    float entry, at the largest of three moments: while the factors are
    built (picked outer products, their sums, the factors), during the
    substitution (its planes, the picked h^T, the solution and its product)
    and at the Hessian's last k (the solution, the Hessian, the k-th users'
    columns and their conjugate, the Gram matrix and its terms).  Python
    objects and the solver's own per-row state are left out.
    """
    c, r, k, n = 16, 8, k_ues, n_antennas
    invariants = k * n * n * c + n * k * c + k * k + k * r
    factors = 3 * k * n * n * c
    substitution = (2 * n + n * (n - 1) // 2) * k * c + (n + 1) * k * k * c
    hessian = n * k * k * c + 2 * n * k * c + k * k * (c + 3 * r)
    return invariants + max(factors, substitution, hessian)


@_batched
def dual_objective(h, dw, p, sigma2):
    """sum_k dw[k] * logdet(I + sum_{n<=k} (p[n]/sigma2) h_n h_n^H)."""
    outer = _invariants(h, dw)[0]
    return _weighted_logdets(dw, _factors(outer, p, sigma2, np.eye(h.shape[-1])))


@_batched
def dual_objective_grad(h, dw, p, sigma2):
    """Objective and its gradient w.r.t. p (both in permuted order)."""
    return _value_grad(_invariants(h, dw), slice(None), p, sigma2, np.eye(h.shape[-1]))[:2]


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
    # theta cancels when v is far above the budget (a 1e-9 budget came back
    # 8e-8 relative over, or short).  Scale the rows onto the budget, less a
    # margin that covers the rounding of the product and of the sum.
    total = np.add.reduce(projected, axis=-1)
    margin = 1.0 - 4.0 * k_ues * _EPS
    scale = np.divide(budget * margin, total, out=np.ones_like(total), where=total > 0.0)
    projected *= scale[..., None]
    return np.where(inside[..., None], clipped, projected)


def kkt_residual(p, grad, budget, eps_act):
    """First-order optimality residual for the budgeted-simplex maximization, row by row.

    With mu = max_m grad_m: the active-coordinate gradient spread
    max_{p_m > eps_act} |grad_m - mu| / mu and the budget slack
    |sum p - budget| / max(budget, eps_act) are combined by max.  Zero at an
    exact optimum when every weight is positive.  Where mu <= 0 it is the
    largest active |grad_m| over max(1, |mu|).
    """
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
    """Projected Newton ascent on one instance: :func:`solve_pga_batch` of one row.

    Returns (p, objective, iterations, kkt_residual, converged).
    """
    return solve_one(solve_pga_batch, h, dw, sigma2, budget, tol, kkt_tol, max_iter, armijo,
                     shrink)


def solve_one(solve_batch, h, dw, sigma2, budget, *settings):
    """One instance through a solve_pga_batch, as Python scalars beside p.

    ``settings`` are (tol, kkt_tol, max_iter, armijo, shrink).  Returns
    (p, objective, iterations, kkt_residual, converged).
    """
    p, f, iterations, kkt, converged = solve_batch(
        np.asarray(h, dtype=complex)[None],
        np.asarray(dw, dtype=float)[None],
        sigma2,
        np.array([budget], dtype=float),
        *settings,
    )
    return p[0], float(f[0]), int(iterations[0]), float(kkt[0]), bool(converged[0])


def _gradient_step(g, cap):
    """The gradient scaled so that its largest entry is the budget, (B, K)."""
    return g * (cap / np.maximum.reduce(np.abs(g), axis=-1))[:, None]


def _newton_step(p, g, hess, cap, eps_act):
    """Each row's search direction and whether it is the Newton one, (B, K) and (B,).

    The free set is {p > eps_act} plus the coordinates at the largest
    gradient; the rest stay put.  On the free face the Newton direction d
    maximises g.d + d.H.d/2 subject to sum(d) = 0: one stacked solve of
    (ridge - H) [x y] = [g 1] and d = x - (sum x / sum y) y, where a ridge
    of _RIDGE times the face's largest curvature keeps singular faces (tied
    or zero weights, N < |F|) solvable.  Its ascent g.d = -d.H.d is positive
    when H is negative definite on the face; where it is not (unsorted
    weights give negative decrements) the direction is _gradient_step.
    """
    n_rows, k_ues = p.shape
    free = (p > eps_act[:, None]) | (g >= np.maximum.reduce(g, axis=-1)[:, None])
    curv = np.where(free[:, :, None] & free[:, None, :], -hess, 0.0)
    diag = curv.reshape(n_rows, -1)[:, :: k_ues + 1]  # a view of each row's diagonal
    scale = np.maximum.reduce(diag, axis=-1)
    diag += np.where(free, np.where(scale > 0.0, _RIDGE * scale, 1.0)[:, None], 1.0)
    rhs = np.empty((n_rows, k_ues, 2))
    rhs[:, :, 0] = np.where(free, g, 0.0)
    rhs[:, :, 1] = free
    sol = np.linalg.solve(curv, rhs)
    x, y = sol[:, :, 0], sol[:, :, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        d = x - (np.add.reduce(x, axis=-1) / np.add.reduce(y, axis=-1))[:, None] * y
    ascent = np.vecdot(g, d)
    newton = ascent > 0.0
    newton &= np.isfinite(ascent)
    return np.where(newton[:, None], d, _gradient_step(g, cap)), newton


def solve_pga_batch(h, dw, sigma2, budget, tol, kkt_tol, max_iter, armijo, shrink):
    """Active-set projected Newton ascent with Armijo backtracking, all rows in lockstep.

    ``h`` is (B, K, N), ``dw`` (B, K) and ``budget`` (B,).  Returns arrays
    (p (B, K), objective, iterations, kkt_residual, converged), one entry
    per row.  Every iterate is feasible and the objective never decreases
    across accepted steps.  Each iteration takes the Newton direction on the
    free face (:func:`_newton_step`, after Bertsekas, SIAM J. Control Optim.
    1982) and backtracks along the projection arc P(p + t d), t = 1, shrink,
    shrink^2, ...  A Newton arc without ascent gives way to the
    projected-gradient arc (:func:`_gradient_step`), unless the row already
    meets the KKT tolerance; a row whose search finds no ascent stops as
    numerically stationary, converged if its KKT residual holds.  Ascent
    below the rounding of f counts as none.  Each row keeps its own
    iterate, backtracking and stop test; only rows still running are
    evaluated.  Each trial point gets one evaluation (value, gradient and
    Hessian from one factorisation), and an accepted point keeps it, so a
    solve factorises 1 + (number of trial points) times.  Deterministic:
    fixed uniform start, no randomness.
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
    f, g, hess = _value_grad(inv, slice(None), p, sigma2, eye)
    kkt = kkt_residual(p, g, cap, eps_act)

    def finish(done, iterations, converged):
        """Write the rows flagged in ``done`` back and drop them from the state."""
        nonlocal rows, inv, cap, eps_act, p, f, g, hess, kkt
        if not done.any():
            return
        where = rows[done]
        p_out[where], f_out[where], kkt_out[where] = p[done], f[done], kkt[done]
        it_out[where], conv_out[where] = iterations, converged
        keep = ~done
        rows, inv = rows[keep], tuple(a[keep] for a in inv)
        cap, eps_act, p, f, g = cap[keep], eps_act[keep], p[keep], f[keep], g[keep]
        hess, kkt = hess[keep], kkt[keep]

    finish(kkt <= kkt_tol, 0, True)
    iteration = 0
    for iteration in range(1, max_iter + 1):
        if rows.size == 0:
            break
        step, newton = _newton_step(p, g, hess, cap, eps_act)
        t = np.ones(rows.size)
        cand, f_cand, g_cand = np.empty_like(p), np.empty_like(f), np.empty_like(g)
        h_cand = np.empty_like(hess)
        accepted = np.zeros(rows.size, dtype=bool)
        # Rows still searching: all of them (a slice, so nothing is copied)
        # for the first trial point, then the indices of the others.
        search = slice(None)
        for _ in range(_MAX_BACKTRACK):
            index = np.arange(rows.size)[search]
            trial = project_simplex(p[search] + t[search, None] * step[search], cap[search])
            ascent = np.vecdot(g[search], trial - p[search])
            # Ascent below the rounding of f cannot be told from none.
            up = ascent > _EPS * np.abs(f[search])
            turn = index[~up & newton[index]]
            if not up.all():
                search, trial, ascent = index[up], trial[up], ascent[up]
                # A Newton arc without ascent turns to the gradient arc from
                # t = 1, unless the row meets the KKT tolerance: then it is
                # numerically stationary, as is a row whose gradient arc has
                # no ascent.
                turn = turn[kkt[turn] > kkt_tol]
                newton[turn], t[turn] = False, 1.0
                step[turn] = _gradient_step(g[turn], cap[turn])
            retry = turn
            if trial.shape[0]:
                value, grad, curv = _value_grad(inv, search, trial, sigma2, eye)
                cand[search], f_cand[search], g_cand[search] = trial, value, grad
                h_cand[search] = curv
                ok = value >= f[search] + armijo * ascent
                accepted[search] = ok
                rejected = index[up][~ok]
                t[rejected] *= shrink
                retry = np.sort(np.concatenate((rejected, turn)))
            if retry.size == 0:
                break
            search = retry
        # Rows that accepted no trial point are numerically stationary.
        finish(~accepted, iteration, kkt[~accepted] <= kkt_tol)
        if rows.size == 0:
            break
        cand, f_cand, g_cand, h_cand = (a[accepted] for a in (cand, f_cand, g_cand, h_cand))
        rel_change = np.abs(f_cand - f) / np.maximum(np.abs(f_cand), 1e-300)
        p, f, g, hess = cand, f_cand, g_cand, h_cand
        kkt = kkt_residual(p, g, cap, eps_act)
        finish((rel_change <= tol) & (kkt <= kkt_tol), iteration, True)
    finish(np.ones(rows.size, dtype=bool), iteration, False)
    return p_out, f_out, it_out, kkt_out, conv_out
