"""Pure-NumPy kernels: the objective, its derivatives and the solver, one row at a time.

:func:`solve_pga` is an active-set projected Newton method; the objective
and its gradient (:func:`evaluate`), the Hessian on the free face
(:func:`face_hessian`, built from the products L_k^{-1} h_m that an
evaluation leaves, only where a Newton step reads it), the projection and
the KKT residual are its building blocks, and uavwpt.rate evaluates the
throughput through the same Cholesky factors (:func:`factors`,
:func:`logdets`).
Everything works in *permuted* coordinates on raw arrays of one instance:
``h`` is the (K, N) channel matrix with rows ordered by the encoding
permutation and ``dw`` the nonincreasing-weight decrements, so the
objective is sum_k dw[k] * logdet(A_k).  :func:`solve_pga_batch` solves
(B, K, N) rows with one :func:`solve_pga` call each, so no row depends on
another.  kernel.c is the C port of this module, function for function.
"""

import numpy as np

from ..errors import ConsistencyError

_MAX_BACKTRACK = 60  # 0.5**60 is far below any meaningful step
_EPS = np.finfo(float).eps
_RIDGE = 1e-12  # relative to a face's largest curvature: keeps singular faces solvable


def factors(h, p, sigma2):
    """Cholesky factors L_k of A_k = I + sum_{n<=k} (p[n]/sigma2) h_n h_n^H, (K, N, N).

    The identity goes into the first term, then the terms are summed in k
    order.
    """
    h = np.asarray(h, dtype=complex)
    scale = np.asarray(p, dtype=float) / sigma2
    acc = scale[:, None, None] * (h[:, :, None] * h.conj()[:, None, :])
    acc[0] += np.eye(h.shape[-1])
    try:
        return np.linalg.cholesky(np.add.accumulate(acc, out=acc))
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError(
            "accumulated interference matrix is not positive definite"
        ) from exc


def logdets(chol):
    """logdet(A_k) = 2 sum_i log L_k[i, i] from the factors of :func:`factors`, (K,).

    np.add.reduce sums the N logs in index order only for N <= 7; from N = 8
    on it sums pairwise, in eight accumulators, where kernel.c adds in index
    order, so the two round differently there.
    """
    return 2.0 * np.add.reduce(np.log(np.diagonal(chol, axis1=-2, axis2=-1).real), axis=-1)


def _objective(dw, chol):
    """sum_k dw[k] * logdet(A_k), accumulated in k order."""
    # + 0.0 turns an all-zero -0.0 sum into +0.0, as a sum started at 0.0 gives.
    return float(np.add.accumulate(dw * logdets(chol))[-1] + 0.0)


def _substitute(chol, h):
    """z[k, j, m] = (L_k^{-1} h_m)[j] for every factor k and user m, (K, N, K).

    Column-oriented forward substitution, as kernel.c does it: row j is
    divided by L[j, j], then L[i, j] times it is taken off every later row
    i, one antenna at a time for all (k, m) together.
    """
    z = np.repeat(h.T[None], chol.shape[0], axis=0)
    pivots = np.diagonal(chol, axis1=-2, axis2=-1).real
    for j in range(h.shape[-1]):
        row = z[:, j].view(float)  # real and imaginary parts, each divided by the real pivot
        row /= pivots[:, j, None]
        z[:, j + 1 :] -= chol[:, j + 1 :, j, None] * z[:, j, None]
    return z


def evaluate(h, dw, p, sigma2):
    """Objective, gradient and the products z from one factorisation.

    z[k, j, m] = (L_k^{-1} h_m)[j] (:func:`_substitute`) is what
    :func:`face_hessian` reads when a Newton step is taken from p.  With the
    sums over k >= m with dw[k] != 0, in k order:

        grad[m] = sum_k dw[k] ||z_km||^2 / sigma2.
    """
    h = np.asarray(h, dtype=complex)
    dw = np.asarray(dw, dtype=float)
    chol = factors(h, p, sigma2)
    z = _substitute(chol, h)
    # quad[k, m] = ||z_km||^2, summed over j in order.
    quad = np.add.accumulate(np.square(z.real) + np.square(z.imag), axis=1)[:, -1]
    grad = np.add.reduce(np.where(_counts(dw), dw[:, None] * quad / sigma2, 0.0), axis=0)
    return _objective(dw, chol), grad, z


def _counts(dw):
    """[k, m]: user m's terms of factor k count (m <= k and dw[k] != 0)."""
    users = np.arange(dw.size)
    return (users <= users[:, None]) & (dw != 0.0)[:, None]


def face_hessian(z, dw, sigma2, face):
    """The Hessian on the face from :func:`evaluate`'s z, (K, K).

    For users m, n both in the boolean mask ``face``, with the sum over
    k >= max(m, n) with dw[k] != 0, in k order:

        hess[m, n] = -sum_k dw[k] |<z_km, z_kn>|^2 / sigma2^2.

    The entries off the face are -0.0.  The inner products come from one
    Gram product over all users, so an entry does not depend on the rest
    of the face.
    """
    gram = np.matmul(z.conj().transpose(0, 2, 1), z)  # [k, m, n] = <z_km, z_kn>
    counts = _counts(dw) & face
    weight = (-dw / sigma2 / sigma2)[:, None, None]
    # -0.0, not 0.0, is the identity of floating-point addition.
    terms = np.where(
        counts[:, :, None] & counts[:, None, :],
        (np.square(gram.real) + np.square(gram.imag)) * weight,
        -0.0,
    )
    return np.add.reduce(terms, axis=0, initial=-0.0)


def dual_objective(h, dw, p, sigma2):
    """sum_k dw[k] * logdet(I + sum_{n<=k} (p[n]/sigma2) h_n h_n^H)."""
    return _objective(np.asarray(dw, dtype=float), factors(h, p, sigma2))


def dual_objective_grad(h, dw, p, sigma2):
    """Objective and its gradient w.r.t. p (both in permuted order)."""
    return evaluate(h, dw, p, sigma2)[:2]


def project_simplex(v, budget):
    """Euclidean projection of v onto {p >= 0, sum p <= budget}.

    Inside the budget it is plain clipping; otherwise the classic
    sort-and-threshold projection onto {p >= 0, sum p = budget}.
    """
    v = np.asarray(v, dtype=float)
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    clipped = np.maximum(v, 0.0)
    if clipped.sum() <= budget:
        return clipped
    if budget == 0.0:
        return np.zeros_like(v)
    k_ues = v.size
    u = np.sort(v)[::-1]
    cumulative = np.add.accumulate(u)
    support = u - (cumulative - budget) / np.arange(1, k_ues + 1) > 0.0
    rho = k_ues - 1 - np.argmax(support[::-1])
    theta = (cumulative[rho] - budget) / (rho + 1.0)
    projected = np.maximum(v - theta, 0.0)
    # theta cancels when v is far above the budget (a 1e-9 budget came back
    # 8e-8 relative over, or short).  Scale onto the budget, less a margin
    # that covers the rounding of the product and of the sum.
    total = projected.sum()
    if total > 0.0:
        projected *= budget * (1.0 - 4.0 * k_ues * _EPS) / total
    return projected


def kkt_residual(p, grad, budget, eps_act):
    """First-order optimality residual for the budgeted-simplex maximization.

    With mu = max_m grad_m: the active-coordinate gradient spread
    max_{p_m > eps_act} |grad_m - mu| / mu and the budget slack
    |sum p - budget| / max(budget, eps_act) are combined by max.  Zero at an
    exact optimum when every weight is positive.  Where mu <= 0 it is the
    largest active |grad_m| over max(1, |mu|).
    """
    p = np.asarray(p, dtype=float)
    grad = np.asarray(grad, dtype=float)
    mu = grad.max()
    active = p > eps_act
    if not mu > 0.0:
        return float(np.where(active, np.abs(grad), 0.0).max() / np.fmax(1.0, abs(mu)))
    r_grad = np.where(active, np.abs(grad - mu), 0.0).max() / mu
    r_budget = abs(p.sum() - budget) / max(budget, eps_act)
    return float(r_budget if r_budget > r_grad else r_grad)


def _gradient_step(g, cap):
    """The gradient scaled so that its largest entry is the budget."""
    return g * (cap / np.abs(g).max())


def _newton_step(p, g, z, dw, sigma2, cap, eps_act):
    """The search direction and whether it is the Newton one.

    The free set is {p > eps_act} plus the coordinates at the largest
    gradient; the rest stay put.  The Hessian H on the free face is built
    from the z that :func:`evaluate` gave at p (:func:`face_hessian`).  On
    the free face the Newton direction d maximises g.d + d.H.d/2 subject to
    sum(d) = 0: one solve of (ridge - H) [x y] = [g 1] and
    d = x - (sum x / sum y) y, where a ridge of _RIDGE times the face's
    largest curvature keeps singular faces (tied or zero weights, N < |F|)
    solvable.  Its ascent g.d = -d.H.d is positive when H is negative
    definite on the face; where it is not (unsorted weights give negative
    decrements) the direction is _gradient_step.
    """
    free = (p > eps_act) | (g >= g.max())
    curv = -face_hessian(z, dw, sigma2, free)  # 0.0 off the face
    scale = np.diagonal(curv).max()
    curv.flat[:: g.size + 1] += np.where(free, _RIDGE * scale if scale > 0.0 else 1.0, 1.0)
    x, y = np.linalg.solve(curv, np.stack([np.where(free, g, 0.0), free], axis=1)).T
    with np.errstate(divide="ignore", invalid="ignore"):
        d = x - (x.sum() / y.sum()) * y
    ascent = g @ d
    if ascent > 0.0 and np.isfinite(ascent):
        return d, True
    return _gradient_step(g, cap), False


def solve_pga(h, dw, sigma2, budget, tol, kkt_tol, max_iter, armijo, shrink):
    """Active-set projected Newton ascent with Armijo backtracking on one instance.

    Returns (p, objective, iterations, kkt_residual, converged), the last
    four as Python scalars.  Every iterate is feasible and the objective
    never decreases across accepted steps.  Each iteration takes the Newton
    direction on the free face (:func:`_newton_step`, after Bertsekas, SIAM
    J. Control Optim. 1982) and backtracks along the projection arc
    P(p + t d), t = 1, shrink, shrink^2, ...  A Newton arc without ascent
    gives way to the projected-gradient arc (:func:`_gradient_step`), unless
    the KKT tolerance already holds; a search that finds no ascent stops
    as numerically stationary, converged if its KKT residual holds.  Ascent
    below the rounding of f counts as none.  Each trial point gets one
    :func:`evaluate` (value, gradient and the products z from one
    factorisation), and an accepted point keeps it, so a solve factorises
    1 + (number of trial points) times.  The face Hessian is built from z
    once per iteration, at the point the step starts from: never at a
    rejected trial point or at the point returned.  Deterministic: fixed
    uniform start, no randomness.
    """
    dw = np.asarray(dw, dtype=float)
    budget = float(budget)
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    k_ues = dw.size
    if k_ues == 0 or not budget > 0.0:
        return np.zeros(k_ues), 0.0, 0, 0.0, True
    eps_act = 1e-9 * budget
    p = np.full(k_ues, budget / k_ues)
    f, g, z = evaluate(h, dw, p, sigma2)
    kkt = kkt_residual(p, g, budget, eps_act)
    if kkt <= kkt_tol:
        return p, f, 0, kkt, True
    for iteration in range(1, max_iter + 1):
        step, newton = _newton_step(p, g, z, dw, sigma2, budget, eps_act)
        t, accepted = 1.0, False
        for _ in range(_MAX_BACKTRACK):
            trial = project_simplex(p + t * step, budget)
            ascent = g @ (trial - p)
            # Ascent below the rounding of f cannot be told from none.
            if not ascent > _EPS * abs(f):
                # A Newton arc without ascent turns to the gradient arc from
                # t = 1, unless the KKT tolerance holds: then the point is
                # numerically stationary, as is one whose gradient arc has
                # no ascent.
                if not (newton and kkt > kkt_tol):
                    break
                newton, t, step = False, 1.0, _gradient_step(g, budget)
                continue
            f_trial, g_trial, z_trial = evaluate(h, dw, trial, sigma2)
            if f_trial >= f + armijo * ascent:
                accepted = True
                break
            t *= shrink
        if not accepted:  # numerically stationary
            return p, f, iteration, kkt, bool(kkt <= kkt_tol)
        rel_change = abs(f_trial - f) / max(abs(f_trial), 1e-300)
        p, f, g, z = trial, f_trial, g_trial, z_trial
        kkt = kkt_residual(p, g, budget, eps_act)
        if rel_change <= tol and kkt <= kkt_tol:
            return p, f, iteration, kkt, True
    return p, f, max(max_iter, 0), kkt, False


def solve_pga_batch(h, dw, sigma2, budget, tol, kkt_tol, max_iter, armijo, shrink):
    """:func:`solve_pga` on each row of ``h`` (B, K, N), ``dw`` (B, K) and ``budget`` (B,).

    Returns arrays (p (B, K), objective, iterations, kkt_residual,
    converged), one entry per row.
    """
    h = np.asarray(h, dtype=complex)
    dw = np.asarray(dw, dtype=float)
    budget = np.asarray(budget, dtype=float)
    n_rows, k_ues = dw.shape
    p = np.zeros((n_rows, k_ues))
    objective, kkt = np.zeros(n_rows), np.zeros(n_rows)
    iterations, converged = np.zeros(n_rows, dtype=np.int64), np.ones(n_rows, dtype=bool)
    for b in range(n_rows):
        p[b], objective[b], iterations[b], kkt[b], converged[b] = solve_pga(
            h[b], dw[b], sigma2, budget[b], tol, kkt_tol, max_iter, armijo, shrink
        )
    return p, objective, iterations, kkt, converged
