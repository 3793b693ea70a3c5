"""Pure-NumPy kernels: the objective, its derivatives and the solver, one row at a time.

:func:`solve_pga` is an active-set projected Newton method.  Its building
blocks are the evaluation (:func:`evaluate`: the log-det increments and
the gradient from square-root factors updated one user at a time), the
Hessian on the free face (:func:`face_hessian`, from rank-one downdates of
the channels' Gram matrix, built only where a Newton step reads it), the
projection and the KKT residual.  uavwpt.rate evaluates the throughput
through the same increments.
Everything works in *permuted* coordinates on raw arrays of one instance:
``h`` is the (K, N) channel matrix with rows ordered by the encoding
permutation and ``dw`` the nonincreasing-weight decrements, so the
objective is sum_k dw[k] * logdet(A_k) with
A_k = I + sum_{n<=k} (p[n]/sigma2) h_n h_n^H.  :func:`solve_pga_batch`
solves (B, K, N) rows with one :func:`solve_pga` call each, so no row
depends on another.  kernel.c is the C port of this module, function for
function.
"""

import math

import numpy as np

from ..errors import ConsistencyError

_MAX_BACKTRACK = 60  # 0.5**60 is far below any meaningful step
_EPS = np.finfo(float).eps
_RIDGE = 1e-12  # relative to a face's largest curvature: keeps singular faces solvable


def _rotate(rz, n, row):
    """Rotate ``row`` (N,) into R = ``rz[:, :n]`` by N Givens rotations, in place.

    R is upper triangular with a real positive diagonal.  Rotation j acts
    on row j of ``rz`` and on ``row`` padded with zeros under the columns
    of ``rz`` past n: it sets R[j, j] to the norm of (R[j, j], row[j]) and
    row[j] to zero.  Afterwards R' with R'^H R' = R^H R + row^H row is in
    place, and each column of ``rz`` past n that held R^{-H} x holds
    R'^{-H} x: the rotations applied to [R^{-H} x; 0] (Golub and Van Loan,
    Matrix Computations, section 6.5).
    """
    ext = np.zeros(rz.shape[1], dtype=complex)
    ext[:n] = row
    for j in range(n):
        d, a = rz[j, j].real, complex(ext[j])
        rho = math.sqrt(d * d + (a.real * a.real + a.imag * a.imag))
        inv = 1.0 / rho
        c, sn = d * inv, complex(a.real * inv, a.imag * inv)
        rz[j, j] = rho
        x, y = rz[j, j + 1 :], ext[j + 1 :]
        x[:], y[:] = c * x + sn.conjugate() * y, c * y - sn * x


def evaluate(h, dw, p, sigma2):
    """The log-det increments and the gradient at p, from one pass over the users.

    ``rz`` holds [R | Z]: R starts at I and Z at H^T, and user k is rotated
    in by :func:`_rotate` of sqrt(p[k]/sigma2) h_k^H, skipped where
    p[k] = 0, so that R^H R = A_k and Z = R^{-H} H^T after user k; A_k is
    never formed.  Before user k, column k of Z is R_{k-1}^{-H} h_k, so by
    the matrix determinant lemma

        logdet(A_k) - logdet(A_{k-1}) = log1p((p[k]/sigma2) ||Z[:, k]||^2),

    and after it, with the sums over k >= m with dw[k] != 0, in k order,

        grad[m] = sum_k dw[k] ||Z[:, m]||^2 / sigma2.

    Returns (increments (K,), grad (K,)); dw = 0 gives the increments and a
    zero gradient.
    """
    h = np.asarray(h, dtype=complex)
    dw = np.asarray(dw, dtype=float)
    p = np.asarray(p, dtype=float)
    k_ues, n = h.shape
    rz = np.concatenate([np.eye(n, dtype=complex), h.T], axis=1)
    plane = rz[:, n:]
    increments, grad = np.zeros(k_ues), np.zeros(k_ues)
    # A negative sigma2 (some A_k indefinite) gives NaN, as in C, not an error.
    with np.errstate(invalid="ignore"):
        for k in range(k_ues):
            s = p[k] / sigma2
            z = plane[:, k]
            quad = np.add.accumulate(np.square(z.real) + np.square(z.imag))[-1]
            increments[k] = np.log1p(s * quad)
            if s != 0.0:
                _rotate(rz, n, np.sqrt(s) * h[k].conj())
            if dw[k] != 0.0:
                z = plane[:, : k + 1]
                quad = np.add.accumulate(np.square(z.real) + np.square(z.imag), axis=0)[-1]
                grad[: k + 1] += dw[k] * quad / sigma2
    return increments, grad


def _objective(dw, increments):
    """sum_k dw[k] * logdet(A_k), with logdet(A_k) the running sum of the increments."""
    # + 0.0 turns an all-zero -0.0 sum into +0.0, as a sum started at 0.0 gives.
    return float(np.add.accumulate(dw * np.add.accumulate(increments))[-1] + 0.0)


def face_hessian(gram, dw, p, sigma2, face):
    """The Hessian at p on the face, (K, K), from the Gram matrix gram = H^H H.

    G^(k)[m, n] = h_m^H A_k^{-1} h_n comes from G^(-1) = gram by one
    rank-one downdate per user (Sherman and Morrison), skipped where
    p[k] = 0:

        G^(k) = G^(k-1) - s_k g g^H / (1 + s_k G^(k-1)[k, k]),
        g = G^(k-1)[:, k],  s_k = p[k] / sigma2,

    on the upper triangle only; g's entries below it are conjugates of
    entries in it.  For users m, n both in the boolean mask ``face``, with
    the sum over k >= max(m, n) with dw[k] != 0, in k order:

        hess[m, n] = -sum_k dw[k] |G^(k)[m, n]|^2 / sigma2^2.

    The entries off the face are -0.0.  No entry on the face depends on
    the rest of the face.
    """
    k_ues = dw.size
    users = np.arange(k_ues)
    upper = users[:, None] <= users
    g = np.array(gram, dtype=complex)
    # -0.0, not 0.0, is the identity of floating-point addition.
    hess = np.full((k_ues, k_ues), -0.0)
    for k in range(k_ues):
        s = p[k] / sigma2
        if s != 0.0:
            col = np.where(users <= k, g[:, k], g[k].conj())
            beta = s / (1.0 + s * g[k, k].real)
            g -= np.where(upper, np.multiply.outer(beta * col, col.conj()), 0.0)
        if dw[k] != 0.0:
            on = face & (users <= k)
            terms = np.where(
                upper & on[:, None] & on,
                (np.square(g.real) + np.square(g.imag)) * (-dw[k] / sigma2 / sigma2),
                -0.0,
            )
            hess += np.where(upper, terms, terms.T)
    return hess


def dual_objective_grad(h, dw, p, sigma2):
    """Objective and its gradient w.r.t. p (both in permuted order).

    Raises ConsistencyError when the objective is not finite: NaN or
    infinite input, or an A_k that is not positive definite.
    """
    dw = np.asarray(dw, dtype=float)
    increments, grad = evaluate(h, dw, p, sigma2)
    f = _objective(dw, increments)
    if not math.isfinite(f):
        raise ConsistencyError(
            "objective is not finite: non-finite input, or an A_k not positive definite"
        )
    return f, grad


def dual_objective(h, dw, p, sigma2):
    """sum_k dw[k] * logdet(I + sum_{n<=k} (p[n]/sigma2) h_n h_n^H)."""
    return dual_objective_grad(h, dw, p, sigma2)[0]


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


def _newton_step(p, g, gram, dw, sigma2, cap, eps_act):
    """The search direction and whether it is the Newton one.

    The free set is {p > eps_act} plus the coordinates at the largest
    gradient; the rest stay put.  The Hessian H on the free face is built
    at p from the row's Gram matrix (:func:`face_hessian`).  On
    the free face the Newton direction d maximises g.d + d.H.d/2 subject to
    sum(d) = 0: one solve of (ridge - H) [x y] = [g 1] and
    d = x - (sum x / sum y) y, where a ridge of _RIDGE times the face's
    largest curvature keeps singular faces (tied or zero weights, N < |F|)
    solvable.  Its ascent g.d = -d.H.d is positive when H is negative
    definite on the face; where it is not (unsorted weights give negative
    decrements) the direction is _gradient_step.
    """
    free = (p > eps_act) | (g >= g.max())
    curv = -face_hessian(gram, dw, p, sigma2, free)  # 0.0 off the face
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
    :func:`dual_objective_grad` (value and gradient from one pass of
    square-root updates), and an accepted point keeps it, so a solve
    evaluates 1 + (number of trial points) times.  The face Hessian is
    built once per iteration, at the point the step starts from, from the
    Gram matrix of the channels formed once per solve: never at a rejected
    trial point or at the point returned.  Deterministic: fixed uniform
    start, no randomness.
    """
    dw = np.asarray(dw, dtype=float)
    budget = float(budget)
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    k_ues = dw.size
    if k_ues == 0 or not budget > 0.0:
        return np.zeros(k_ues), 0.0, 0, 0.0, True
    eps_act = 1e-9 * budget
    h = np.asarray(h, dtype=complex)
    p = np.full(k_ues, budget / k_ues)
    f, g = dual_objective_grad(h, dw, p, sigma2)
    gram = h.conj() @ h.T  # [m, n] = h_m^H h_n
    kkt = kkt_residual(p, g, budget, eps_act)
    if kkt <= kkt_tol:
        return p, f, 0, kkt, True
    for iteration in range(1, max_iter + 1):
        step, newton = _newton_step(p, g, gram, dw, sigma2, budget, eps_act)
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
            f_trial, g_trial = dual_objective_grad(h, dw, trial, sigma2)
            if f_trial >= f + armijo * ascent:
                accepted = True
                break
            t *= shrink
        if not accepted:  # numerically stationary
            return p, f, iteration, kkt, bool(kkt <= kkt_tol)
        rel_change = abs(f_trial - f) / max(abs(f_trial), 1e-300)
        p, f, g = trial, f_trial, g_trial
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
