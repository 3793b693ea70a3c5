"""The evaluation's square-root updates and the face Hessian's downdates.

The rotations are checked by backward errors, not against a Cholesky
factor or an LU solve: those may differ from them by up to cond * eps
while all are as accurate as the data allow.  The plane Z = R^{-H} H^T
the rotations carry is what forward substitution on R^H would give, so
it is held to the backward error of forward substitution.  The face
Hessian is checked bit for bit against the block of the full Hessian it
replaces, and the full Hessian against the Gram products of the rotated
plane.
"""

import numpy as np
import pytest

from uavwpt._kernels import _ref

SIGMA2 = 0.001
EPS = np.finfo(float).eps
BUDGETS = np.logspace(-9.0, 6.0, 16)  # mW


def _instances(k, n, rows, seed):
    """Channels, weight decrements and powers summing to the budgets, cycled."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((rows, k, n)) + 1j * rng.standard_normal((rows, k, n))
    h *= 10.0 ** rng.uniform(-4.0, -1.0, size=(rows, k, 1))
    w = np.sort(rng.uniform(0.05, 1.0, (rows, k)), axis=1)[:, ::-1]
    dw = np.append(w[:, :-1] - w[:, 1:], w[:, -1:], axis=1)
    budget = np.resize(BUDGETS, rows)
    p = budget[:, None] * rng.dirichlet(np.ones(k), size=rows)
    return h, dw, p


def _planes(h, p):
    """[R | Z] after each user, as :func:`_ref.evaluate` rotates them in."""
    n = h.shape[1]
    rz = np.concatenate([np.eye(n, dtype=complex), h.T], axis=1)
    for k, power in enumerate(p):
        if power != 0.0:
            _ref._rotate(rz, n, np.sqrt(power / SIGMA2) * h[k].conj())
        yield rz[:, :n], rz[:, n:]


@pytest.mark.parametrize("k", [1, 5, 16])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_forward_substitution_has_a_small_backward_error(k, n):
    # After user k: R is upper triangular with a real positive diagonal,
    # ||R^H R - A_k||_max <= c eps ||A_k||_max, and
    # ||R^H z - h||_inf <= c eps ||R^H||_inf ||z||_inf for every column z of
    # Z and user h_m, with c = 4 (N + k + 1): k + 1 updates of N rotations
    # each (measured: at most 2.4 (k + 1) and 3.6 (k + 1)).  The residuals
    # are formed in long double so their own rounding does not count.
    h, _, p = _instances(k, n, BUDGETS.size, seed=10 * k + n)
    wide = np.clongdouble
    for b in range(BUDGETS.size):
        acc = np.eye(n, dtype=wide)
        for user, (r, z) in enumerate(_planes(h[b], p[b])):
            assert z.shape == (n, k)
            assert np.all(np.tril(r, -1) == 0.0) and np.all(r.diagonal().imag == 0.0)
            assert np.all(r.diagonal().real > 0.0)
            hk = h[b, user].astype(wide)
            acc += (p[b, user] / SIGMA2) * np.outer(hk, hk.conj())
            factor = np.abs(r.conj().T.astype(wide) @ r.astype(wide) - acc).max()
            bound = 4.0 * (n + user + 1) * EPS
            assert factor <= bound * np.abs(acc).max()
            residual = np.abs(r.conj().T.astype(wide) @ z.astype(wide) - h[b].T.astype(wide))
            lhs = residual.max(axis=0).astype(float)
            norm_r = np.abs(r).sum(axis=0).max()  # ||R^H||_inf
            norm_z = np.abs(z).max(axis=0)
            assert np.all(np.isfinite(norm_z)) and np.all(norm_z > 0.0)
            assert np.all(lhs <= bound * norm_r * norm_z)


def _plane_hessian(h, dw, p):
    """-sum_{k >= max(m, n), dw[k] != 0} dw[k] |<z_m, z_n>|^2 / sigma2^2 for every
    (m, n), with z the columns of the rotated plane after user k: the Gram
    products h_m^H A_k^{-1} h_n from the square-root factors, in k order."""
    k_ues = dw.size
    users = np.arange(k_ues)
    hess = np.full((k_ues, k_ues), -0.0)
    for k, (_, z) in enumerate(_planes(h, p)):
        if dw[k] != 0.0:
            on = users <= k
            gram = z.conj().T @ z
            hess += np.where(on[:, None] & on, -dw[k] * np.abs(gram) ** 2 / SIGMA2**2, -0.0)
    return hess


@pytest.mark.parametrize("k", [1, 5, 16])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_face_hessian_is_the_face_block_of_the_full_hessian(k, n):
    h, dw, p = _instances(k, n, BUDGETS.size, seed=20 * k + n)
    dw[1, :-1] = 0.0  # all weights tied
    dw[2, 1::2] = 0.0  # weights tied in pairs
    p[3, ::2] = 0.0  # users without power: their downdates are skipped
    rng = np.random.default_rng(k + n)
    for b in range(len(dw)):
        gram = h[b].conj() @ h[b].T
        full = _ref.face_hessian(gram, dw[b], p[b], SIGMA2, np.ones(k, dtype=bool))
        # The downdates cancel as the signal-to-noise ratio grows.
        snr = p[b].sum() * np.max(np.sum(np.abs(h[b]) ** 2, axis=-1)) / SIGMA2
        want = _plane_hessian(h[b], dw[b], p[b])
        bound = 4.0 * (k + 1) * EPS * (1.0 + snr)  # measured: at most 21 eps (1 + snr)
        assert np.all(np.abs(full - want) <= bound * np.abs(want).max())
        faces = [np.arange(k) == k - 1, rng.random(k) < 0.5, p[b] > 0.0]
        for face in faces:
            hess = _ref.face_hessian(gram, dw[b], p[b], SIGMA2, face)
            on = face[:, None] & face[None, :]
            assert hess[on].tobytes() == full[on].tobytes()
            assert np.all(hess[~on] == 0.0) and np.all(np.signbit(hess[~on]))
