"""The evaluation's forward substitution and the face Hessian built from it.

The substitution is checked by its backward error, not against an LU
solve: LU pivots, so the two answers may differ by up to cond(L) * eps
while both are as accurate as the data allow.  The face Hessian is
checked bit for bit against the block of the full Hessian it replaces.
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


@pytest.mark.parametrize("k", [1, 5, 16])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_forward_substitution_has_a_small_backward_error(k, n):
    # ||L x - h||_inf <= c N eps ||L||_inf ||x||_inf for every factor L_k and
    # user h_m, with c = 2; the residual is formed in long double so its own
    # rounding does not count.
    h, _, p = _instances(k, n, BUDGETS.size, seed=10 * k + n)
    wide = np.clongdouble
    for b in range(BUDGETS.size):
        chol = _ref.factors(h[b], p[b], SIGMA2)
        x = _ref._substitute(chol, h[b])  # [k, j, m]
        assert x.shape == (k, n, k)
        residual = np.abs(np.matmul(chol.astype(wide), x.astype(wide)) - h[b].T.astype(wide))
        lhs = residual.max(axis=-2).astype(float)
        norm_l = np.abs(chol).sum(axis=-1).max(axis=-1)
        norm_x = np.abs(x).max(axis=-2)
        assert np.all(np.isfinite(norm_x)) and np.all(norm_x > 0.0)
        assert np.all(lhs <= 2.0 * n * EPS * norm_l[:, None] * norm_x)


def _full_hessian(z, dw, sigma2):
    """-sum_{k >= max(m, n), dw[k] != 0} dw[k] |<z_km, z_kn>|^2 / sigma2^2 for every
    (m, n), in k order from -0.0, as each evaluation built it for all users
    before the Hessian came to be built on the face."""
    gram = np.matmul(z.conj().transpose(0, 2, 1), z)
    counts = np.tril(np.ones((dw.size, dw.size), dtype=bool)) & (dw != 0.0)[:, None]
    weight = (-dw / sigma2 / sigma2)[:, None, None]
    terms = np.where(
        counts[:, :, None] & counts[:, None, :],
        (np.square(gram.real) + np.square(gram.imag)) * weight,
        -0.0,
    )
    return np.add.reduce(terms, axis=0, initial=-0.0)


@pytest.mark.parametrize("k", [1, 5, 16])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_face_hessian_is_the_face_block_of_the_full_hessian(k, n):
    h, dw, p = _instances(k, n, 4, seed=20 * k + n)
    dw[1, :-1] = 0.0  # all weights tied
    dw[2, 1::2] = 0.0  # weights tied in pairs
    rng = np.random.default_rng(k + n)
    for b in range(len(dw)):
        _, _, z = _ref.evaluate(h[b], dw[b], p[b], SIGMA2)
        full = _full_hessian(z, dw[b], SIGMA2)
        faces = [np.ones(k, dtype=bool), np.arange(k) == k - 1, rng.random(k) < 0.5]
        for face in faces:
            hess = _ref.face_hessian(z, dw[b], SIGMA2, face)
            on = face[:, None] & face[None, :]
            assert hess[on].tobytes() == full[on].tobytes()
            assert np.all(hess[~on] == 0.0) and np.all(np.signbit(hess[~on]))
