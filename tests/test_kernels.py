"""The evaluation's forward substitution and its working-set estimate.

The substitution is checked by its backward error, not against an LU
solve: LU pivots, so the two answers may differ by up to cond(L) * eps
while both are as accurate as the data allow.
"""

import tracemalloc

import numpy as np
import pytest

from uavwpt._kernels import _ref, bytes_per_row

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
    h, dw, p = _instances(k, n, BUDGETS.size, seed=10 * k + n)
    outer, rhs, _, _ = _ref._invariants(h, dw)
    chol = _ref._factors(outer, p, SIGMA2, np.eye(n))
    sol = _ref._forward_substitute(*_ref._planes(chol), rhs)
    assert sol.shape == (n, k, BUDGETS.size, k)
    x = np.moveaxis(sol, (0, 1), (2, 3))  # [b, k, j, m]
    wide = np.clongdouble
    residual = np.abs(np.matmul(chol.astype(wide), x.astype(wide)) - rhs.astype(wide))
    lhs = residual.max(axis=-2).astype(float)
    norm_l = np.abs(chol).sum(axis=-1).max(axis=-1)
    norm_x = np.abs(x).max(axis=-2)
    assert np.all(np.isfinite(norm_x)) and np.all(norm_x > 0.0)
    assert np.all(lhs <= 2.0 * n * EPS * norm_l[..., None] * norm_x)


@pytest.mark.parametrize("k", [1, 5, 16])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_bytes_per_row_is_within_a_quarter_of_the_traced_peak(k, n):
    # What one line-search evaluation allocates per row, its rows' invariants
    # included, over a batch of about 1 MB, which hides the fixed cost of
    # the Python objects.
    rows = -(-(1 << 20) // bytes_per_row(k, n))
    h, dw, p = _instances(k, n, rows, seed=k + n)
    picked = np.arange(rows)
    eye = np.eye(n)
    tracemalloc.start()
    try:
        inv = _ref._invariants(h[picked], dw[picked])
        _ref._value_grad(inv, picked, p, SIGMA2, eye)
        peak = tracemalloc.get_traced_memory()[1] / rows
    finally:
        tracemalloc.stop()
    assert 0.8 <= bytes_per_row(k, n) / peak <= 1.25
