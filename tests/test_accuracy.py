"""The objective and its gradient against 60-digit arithmetic, budgets 1e-9 to 1e10 mW.

The reference forms A_k = I + sum_{n<=k} (p[n]/sigma2) h_n h_n^H in mpmath
at 60 digits, from the float64 inputs taken as exact, and reads
logdet(A_k) and h_m^H A_k^{-1} h_m from it.  The evaluation never forms
A_k, so its value and gradient are accurate to a few ulps at every budget:
tiny budgets, where logdet(A_k) is near 0, and high ones, where A_k is
ill-conditioned, alike.  ``_ref`` is checked for both.  The C kernel
exposes only its solve, so it is checked at the uniform start of a solve
that takes no step: the objective it returns, and its KKT residual, the
largest gap between a gradient entry and the largest one, relative to the
largest one.
"""

import shutil

import mpmath
import numpy as np
import pytest

from uavwpt._kernels import _c, _ref

SIGMA2 = 0.001
EPS = np.finfo(float).eps
BUDGETS = [1e-9, 1e-3, 1.0, 1e4, 1e10]  # mW
SHAPES = [(5, 3), (16, 8)]
needs_cc = pytest.mark.skipif(
    shutil.which(_c.compiler_command()[0]) is None, reason="no C compiler to build kernel.c"
)


def _instance(k, n, budget, seed):
    """Channels with gains 1e-8 to 1e-2, distinct sorted weights, uniform powers."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    h *= 10.0 ** rng.uniform(-4.0, -1.0, size=(k, 1))
    w = np.sort(rng.uniform(0.05, 1.0, k))[::-1]
    dw = np.append(w[:-1] - w[1:], w[-1])
    return h, dw, np.full(k, budget / k)


def _exact(h, dw, p):
    """(objective, gradient) at 60 digits, as mpf."""
    with mpmath.workdps(60):
        k_ues, n = h.shape
        hs = [mpmath.matrix([mpmath.mpc(complex(x)) for x in row]) for row in h]
        acc = mpmath.eye(n)
        value, grad = mpmath.mpf(0), [mpmath.mpf(0)] * k_ues
        for k in range(k_ues):
            acc += (mpmath.mpf(p[k]) / mpmath.mpf(SIGMA2)) * (hs[k] * hs[k].H)
            value += mpmath.mpf(dw[k]) * mpmath.log(mpmath.re(mpmath.det(acc)))
            inverse = mpmath.inverse(acc)
            for m in range(k + 1):
                quad = mpmath.re((hs[m].H * inverse * hs[m])[0])
                grad[m] += mpmath.mpf(dw[k]) * quad / mpmath.mpf(SIGMA2)
        return value, grad


def _relative(got, want):
    with mpmath.workdps(60):
        return float(abs(mpmath.mpf(got) - want) / abs(want))


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("k,n", SHAPES)
def test_ref_value_and_gradient_are_accurate(k, n, budget):
    # Relative errors within 4 K eps; measured at most 2.7 eps (value) and
    # 29 eps (gradient, K=16 at 1e10 mW).
    h, dw, p = _instance(k, n, budget, seed=100 * k + n)
    value, grad = _exact(h, dw, p)
    f, g = _ref.dual_objective_grad(h, dw, p, SIGMA2)
    assert _relative(f, value) <= 4.0 * k * EPS
    assert max(_relative(g[m], grad[m]) for m in range(k)) <= 4.0 * k * EPS


@needs_cc
@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("k,n", SHAPES)
def test_c_value_and_gradient_are_accurate(k, n, budget):
    h, dw, p = _instance(k, n, budget, seed=100 * k + n)
    value, grad = _exact(h, dw, p)
    _, f, iterations, kkt, _ = _c.load().solve_pga_batch(
        h[None], dw[None], SIGMA2, np.array([budget]), 1e-8, 0.0, 0, 1e-4, 0.5
    )
    assert iterations[0] == 0
    assert _relative(f[0], value) <= 4.0 * k * EPS
    with mpmath.workdps(60):
        top = max(grad)
        spread = float(max(abs(gm - top) for gm in grad) / top)
    # The budget slack of the uniform start is a few ulps, and each gradient
    # entry is within 4 K eps of its exact value (measured: the value within
    # 2.7 eps, the residual within 0.5 eps).
    assert abs(kkt[0] - spread) <= 8.0 * k * EPS
