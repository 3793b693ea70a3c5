"""Solver kernel backends.

The compiled extension (uavwpt._kernels._fast) is preferred when it built;
otherwise the pure-NumPy reference (_ref) is used.  Both expose the same five
functions with the same signatures.  The objective, gradient, projection and
KKT residual agree to rounding, but the solvers differ: _ref runs active-set
projected Newton, while _fast (not built by default) still runs
Barzilai-Borwein projected-gradient ascent until its kernel is ported; their
solutions agree to the parity tests' tolerances.  ``solve_pga_batch`` solves
many instances in one call: natively in _ref, as a loop over ``solve_pga``
on a backend without one.  Set UAVWPT_BACKEND=python or =cython to force
one; forcing cython without the extension is an ImportError rather than a
silent fallback.
"""

import os

import numpy as np

from . import _ref

_requested = os.environ.get("UAVWPT_BACKEND", "").strip().lower()

if _requested == "python":
    _impl = _ref
elif _requested == "cython":
    from . import _fast as _impl
elif _requested == "":
    try:
        from . import _fast as _impl
    except ImportError:
        _impl = _ref
else:
    raise ImportError(
        f"UAVWPT_BACKEND={_requested!r} not recognized (use 'python' or 'cython')"
    )

BACKEND = _impl.BACKEND
dual_objective = _impl.dual_objective
dual_objective_grad = _impl.dual_objective_grad
project_simplex = _impl.project_simplex
kkt_residual = _impl.kkt_residual
solve_pga = _impl.solve_pga


def _solve_rows(h, dw, sigma2, budget, tol, kkt_tol, max_iter, armijo, shrink):
    """solve_pga_batch as a loop of single solves, for a backend without one."""
    rows = [
        _impl.solve_pga(h[b], dw[b], sigma2, cap, tol, kkt_tol, max_iter, armijo, shrink)
        for b, cap in enumerate(np.asarray(budget, dtype=float).tolist())
    ]
    p, f, iterations, kkt, converged = zip(*rows) if rows else ((),) * 5
    return (
        np.array(p, dtype=float).reshape(len(rows), dw.shape[1]),
        np.array(f, dtype=float),
        np.array(iterations, dtype=np.int64),
        np.array(kkt, dtype=float),
        np.array(converged, dtype=bool),
    )


solve_pga_batch = getattr(_impl, "solve_pga_batch", _solve_rows)
