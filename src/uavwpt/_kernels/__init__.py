"""Solver kernels: the power-allocation solve in C, with numpy as reference and fallback.

Sweeps call ``solve_pga_batch``, which solves many instances in one call;
``solve_pga`` is its batch of one.  Both run ``kernel.c``, a C99 port of
:mod:`uavwpt._kernels._ref` that solves one row at a time, operation for
operation as ``_ref`` does it.  The first import compiles it with the
interpreter's C compiler (sysconfig's ``CC``) into
``__pycache__/kernel-<sha256>.so`` beside it, named by a digest of the
source, the flags and the machine type; later imports load that file
without calling the compiler.  Where the package directory is read-only,
each process builds its own copy in a temporary directory.  ``BACKEND`` is
then ``"c"``.  When no compiler exists or the build fails, both names are
``_ref``'s functions and ``BACKEND`` is ``"python"``; nothing else selects
the backend.

The C kernel rounds some sums and products differently from ``_ref``'s
LAPACK and BLAS calls, so its objectives agree with ``_ref`` to 1e-12
relative, not bit for bit; the CLI's printed outputs (the sweep CSV at
12 significant digits) stay the same.  ``_ref`` remains the reference the
tests compare with and the evaluator behind :mod:`uavwpt.rate`; its
objective, gradient, projection and KKT residual are exported here as
they are.
"""

from . import _c, _ref
from ._ref import (
    dual_objective,
    dual_objective_grad,
    kkt_residual,
    project_simplex,
)


def _select():
    """(BACKEND, solve_pga_batch, solve_pga): the C kernel's if it loads, else _ref's."""
    kernel = _c.load()
    if kernel is None:
        return "python", _ref.solve_pga_batch, _ref.solve_pga
    return "c", kernel.solve_pga_batch, kernel.solve_pga


BACKEND, solve_pga_batch, solve_pga = _select()
