"""Compiled kernels: the power-allocation solve and the sweep's random draw, in C.

``solve_pga_batch`` solves many instances in one call; its one caller in
the package is ``uavwpt.solver.solve_batch``, which the sweep and the
one-frame solve share.  ``solve_pga``, its batch of one, has no caller in
the package: it stays because ``perfbench/spans.py`` traces it by name
(``tests/test_perfbench_contract.py`` pins that) and
``benchmarks/bench_kernels.py`` times it.  Both run ``kernel.c``, a C99
port of :mod:`uavwpt._kernels._ref`, which solves one row at a time,
operation for operation as ``_ref.solve_pga`` does it.  ``draw_variates`` runs
``draw.c``: for each row of a draw block it derives the row's stream as
``channel.trial_rng`` does (numpy's SeedSequence hash and PCG64 seeding)
and draws its uniforms and, through numpy's own ``libnpyrandom.a``, its
normals, bit for bit those of that Generator.

The first import compiles each source with the interpreter's C compiler
(sysconfig's ``CC``) into ``__pycache__/<stem>-<key>.so`` beside it, named
by a checksum of the source, the flags, the machine type and any library
it links; later imports load those files without calling the compiler.
Where the package directory is read-only, each process builds its own
copies in a temporary directory.  When the solver builds, ``BACKEND`` is
``"c"``; when no compiler exists or its build fails, both solve names are
``_ref``'s functions and ``BACKEND`` is ``"python"``.  ``_ref`` solves
one row at a time in numpy, so a sweep there takes over 100 times as long
per trial as on ``"c"`` (the README gives the figures).  When draw.c
cannot be built or numpy's library is missing, ``draw_variates`` is None
and the sweep draws each trial through ``channel.trial_rng``, which stays
the definition of the streams.  Nothing else selects either path.

Both evaluate the objective and its gradient from square-root factors
R_k^H R_k = A_k, updated by Givens rotations one user at a time, so A_k
is never formed and the value and gradient stay accurate to a few ulps
from 1e-9 to 1e10 mW (``tests/test_accuracy.py``), and both build the
face Hessian from rank-one downdates of the channels' Gram matrix.  The C
kernel rounds some sums and products differently from ``_ref``'s BLAS and
LAPACK calls and numpy's complex arithmetic, so its objectives agree with
``_ref`` to 1e-12 relative, not bit for bit; the CLI's printed outputs
(the sweep CSV at 12 significant digits) stay the same.  ``_ref`` remains
the reference the tests compare with and the evaluator behind
:mod:`uavwpt.rate`.
"""

from . import _c, _ref


def _select():
    """(BACKEND, solve_pga_batch, solve_pga): the C kernel's if it loads, else _ref's."""
    kernel = _c.load()
    if kernel is None:
        return "python", _ref.solve_pga_batch, _ref.solve_pga
    return "c", kernel.solve_pga_batch, kernel.solve_pga


BACKEND, solve_pga_batch, solve_pga = _select()
draw_variates = _c.load_draw()
