"""Solver kernels: the pure-NumPy implementation in :mod:`uavwpt._kernels._ref`.

Sweeps call ``solve_pga_batch``, which solves many instances in lockstep;
``solve_pga`` is its batch of one.  ``BACKEND`` names the implementation.
"""

from ._ref import (
    BACKEND,
    dual_objective,
    dual_objective_grad,
    kkt_residual,
    project_simplex,
    solve_pga,
    solve_pga_batch,
)
