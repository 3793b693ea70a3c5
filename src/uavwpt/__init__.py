"""Wireless-powered UAV base station: harvest uplink RF power, broadcast back.

The pipeline in one frame: ground UEs beamform energy to the UAV with
maximal ratio transmission, a sigmoid-saturating harvester converts it to a
DC supply, and whatever power survives amplifier losses and the circuit
floor funds a dirty-paper-coded downlink whose per-user power split solves a
concave program on a budgeted simplex.

Main entry points: :func:`uavwpt.emwt.run_emwt` for one frame,
:mod:`uavwpt.cli` for seeded Monte-Carlo sweeps, :mod:`uavwpt.oracle` for
the brute-force references the tests lean on.
"""

from ._kernels import BACKEND
from .beamform import input_power, mrt_set
from .channel import (
    ChannelRealization,
    Topology,
    draw_channel,
    draw_topology,
    topology_rng,
    trial_rng,
)
from .eh_model import EhParams, compute_m, harvest, max_harvest
from .emwt import EmwtResult, SystemConfig, compute_budget, run_emwt
from .errors import ConsistencyError
from .rate import (
    WeightedRate,
    dpc_weighted_rate,
    dual_weighted_rate,
    objective_gradient,
    optimal_permutation,
    weight_decrements,
)
from .solver import SolveReport, solve_power_allocation

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "ChannelRealization",
    "ConsistencyError",
    "EhParams",
    "EmwtResult",
    "SolveReport",
    "SystemConfig",
    "Topology",
    "WeightedRate",
    "compute_budget",
    "compute_m",
    "dpc_weighted_rate",
    "draw_channel",
    "draw_topology",
    "dual_weighted_rate",
    "harvest",
    "input_power",
    "max_harvest",
    "mrt_set",
    "objective_gradient",
    "optimal_permutation",
    "run_emwt",
    "solve_power_allocation",
    "topology_rng",
    "trial_rng",
    "weight_decrements",
]
