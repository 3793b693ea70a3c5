"""End-to-end energy-constrained weighted-throughput pipeline.

One frame works in two phases.  Uplink: every UE beams at full per-UE power
with MRT, and the UAV's nonlinear harvester turns the aggregate incident RF
power into a DC supply.  Downlink: after paying amplifier inefficiency and
circuit power, whatever remains bounds the total transmit power of a
dirty-paper-coded broadcast, whose per-user power split is chosen by the
convex solver under the weight-sorted encoding order.

When the harvested supply does not cover the circuit power, the downlink
stays silent: zero allocation, zero throughput.  That keeps the circuit-power
sweep well defined end to end instead of erroring out mid-curve.
"""

from dataclasses import dataclass

import numpy as np

from .beamform import input_power, mrt_set
from .channel import ChannelRealization
from .eh_model import EhParams, harvest
from .rate import optimal_permutation
from .solver import SolveReport, solve_power_allocation


@dataclass(frozen=True)
class SystemConfig:
    """Static system parameters for one deployment.

    Powers are mW throughout; ``p_max`` is the per-UE uplink cap vector and
    ``weights`` the downlink priority vector (both length ``n_ues``).
    """

    n_ues: int
    n_antennas: int
    noise_power: float
    amp_efficiency: float
    circuit_power: float
    p_max: np.ndarray
    weights: np.ndarray
    eh: EhParams

    def __post_init__(self):
        object.__setattr__(self, "p_max", np.asarray(self.p_max, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.n_ues < 1 or self.n_antennas < 1:
            raise ValueError("need at least one UE and one antenna")
        if not 0 < self.amp_efficiency <= 1:
            raise ValueError("amplifier efficiency must be in (0, 1]")
        if not self.noise_power > 0:
            raise ValueError("noise power must be positive")
        if self.circuit_power < 0:
            raise ValueError("circuit power must be nonnegative")
        if self.p_max.shape != (self.n_ues,) or np.any(self.p_max < 0):
            raise ValueError("p_max must be a nonnegative length-K vector")
        if self.weights.shape != (self.n_ues,) or np.any(self.weights < 0):
            raise ValueError("weights must be a nonnegative length-K vector")


@dataclass(frozen=True)
class EmwtResult:
    """Everything one frame produced, from beams to the solved allocation."""

    beams: np.ndarray
    p_in: float
    p_out: float
    budget: float
    allocation: np.ndarray
    weighted_throughput: float
    solve: SolveReport


def compute_budget(p_out, amp_efficiency: float, circuit_power):
    """Downlink power budget left after circuit power and amplifier loss.

    The supply must cover (1/phi) * sum(p) + P_CIR, so the total transmit
    power is capped at phi * (p_out - P_CIR), clamped at zero when the
    harvested supply cannot even run the circuits.  ``p_out`` and
    ``circuit_power`` are scalars (float result) or arrays that broadcast
    against each other (array result).
    """
    p_out = np.asarray(p_out, dtype=float)
    if np.any(p_out < 0) or np.any(np.asarray(circuit_power) < 0):
        raise ValueError("powers must be nonnegative")
    if not 0 < amp_efficiency <= 1:
        raise ValueError("amplifier efficiency must be in (0, 1]")
    budget = np.maximum(0.0, amp_efficiency * (p_out - circuit_power))
    return budget if budget.ndim else float(budget)


def run_emwt(
    cfg: SystemConfig,
    channels: ChannelRealization,
    downlink: ChannelRealization = None,
    tol: float = 1e-8,
    max_iter: int = 10_000,
) -> EmwtResult:
    """Run one frame of the pipeline on a fixed channel realization.

    Uses full-power MRT on the uplink (tight per-UE caps; any backoff only
    shrinks the harvested supply), the descending-weight encoding order on
    the downlink, and the projected Newton solver for the power split.
    ``downlink`` defaults to the uplink realization (TDD reciprocity); pass
    a second draw to study how stale or independent downlink state behaves.
    Solver non-convergence is reported in ``solve``, never raised.
    """
    if channels.n_ues != cfg.n_ues or channels.n_antennas != cfg.n_antennas:
        raise ValueError("channel realization does not match the system config")
    if downlink is None:
        downlink = channels
    elif downlink.n_ues != cfg.n_ues or downlink.n_antennas != cfg.n_antennas:
        raise ValueError("downlink realization does not match the system config")
    beams = mrt_set(channels, cfg.p_max)
    p_in = input_power(channels, beams)
    p_out = float(harvest(cfg.eh, p_in))
    budget = compute_budget(p_out, cfg.amp_efficiency, cfg.circuit_power)

    perm = optimal_permutation(cfg.weights)
    report = solve_power_allocation(
        downlink, cfg.weights, perm, cfg.noise_power, budget, tol=tol, max_iter=max_iter
    )
    return EmwtResult(
        beams=beams,
        p_in=float(p_in),
        p_out=p_out,
        budget=float(budget),
        allocation=report.p,
        weighted_throughput=report.objective,
        solve=report,
    )
