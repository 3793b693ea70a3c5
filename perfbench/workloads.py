"""The benchmark's workloads: the built-in sweep plus ``--set`` overrides.

Every workload sweeps the full built-in grid (p_cir 40..80 mW x c {100, 200}
mW, 18 cells).  One *round* is one ``uavwpt.cli.run_sweep`` call with
``trials`` trials per cell; a run repeats whole rounds, each on its own sweep
seed, until its time is up.  ``check_trials`` sets the size of the separate,
untimed sweep whose every trial is compared with an independent optimum.
"""

from dataclasses import dataclass

# 16 distinct descending weights 1.0, 0.95, ..., 0.25.
_WIDE_WEIGHTS = ", ".join(f"{1.0 - 0.05 * k:g}" for k in range(16))


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: tuple
    trials: int        # trials per cell in one timed round
    check_trials: int  # trials per cell in the untimed exact-check sweep
    saturated: bool    # harvester saturated in every trial (closed-form budget)
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="stock",
            overrides=(),
            trials=10,
            check_trials=2,
            saturated=True,
            why="the built-in sweep users run (K=5, N=3, saturated harvester); "
            "the kernel solve takes about 90 % of the time",
        ),
        Workload(
            name="harvest_edge",
            overrides=("ue.p_max=3",),
            trials=80,
            check_trials=20,
            saturated=False,
            why="p_max=3 puts the RF input near the sigmoid turning point: about 9 in 10 "
            "trials are infeasible, so the per-trial wrapper layers take half the time",
        ),
        Workload(
            name="wide_k16n8",
            overrides=("ue.count=16", "ue.antennas=8", f"ue.weights={_WIDE_WEIGHTS}"),
            trials=2,
            check_trials=1,
            saturated=True,
            why="K=16 UEs with 8 antennas: the kernel takes about 95 % of the time, "
            "showing how solver and kernel changes scale past the stock point",
        ),
    )
}


# Each run seed owns a block of sweep seeds: one per timed round, and the
# block's last one for the untimed exact-check sweep.
SEED_BLOCK = 1_000_000


def round_seed(seed: int, round_index: int) -> int:
    """Sweep seed of timed round ``round_index`` of a run with ``seed``."""
    if not 0 <= round_index < SEED_BLOCK - 1:
        raise ValueError(f"round index {round_index} out of range")
    return seed * SEED_BLOCK + round_index


def check_seed(seed: int) -> int:
    """Sweep seed of the untimed exact-check sweep of a run with ``seed``."""
    return seed * SEED_BLOCK + SEED_BLOCK - 1
