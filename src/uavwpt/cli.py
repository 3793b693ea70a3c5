"""Command-line front end: Monte-Carlo sweeps, single-shot runs, validation.

Three subcommands:

    simulate   sweep circuit power x harvester saturation, CSV out
    single     one seeded frame with all intermediates, JSON out
    validate   run the built-in correctness checks, table out

Reproducibility contract: (config, seed) determines every output byte.  Each
trial of a sweep gets its own random stream derived from (seed, cell index,
trial index) where cells enumerate the (p_cir, c) grid row-major in config
order; `single` uses the (0, 0) stream.  Each cell is aggregated from its
own contiguous row of results with NumPy's pairwise summation, so its
statistics do not depend on how the sweep groups trials into blocks.
"""

import argparse
import json
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._kernels import draw_variates
from .channel import (
    draw_channel,
    draw_topology,
    rician_channels,
    topology_rng,
    trial_rng,
)
from .config import ConfigError, defaults_text, load_config
from .eh_model import EhParams, max_harvest
from .emwt import compute_budget, run_emwt
from .solver import solve_batch

_LN2 = math.log(2.0)

CSV_HEADER = "p_cir,c,mean_throughput,ci95,mean_budget,frac_infeasible"


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """The sweep grid: circuit powers x saturation levels, trials, seed."""

    p_cir_values: tuple
    c_values: tuple
    trials: int
    seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if any(v < 0 for v in self.p_cir_values) or any(v < 0 for v in self.c_values):
            raise ValueError("swept powers must be nonnegative")

    @property
    def cells(self):
        return [(p, c) for p in self.p_cir_values for c in self.c_values]


@dataclass(frozen=True, slots=True)
class SweepRow:
    """Aggregated Monte-Carlo statistics for one (p_cir, c) cell."""

    p_cir: float
    c: float
    mean_throughput: float
    ci95_halfwidth: float
    mean_budget: float
    fraction_infeasible: float


class SweepRows(Sequence):
    """A sweep's rows in grid order: one SweepRow per (p_cir, c) cell, built on access.

    The four statistics of every cell are kept beside the spec as the bytes
    of one (cells, 4) float64 array, so a sweep that is kept holds one
    bytes object: no row object and four floats per cell, and no ndarray.
    Indexing builds the rows it returns; a slice is a list.
    """

    __slots__ = ("_spec", "_stats")

    def __init__(self, spec, stats):
        self._spec = spec
        self._stats = stats.tobytes()

    def __len__(self):
        return len(self._stats) // 32  # four float64 per cell

    def __iter__(self):
        stats = np.frombuffer(self._stats).reshape(-1, 4).tolist()
        for cell, values in zip(self._spec.cells, stats):
            yield SweepRow(*cell, *values)

    def __getitem__(self, index):
        return list(self)[index]


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def format_csv(rows) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    row.p_cir,
                    row.c,
                    row.mean_throughput,
                    row.ci95_halfwidth,
                    row.mean_budget,
                    row.fraction_infeasible,
                )
            )
        )
    return "\n".join(lines) + "\n"


def _frozen_topology(cfg, seed):
    """The topology shared by every trial when cfg.frozen_topology, else None."""
    if not cfg.frozen_topology:
        return None
    return draw_topology(
        topology_rng(seed), cfg.n_ues, cfg.r_min, cfg.r_max, cfg.height, cfg.alpha, cfg.kappa
    )


def _draw_trial(cfg, rng, frozen_topology):
    """Topology, uplink channel and downlink channel (None: reuse the uplink)."""
    topo = frozen_topology
    if topo is None:
        topo = draw_topology(
            rng, cfg.n_ues, cfg.r_min, cfg.r_max, cfg.height, cfg.alpha, cfg.kappa
        )
    channels = draw_channel(rng, topo, cfg.n_antennas)
    downlink = draw_channel(rng, topo, cfg.n_antennas) if cfg.independent_dl else None
    return topo, channels, downlink


# The most trials drawn, harvested and solved together, which bounds the
# memory of a block's channels and solve.  A group's results still take
# O(cells x trials) memory, so a cell's take O(sweep.trials).
_CHUNK_TRIALS = 1024


def _draw_chunk(cfg, seed, cells, trials, frozen_topology):
    """Uplink and downlink channels of the trials ``trials[i]`` of cells ``cells[i]``.

    Returns two (len(trials), K, N) arrays; the downlink is the uplink array
    itself unless cfg.independent_dl.  Each trial's stream draws the
    variates _draw_trial draws, in the same order, but into block arrays:
    its uniforms in one call and all its normals in another, which numpy's
    Generator makes the same bits as one call per K x N block (it keeps no
    spare normal between calls).  The whole block is one draw_variates call
    into C, or, without the C draw, one trial_rng stream per trial.  The
    uniforms are drawn on [0, 1) and scaled to [r_min, r_max) for the whole
    block at once, by the low + (high - low) * u that Generator.uniform
    evaluates per variate.  The channels are then built in one
    rician_channels call, so every row is bitwise _draw_trial's channel.
    """
    n_trials = len(trials)
    # Per trial: real and imaginary uplink draws, then the downlink pair if any.
    normals = np.empty((n_trials, 4 if cfg.independent_dl else 2, cfg.n_ues, cfg.n_antennas))
    uniforms = np.empty((n_trials, 0 if frozen_topology is not None else cfg.n_ues))
    if draw_variates is not None:
        draw_variates(seed, cells, trials, uniforms, normals)
    else:
        for i, (cell, trial) in enumerate(zip(cells.tolist(), trials.tolist())):
            rng = trial_rng(seed, cell, trial)
            rng.random(out=uniforms[i])
            rng.standard_normal(out=normals[i])
    if frozen_topology is None:
        # What Generator.uniform(r_min, r_max) computes from each random().
        horizontal = uniforms
        horizontal *= cfg.r_max - cfg.r_min
        horizontal += cfg.r_min
    else:
        horizontal = frozen_topology.ue_horizontal_distances
    channels = [
        rician_channels(
            cfg.height, horizontal, cfg.alpha, cfg.kappa, normals[:, part], normals[:, part + 1]
        )
        for part in range(0, normals.shape[1], 2)
    ]
    return channels[0], channels[-1]  # one array unless cfg.independent_dl


def run_cell(throughputs, budgets, converged):
    """A cell's (four statistics, nonconverged count) from its trials' results.

    The statistics are mean throughput, its 95 % CI half-width, mean budget
    and the infeasible fraction, in SweepRow's order.  They are the bits
    np.mean and np.std(ddof=1) give, computed as they compute them: a
    pairwise np.add.reduce, then one division (the standard deviation sums
    the squared deviations from that mean and divides by trials - 1),
    without their per-call overhead.
    """
    trials = throughputs.size
    mean = np.add.reduce(throughputs) / trials
    if trials > 1:
        deviation = throughputs - mean
        variance = np.add.reduce(np.multiply(deviation, deviation, out=deviation)) / (trials - 1)
        ci95 = 1.96 * math.sqrt(variance) / math.sqrt(trials)
    else:
        ci95 = 0.0
    stats = (
        mean,
        ci95,
        np.add.reduce(budgets) / trials,
        np.count_nonzero(budgets == 0.0) / trials,
    )
    return stats, int(np.count_nonzero(~converged))


def run_sweep(cfg, spec: SweepSpec = None, bits=False):
    """Monte-Carlo sweep over every (p_cir, c) cell.

    Returns (rows, warnings): rows is a SweepRows, and warnings report
    cells with nonconverged solves.  With cfg.frozen_topology one topology
    draw (from the reserved stream) is shared by every cell and trial;
    fading is always redrawn.

    The grid is walked in groups of max(1, _CHUNK_TRIALS // trials)
    consecutive cells, and each group's cell-major (cell, trial) index in
    blocks of up to _CHUNK_TRIALS trials.  Each trial still draws from its
    own stream, but only the generator calls stay per trial: the variates
    go into block arrays and the block's channels are built in one pass
    (_draw_chunk).  The uplink harvest then runs on the whole block.
    Full-power MRT delivers |h_k^H w_k|^2 = p_max_k ||h_k||^2, so the
    harvester input is computed in closed form without building beams, and
    each row gets its cell's c and P_cir.  A zero-budget trial is optimal at
    p = 0 with throughput 0 and never reaches the solver; the block's other
    trials go to one solve_batch call, whose rows are solved independently.
    Each block's results fill its slice of the group's (cells, trials)
    arrays, and run_cell aggregates each row once the group's last block is
    solved.  Every trial's result is bitwise what the per-trial draw and
    solve give.
    """
    if spec is None:
        spec = SweepSpec(cfg.sweep_p_cir, cfg.sweep_c, cfg.trials, cfg.seed)
    frozen = _frozen_topology(cfg, spec.seed)
    grid = spec.cells
    # The cells differ only in P_cir and c, which each row takes from its
    # cell below.  One SystemConfig validates the shared parameters,
    # SweepSpec has checked that every P_cir is nonnegative, and one
    # EhParams per distinct c checks that c is positive (the harvester
    # offset m depends on a and b alone).
    shared = cfg.system()
    for c in set(spec.c_values):
        EhParams(shared.eh.a, shared.eh.b, c)
    p_cir_of = np.array([p_cir for p_cir, _ in grid], dtype=float)
    c_of = np.array([c for _, c in grid], dtype=float)
    stats = np.empty((len(grid), 4))
    warnings = []
    group = max(1, _CHUNK_TRIALS // spec.trials)
    for first in range(0, len(grid), group):
        shape = (min(group, len(grid) - first), spec.trials)
        throughput = np.zeros(shape)
        budget = np.empty(shape)
        converged = np.ones(shape, dtype=bool)
        for lo in range(0, budget.size, _CHUNK_TRIALS):
            rows = np.arange(lo, min(lo + _CHUNK_TRIALS, budget.size))
            row_cell, row_trial = np.divmod(rows, spec.trials)
            row_cell += first
            uplink, downlink = _draw_chunk(cfg, spec.seed, row_cell, row_trial, frozen)
            block = compute_budget(
                max_harvest(shared.eh, shared.p_max, uplink, c_of[row_cell]),
                shared.amp_efficiency,
                p_cir_of[row_cell],
            )
            budget.flat[rows] = block
            solved = np.flatnonzero(block > 0.0)
            if solved.size:
                _, objective, _, _, ok = solve_batch(
                    downlink[solved],
                    cfg.weights,
                    cfg.noise_power,
                    block[solved],
                    tol=cfg.solver_tol,
                    max_iter=cfg.solver_max_iter,
                )
                throughput.flat[rows[solved]] = objective
                converged.flat[rows[solved]] = ok
        for cell, results in enumerate(zip(throughput, budget, converged), first):
            stats[cell], nonconverged = run_cell(*results)
            if nonconverged:
                p_cir, c = grid[cell]
                warnings.append(
                    f"cell p_cir={p_cir:g} c={c:g}: {nonconverged} of {spec.trials} "
                    "trials did not converge"
                )
    if bits:
        stats[:, :2] /= _LN2
    return SweepRows(spec, stats), warnings


def single_record(cfg, bits=False) -> dict:
    """One frame on the (cell 0, trial 0) stream, all intermediates."""
    rng = trial_rng(cfg.seed, cell=0, trial=0)
    topo, channels, downlink = _draw_trial(cfg, rng, _frozen_topology(cfg, cfg.seed))
    result = run_emwt(
        cfg.system(),
        channels,
        downlink=downlink,
        tol=cfg.solver_tol,
        max_iter=cfg.solver_max_iter,
    )
    scale = _LN2 if bits else 1.0
    return {
        "seed": cfg.seed,
        "units": "bits" if bits else "nats",
        "ue_horizontal_distances": [float(d) for d in topo.ue_horizontal_distances],
        "p_in": result.p_in,
        "p_out": result.p_out,
        "budget": result.budget,
        "allocation": [float(p) for p in result.allocation],
        "weighted_throughput": result.weighted_throughput / scale,
        "beams": [[[w.real, w.imag] for w in row] for row in result.beams],
        "solve": {
            "objective": result.solve.objective,
            "iterations": result.solve.iterations,
            "kkt_residual": result.solve.kkt_residual,
            "converged": result.solve.converged,
        },
    }


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _add_common(sub):
    sub.add_argument("--config", default=None, help="INI config file (defaults built in)")
    sub.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one config value; repeatable",
    )
    sub.add_argument("--seed", type=int, default=None, help="override sweep.seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavwpt",
        description="Wireless-powered UAV base-station simulator "
        "(harvest-then-broadcast, weighted throughput).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte-Carlo sweep, CSV output")
    _add_common(sim)
    sim.add_argument("--trials", type=int, default=None, help="override sweep.trials")
    sim.add_argument("--out", default=None, help="write CSV here instead of stdout")
    sim.add_argument("--bits", action="store_true", help="report bits instead of nats")

    one = sub.add_parser("single", help="one seeded frame, JSON output")
    _add_common(one)
    one.add_argument("--out", default=None, help="write JSON here instead of stdout")
    one.add_argument("--bits", action="store_true", help="report bits instead of nats")

    val = sub.add_parser("validate", help="run built-in correctness checks")
    _add_common(val)
    val.add_argument(
        "--instances", type=int, default=25, help="instances per randomized check"
    )

    sub.add_parser("defaults", help="print the built-in config")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "defaults":
        sys.stdout.write(defaults_text())
        return 0
    # --seed and --trials are overrides like any other, so load_config
    # validates them with the rest of the config.
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"sweep.seed={args.seed}")
    if getattr(args, "trials", None) is not None:
        overrides.append(f"sweep.trials={args.trials}")
    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "simulate":
        rows, warnings = run_sweep(cfg, bits=args.bits)
        for line in warnings:
            print(f"warning: {line}", file=sys.stderr)
        _emit(format_csv(rows), args.out)
        return 0

    if args.command == "single":
        record = single_record(cfg, bits=args.bits)
        _emit(json.dumps(record, sort_keys=True, indent=2) + "\n", args.out)
        return 0

    # validate
    from . import checks

    if args.instances < 1:
        print("config error: --instances must be at least 1", file=sys.stderr)
        return 2
    results = checks.run_all(cfg, cfg.seed, args.instances)
    width = max(len(name) for name, _, _ in results)
    failed = []
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        print(f"{name:<{width}}  {status}  {detail}")
        if not passed:
            failed.append(name)
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
