"""Command-line front end: Monte-Carlo sweeps, single-shot runs, validation.

Three subcommands:

    simulate   sweep circuit power x harvester saturation, CSV out
    single     one seeded frame with all intermediates, JSON out
    validate   run the built-in correctness checks, table out

Reproducibility contract: (config, seed) determines every output byte.  Each
trial of a sweep gets its own random stream derived from (seed, cell index,
trial index) where cells enumerate the (p_cir, c) grid row-major in config
order; `single` uses the (0, 0) stream.  Aggregation relies on NumPy's
pairwise summation, so per-cell statistics do not depend on trial order.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import bytes_per_row
from .channel import (
    draw_channel,
    draw_topology,
    rician_channels,
    topology_rng,
    trial_rng,
    trial_states,
)
from .config import ConfigError, defaults_text, load_config
from .eh_model import max_harvest
from .emwt import compute_budget, run_emwt
from .solver import solve_batch

_LN2 = math.log(2.0)

CSV_HEADER = "p_cir,c,mean_throughput,ci95,mean_budget,frac_infeasible"


@dataclass(frozen=True)
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


# The most trials drawn together, and the most one cell sends to a solve at
# once; it bounds the memory of a sweep, whatever sweep.trials is.
_CHUNK_TRIALS = 1024
# Working-set bound of one pooled solve, in bytes: pooled rows times the
# peak bytes one evaluation holds per row (_kernels.bytes_per_row).  That
# is 113 rows at K=5, N=3 (3.7 kB each) and 6 at K=16, N=8 (68 kB each),
# so a stock round of 10-trial cells takes 2 solves and a K=16, N=8 round
# of 2-trial cells pools 3 cells per solve.  Larger pools cut more numpy
# per-call overhead but raise a solve's peak memory by as much
# (benchmarks/bench_kernels.py prints the estimate beside the measured peak).
_POOL_BYTES = 420_000


class _SolvePool:
    """Budgeted trials of consecutive pieces, solved in one solve_batch call.

    A piece is a run of up to _CHUNK_TRIALS trials of one cell (see
    _blocks).  Every cell of a sweep shares the weights, the noise power and
    the solver settings; only the budgets differ, so the rows of several
    pieces can go through one lockstep call.  solve_pga_batch rows never
    mix, so each result is bitwise what its own piece's call gives.  The
    pool's working set is its rows times the bytes one evaluation holds per
    row (bytes_per_row).  A piece is never split: the pool is flushed before
    a piece would take that past _POOL_BYTES, and right after it takes one
    that alone reaches the bound.
    """

    def __init__(self, cfg):
        self._cfg = cfg
        self._row_bytes = bytes_per_row(cfg.n_ues, cfg.n_antennas)
        self._queued = []  # (h, budget, objective out, converged out, out indices)
        self._rows = 0

    @property
    def empty(self):
        return not self._queued

    def add(self, h, budget, objective, converged, at):
        """Queue (B, K, N) channels with their positive budgets (B,).

        After the flush that solves them, the rows' objectives and converged
        flags land in ``objective[at]`` and ``converged[at]``.
        """
        if self._queued and (self._rows + budget.size) * self._row_bytes > _POOL_BYTES:
            self.flush()
        self._queued.append((h, budget, objective, converged, at))
        self._rows += budget.size
        if self._rows * self._row_bytes >= _POOL_BYTES:
            self.flush()

    def flush(self):
        """Solve every queued row in one call and deliver the results."""
        if not self._queued:
            return
        queued, self._queued, self._rows = self._queued, [], 0
        if len(queued) == 1:
            h, budget = queued[0][:2]
        else:
            h = np.concatenate([q[0] for q in queued])
            budget = np.concatenate([q[1] for q in queued])
        cfg = self._cfg
        _, objective, _, _, converged = solve_batch(
            h,
            cfg.weights,
            cfg.noise_power,
            budget,
            tol=cfg.solver_tol,
            max_iter=cfg.solver_max_iter,
        )
        start = 0
        for _, _, objective_out, converged_out, at in queued:
            stop = start + at.size
            objective_out[at] = objective[start:stop]
            converged_out[at] = converged[start:stop]
            start = stop


def _blocks(n_cells, trials):
    """The sweep's draw blocks, in sweep order, as lists of (cell, start, stop).

    Each (cell, start, stop) is a piece: trials start..stop-1 of one cell,
    with start a multiple of _CHUNK_TRIALS and at most _CHUNK_TRIALS trials.
    Each cell's pieces are the rows it sends to the solve pool at once.  A
    block joins consecutive whole pieces, across cells, up to _CHUNK_TRIALS
    trials in all, so it covers one run of the cell-major (cell, trial)
    index, and the pool receives the same pieces however they are drawn.
    """
    block, size = [], 0
    for cell in range(n_cells):
        for start in range(0, trials, _CHUNK_TRIALS):
            stop = min(start + _CHUNK_TRIALS, trials)
            if size + stop - start > _CHUNK_TRIALS:
                yield block
                block, size = [], 0
            block.append((cell, start, stop))
            size += stop - start
    yield block


def _draw_chunk(cfg, seed, cells, trials, frozen_topology):
    """Uplink and downlink channels of the trials ``trials[i]`` of cells ``cells[i]``.

    Returns two (len(trials), K, N) arrays; the downlink is the uplink array
    itself unless cfg.independent_dl.  Each trial's stream draws the
    variates _draw_trial draws, in the same order, but writes them into
    chunk arrays: its uniforms in one call and all its normals in another,
    which numpy's Generator makes the same bits as one call per K x N block
    (it keeps no spare normal between calls).  The uniforms are drawn on
    [0, 1) and scaled to [r_min, r_max) for the whole chunk at once, by
    the low + (high - low) * u that Generator.uniform evaluates per
    variate.  The channels are then built in one rician_channels call, so
    every row is bitwise _draw_trial's channel.  The streams are
    trial_rng's, loaded by state into one generator (see trial_states).
    """
    n_trials = len(trials)
    # Per trial: real and imaginary uplink draws, then the downlink pair if any.
    normals = np.empty((n_trials, 4 if cfg.independent_dl else 2, cfg.n_ues, cfg.n_antennas))
    if frozen_topology is None:
        horizontal = np.empty((n_trials, cfg.n_ues))
    else:
        horizontal = frozen_topology.ue_horizontal_distances
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for i, state in enumerate(trial_states(seed, cells, trials)):
        bit_generator.state = state
        if frozen_topology is None:
            rng.random(out=horizontal[i])
        rng.standard_normal(out=normals[i])
    if frozen_topology is None:
        # What Generator.uniform(r_min, r_max) computes from each random().
        horizontal *= cfg.r_max - cfg.r_min
        horizontal += cfg.r_min
    channels = [
        rician_channels(
            cfg.height, horizontal, cfg.alpha, cfg.kappa, normals[:, part], normals[:, part + 1]
        )
        for part in range(0, normals.shape[1], 2)
    ]
    return channels[0], channels[-1]  # one array unless cfg.independent_dl


def run_cell(p_cir, c, throughputs, budgets, converged):
    """A cell's (SweepRow, nonconverged count) from its trials' results."""
    trials = throughputs.size
    mean = float(np.mean(throughputs))
    if trials > 1:
        ci95 = float(1.96 * np.std(throughputs, ddof=1) / math.sqrt(trials))
    else:
        ci95 = 0.0
    row = SweepRow(
        p_cir=p_cir,
        c=c,
        mean_throughput=mean,
        ci95_halfwidth=ci95,
        mean_budget=float(np.mean(budgets)),
        fraction_infeasible=float(np.mean(budgets == 0.0)),
    )
    return row, int(np.count_nonzero(~converged))


def run_sweep(cfg, spec: SweepSpec = None, bits=False):
    """Monte-Carlo sweep over every (p_cir, c) cell.

    Returns (rows, warnings); warnings report cells with nonconverged
    solves.  With cfg.frozen_topology one topology draw (from the reserved
    stream) is shared by every cell and trial; fading is always redrawn.

    The trials are drawn in blocks of the cell-major (cell, trial) index
    that may span cells (_blocks).  Each trial still draws from its own
    stream, one after another, but only the generator calls stay per trial:
    the variates go into block arrays and the block's channels are built in
    one pass (_draw_chunk).  The uplink harvest then runs on the whole
    block.  Full-power MRT delivers |h_k^H w_k|^2 = p_max_k ||h_k||^2, so
    the harvester input is computed in closed form without building beams,
    and each row gets its cell's c and P_cir.  A zero-budget trial is
    optimal at p = 0 with throughput 0 and never reaches the solver; each
    piece's other trials go to one _SolvePool, so small cells share a
    lockstep solve while a piece that reaches the pool's bound is solved
    alone.  A cell's row is built by run_cell once the pool holds none of
    its trials, so a sweep of large cells keeps one cell's trials at a
    time.  Every trial's result is bitwise what the per-trial draw and
    solve give.
    """
    if spec is None:
        spec = SweepSpec(cfg.sweep_p_cir, cfg.sweep_c, cfg.trials, cfg.seed)
    frozen = _frozen_topology(cfg, spec.seed)
    grid = spec.cells
    # One SystemConfig per cell validates its parameters; the cells differ
    # only in P_cir and c, which each row takes from its cell below.
    systems = [cfg.system(circuit_power=p_cir, eh_c=c) for p_cir, c in grid]
    p_cir_of = np.array([s.circuit_power for s in systems])
    c_of = np.array([s.eh.c for s in systems])
    shared = systems[0]
    pool = _SolvePool(cfg)
    results = []
    drawn = {}  # cell -> (throughputs, budgets, converged) until its row is built

    def finish(n_cells):
        """Build the rows of the cells before ``n_cells`` that have none yet."""
        for i in range(len(results), n_cells):
            results.append(run_cell(*grid[i], *drawn.pop(i)))

    for block in _blocks(len(grid), spec.trials):
        (first_cell, lo, _), (last_cell, _, hi) = block[0], block[-1]
        flat = np.arange(first_cell * spec.trials + lo, last_cell * spec.trials + hi)
        row_cell, row_trial = np.divmod(flat, spec.trials)
        uplink, downlink = _draw_chunk(cfg, spec.seed, row_cell, row_trial, frozen)
        budget = compute_budget(
            max_harvest(shared.eh, shared.p_max, uplink, c_of[row_cell]),
            shared.amp_efficiency,
            p_cir_of[row_cell],
        )
        at = 0
        for cell, start, stop in block:
            if start == 0:
                drawn[cell] = (
                    np.zeros(spec.trials),
                    np.empty(spec.trials),
                    np.ones(spec.trials, dtype=bool),
                )
            throughputs, budgets, converged = drawn[cell]
            piece = budget[at : at + stop - start]
            budgets[start:stop] = piece
            solved = np.flatnonzero(piece > 0.0)
            if solved.size:
                pool.add(
                    downlink[at + solved], piece[solved], throughputs, converged, start + solved
                )
            at += stop - start
        if pool.empty:
            finish(last_cell + (hi == spec.trials))
    pool.flush()
    finish(len(grid))
    rows = []
    warnings = []
    for (p_cir, c), (row, nonconverged) in zip(grid, results):
        if bits:
            row = replace(
                row,
                mean_throughput=row.mean_throughput / _LN2,
                ci95_halfwidth=row.ci95_halfwidth / _LN2,
            )
        rows.append(row)
        if nonconverged:
            warnings.append(
                f"cell p_cir={p_cir:g} c={c:g}: {nonconverged} of {spec.trials} "
                "trials did not converge"
            )
    return rows, warnings


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
