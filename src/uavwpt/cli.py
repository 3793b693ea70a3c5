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


# Trials drawn together, and the most one chunk sends to a solve; it bounds
# the memory of a cell, whatever sweep.trials is.
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
    """Budgeted trials of consecutive cell chunks, solved in one solve_batch call.

    Every cell of a sweep shares the weights, the noise power and the solver
    settings; only the budgets differ, so the rows of several chunks can go
    through one lockstep call.  solve_pga_batch rows never mix, so each
    result is bitwise what its own chunk's call gives.  The pool's working
    set is its rows times the bytes one evaluation holds per row
    (bytes_per_row).  A chunk is never split: the pool is flushed before a
    chunk would take that past _POOL_BYTES, and right after it takes one
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


def _draw_chunk(cfg, seed, cell, start, stop, frozen_topology):
    """Uplink and downlink channels of trials start..stop-1 of one cell.

    Returns two (stop - start, K, N) arrays; the downlink is the uplink array
    itself unless cfg.independent_dl.  Each trial's stream draws the
    variates _draw_trial draws, in the same order, but writes them into
    chunk arrays: its uniforms in one call and all its normals in another,
    which numpy's Generator makes the same bits as one call per K x N block
    (it keeps no spare normal between calls).  The channels are then built
    in one rician_channels call, so every row is bitwise _draw_trial's
    channel.  The streams are trial_rng's, loaded by state into one
    generator (see trial_states).
    """
    n_trials = stop - start
    # Per trial: real and imaginary uplink draws, then the downlink pair if any.
    normals = np.empty((n_trials, 4 if cfg.independent_dl else 2, cfg.n_ues, cfg.n_antennas))
    if frozen_topology is None:
        horizontal = np.empty((n_trials, cfg.n_ues))
    else:
        horizontal = frozen_topology.ue_horizontal_distances
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    trials = np.arange(start, stop, dtype=np.uint64)
    for i, state in enumerate(trial_states(seed, cell, trials)):
        bit_generator.state = state
        if frozen_topology is None:
            horizontal[i] = rng.uniform(cfg.r_min, cfg.r_max, size=cfg.n_ues)
        rng.standard_normal(out=normals[i])
    channels = [
        rician_channels(
            cfg.height, horizontal, cfg.alpha, cfg.kappa, normals[:, part], normals[:, part + 1]
        )
        for part in range(0, normals.shape[1], 2)
    ]
    return channels[0], channels[-1]  # one array unless cfg.independent_dl


def run_cell(cfg, spec: SweepSpec, cell_index: int, pool, frozen_topology=None):
    """Draw all trials of one sweep cell and queue their solves on ``pool``.

    Returns a function of no arguments that gives the cell's (SweepRow,
    nonconverged count).  Call it once ``pool`` holds none of the cell's
    trials, that is after the pool is flushed or whenever it is empty.

    Trials are drawn in chunks of up to _CHUNK_TRIALS.  Each trial still
    draws from its own stream, one after another, but only the generator
    calls stay per trial: the variates go into chunk arrays and the chunk's
    channels are built in one pass (_draw_chunk).  The uplink harvest then
    runs on the whole chunk.  Full-power MRT delivers
    |h_k^H w_k|^2 = p_max_k ||h_k||^2, so the harvester input is computed in
    closed form without building beams.  A zero-budget trial is optimal at
    p = 0 with throughput 0 and never reaches the solver; the chunk's other
    trials go to ``pool`` together.  Every trial's result is bitwise what
    the per-trial draw and solve give.
    """
    p_cir, c = spec.cells[cell_index]
    sys_cfg = cfg.system(circuit_power=p_cir, eh_c=c)
    throughputs = np.zeros(spec.trials)
    budgets = np.empty(spec.trials)
    converged = np.ones(spec.trials, dtype=bool)
    for start in range(0, spec.trials, _CHUNK_TRIALS):
        stop = min(start + _CHUNK_TRIALS, spec.trials)
        uplink, downlink = _draw_chunk(
            cfg, spec.seed, cell_index, start, stop, frozen_topology
        )
        budget = compute_budget(
            max_harvest(sys_cfg.eh, sys_cfg.p_max, uplink),
            sys_cfg.amp_efficiency,
            sys_cfg.circuit_power,
        )
        budgets[start:stop] = budget
        solved = np.flatnonzero(budget > 0.0)
        if solved.size:
            pool.add(downlink[solved], budget[solved], throughputs, converged, start + solved)

    def result():
        mean = float(np.mean(throughputs))
        if spec.trials > 1:
            ci95 = float(1.96 * np.std(throughputs, ddof=1) / math.sqrt(spec.trials))
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

    return result


def run_sweep(cfg, spec: SweepSpec = None, bits=False):
    """Monte-Carlo sweep over every (p_cir, c) cell.

    Returns (rows, warnings); warnings report cells with nonconverged
    solves.  With cfg.frozen_topology one topology draw (from the reserved
    stream) is shared by every cell and trial; fading is always redrawn.

    run_cell draws the cells one after another and queues their budgeted
    trials on one _SolvePool, so small cells share a lockstep solve while
    a chunk that reaches the pool's bound is solved alone.  Rows are built
    whenever the pool is empty, so a sweep of large cells keeps one cell's
    trials at a time, as before.
    """
    if spec is None:
        spec = SweepSpec(cfg.sweep_p_cir, cfg.sweep_c, cfg.trials, cfg.seed)
    frozen = _frozen_topology(cfg, spec.seed)
    pool = _SolvePool(cfg)
    results = []
    pending = []
    for cell_index in range(len(spec.cells)):
        pending.append(run_cell(cfg, spec, cell_index, pool, frozen_topology=frozen))
        if pool.empty:
            results += [result() for result in pending]
            pending.clear()
    pool.flush()
    results += [result() for result in pending]
    rows = []
    warnings = []
    for (p_cir, c), (row, nonconverged) in zip(spec.cells, results):
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
