"""Self-contained correctness checks behind the `validate` CLI command.

Each check draws its own seeded instances, exercises one analytic claim
against an independent reference (brute force, finite differences, or a
closed form) and returns (passed, detail).  These are the only copies of
the checks: acceptance criteria 1-6 call the same functions at frozen
instance counts, and `validate` at ``--instances`` each.  The instances
draw K and N themselves, so they do not depend on the config's UE count
or antenna count; the config supplies the geometry, the noise power and
the harvester.
"""

import numpy as np

from .beamform import input_power, mrt_set
from .channel import draw_channel, draw_topology, trial_rng
from .eh_model import EhParams, harvest
from .oracle import (
    GridSpec,
    best_permutation_exhaustive,
    grid_search,
    random_feasible_allocations,
)
from .rate import (
    dpc_weighted_rate,
    dual_weighted_rate,
    objective_gradient,
    optimal_permutation,
)
from .solver import solve_power_allocation

# Lattice points per axis of the solver-vs-grid check, by number of UEs.
_LATTICE_RESOLUTION = {2: 500, 3: 120}
# Bound on the Frank-Wolfe gap of a solve relative to its objective.  Over
# 2000 grid-check instances the gap read p99 7.2e-8 and max 2.1e-7 on the
# acceptance config, p99 1.5e-8 and max 9.9e-8 on the built-in one.
_GAP_TOL = 1e-6
# Random beam sets each MRT-dominance instance tries.
_BEAM_SETS = 1000


def _instance(cfg, rng, n_ues, n_antennas):
    topo = draw_topology(rng, n_ues, cfg.r_min, cfg.r_max, cfg.height, cfg.alpha, cfg.kappa)
    return draw_channel(rng, topo, n_antennas)


def check_duality_identity(cfg, seed, instances):
    """Direct per-user form == weight-decrement form, any permutation."""
    worst = 0.0
    for i in range(instances):
        rng = trial_rng(seed, cell=1, trial=i)
        k_ues = int(rng.integers(1, 6))
        n_antennas = int(rng.integers(1, 5))
        channels = _instance(cfg, rng, k_ues, n_antennas)
        weights = rng.uniform(0.0, 1.0, size=k_ues)
        perm = rng.permutation(k_ues)
        p = rng.uniform(0.0, 50.0, size=k_ues)
        a = dpc_weighted_rate(p, channels, weights, perm, cfg.noise_power).value
        b = dual_weighted_rate(p, channels, weights, perm, cfg.noise_power).value
        worst = max(worst, abs(a - b) / max(abs(a), 1e-12))
    return worst <= 1e-9, f"max relative gap {worst:.3e} over {instances} instances"


def check_permutation_enumeration(cfg, seed, instances):
    """Descending-weight order matches exhaustive search over all orders."""
    worst = 0.0
    for i in range(instances):
        rng = trial_rng(seed, cell=2, trial=i)
        k_ues = int(rng.integers(2, 5))
        n_antennas = int(rng.integers(1, 5))
        channels = _instance(cfg, rng, k_ues, n_antennas)
        weights = rng.uniform(0.05, 1.0, size=k_ues)
        budget = float(rng.uniform(5.0, 150.0))
        perm = optimal_permutation(weights)
        report = solve_power_allocation(channels, weights, perm, cfg.noise_power, budget)
        star = dpc_weighted_rate(report.p, channels, weights, perm, cfg.noise_power).value
        _, best = best_permutation_exhaustive(channels, weights, cfg.noise_power, budget)
        worst = max(worst, (best - star) / max(abs(best), 1e-12))
    return worst <= 1e-6, f"max excess over sorted order {worst:.3e}, {instances} instances"


def check_grid_oracle(cfg, seed, instances):
    """Solver beats (or ties) an exhaustive lattice and certifies its optimum.

    Five of every seven instances have K=2 and the other two K=3, each on
    its own lattice of _LATTICE_RESOLUTION points per axis.  The weights
    are sorted, so the objective f is concave, and with its gradient g at
    the returned p the Frank-Wolfe gap budget * max(g) - g.p bounds
    f* - f(p) from above (Jaggi, ICML 2013); it must be at most _GAP_TOL
    of |f|.
    """
    worst = 0.0
    worst_gap = 0.0
    for i in range(instances):
        rng = trial_rng(seed, cell=3, trial=i)
        k_ues = 2 if i % 7 < 5 else 3
        n_antennas = int(rng.integers(1, 4))
        channels = _instance(cfg, rng, k_ues, n_antennas)
        weights = np.sort(rng.uniform(0.05, 1.0, size=k_ues))[::-1]
        budget = float(rng.uniform(5.0, 150.0))
        perm = optimal_permutation(weights)
        report = solve_power_allocation(channels, weights, perm, cfg.noise_power, budget)
        _, lattice_best = grid_search(
            channels, weights, perm, cfg.noise_power,
            GridSpec(_LATTICE_RESOLUTION[k_ues], budget),
        )
        worst = max(worst, (lattice_best - report.objective) / max(abs(lattice_best), 1e-12))
        grad = objective_gradient(report.p, channels, weights, perm, cfg.noise_power)
        gap = budget * grad.max() - grad @ report.p[perm]
        worst_gap = max(worst_gap, gap / abs(report.objective))
    ok = worst <= 1e-4 and worst_gap <= _GAP_TOL
    return ok, (
        f"max lattice excess {worst:.3e}, max Frank-Wolfe gap {worst_gap:.3e} of |f|, "
        f"{instances} instances"
    )


def check_gradient_fd(cfg, seed, instances):
    """Analytic gradient against central finite differences."""
    worst = 0.0
    for i in range(instances):
        rng = trial_rng(seed, cell=4, trial=i)
        k_ues = int(rng.integers(1, 6))
        n_antennas = int(rng.integers(1, 5))
        channels = _instance(cfg, rng, k_ues, n_antennas)
        weights = np.sort(rng.uniform(0.05, 1.0, size=k_ues))[::-1]
        budget = float(rng.uniform(5.0, 150.0))
        perm = optimal_permutation(weights)
        p = random_feasible_allocations(rng, 0.9 * budget, 1, k_ues)[0] + 0.01 * budget
        grad = objective_gradient(p, channels, weights, perm, cfg.noise_power)
        step = 1e-6 * budget
        for m in range(k_ues):
            hi = p.copy()
            lo = p.copy()
            hi[perm[m]] += step
            lo[perm[m]] -= step
            fd = (
                dual_weighted_rate(hi, channels, weights, perm, cfg.noise_power).value
                - dual_weighted_rate(lo, channels, weights, perm, cfg.noise_power).value
            ) / (2 * step)
            worst = max(worst, abs(grad[m] - fd) / max(abs(fd), 1e-12))
    return worst <= 1e-4, f"max relative gradient error {worst:.3e}, {instances} instances"


def check_mrt_dominance(cfg, seed, instances):
    """Full-power MRT collects at least as much RF power as any beam set.

    Passes when no beam set beats MRT by more than 1e-12 of MRT's power.
    """
    margin = np.inf
    ok = True
    for i in range(instances):
        rng = trial_rng(seed, cell=5, trial=i)
        k_ues = int(rng.integers(1, 6))
        n_antennas = int(rng.integers(1, 5))
        channels = _instance(cfg, rng, k_ues, n_antennas)
        caps = rng.uniform(0.0, 300.0, size=k_ues)
        best = input_power(channels, mrt_set(channels, caps))
        shape = (_BEAM_SETS, k_ues, n_antennas)
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        scale = np.sqrt(caps * rng.uniform(0.0, 1.0, size=shape[:2]))
        beam_sets = raw / np.linalg.norm(raw, axis=-1, keepdims=True) * scale[..., None]
        for beams in beam_sets:
            gap = best - input_power(channels, beams)
            margin = min(margin, gap)
            ok = ok and gap >= -1e-12 * best
    return ok, (
        f"min MRT margin {margin:.3e} mW over {instances}x{_BEAM_SETS} beam sets"
    )


def check_harvester_shape(cfg, seed, instances):
    """Zero at zero input, monotone, within [0, c], saturating, exact midpoint.

    Checked for every saturation level c the config uses.  At p_in = b,
    harvest evaluates c * (sigmoid(0) - m) / (1 - m) with sigmoid(0) == 0.5
    exactly, the operations the midpoint test below writes.
    """
    del seed, instances  # deterministic check
    problems = []
    for c in sorted({cfg.eh_c, *cfg.sweep_c}):
        params = EhParams(cfg.eh_a, cfg.eh_b, c)
        if abs(harvest(params, 0.0)) > 1e-9 * c:
            problems.append(f"c={c:g}: nonzero at zero input")
        values = harvest(params, np.linspace(0.0, 100.0 * params.b, 10_000))
        if np.any(np.diff(values) < 0):
            problems.append(f"c={c:g}: not monotone")
        if np.any(values < 0) or np.any(values > c):
            problems.append(f"c={c:g}: escapes [0, c]")
        if harvest(params, 1e6 * params.b) < 0.999 * c:
            problems.append(f"c={c:g}: does not saturate")
        if harvest(params, params.b) != c * (0.5 - params.m) / (1.0 - params.m):
            problems.append(f"c={c:g}: midpoint off")
    return not problems, "; ".join(problems) if problems else "curve shape as designed"


CHECKS = [
    ("duality-identity", check_duality_identity),
    ("permutation-enumeration", check_permutation_enumeration),
    ("grid-oracle", check_grid_oracle),
    ("finite-difference-gradient", check_gradient_fd),
    ("mrt-dominance", check_mrt_dominance),
    ("harvester-shape", check_harvester_shape),
]


def run_all(cfg, seed, instances):
    """Run every check; returns list of (name, passed, detail)."""
    results = []
    for name, fn in CHECKS:
        passed, detail = fn(cfg, seed, instances)
        results.append((name, bool(passed), detail))
    return results
