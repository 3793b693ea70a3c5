"""Output checks computed apart from the program.

The program's ``channel`` functions are called only to regenerate the exact
inputs a sweep drew (same seed, cell and trial streams).  Everything compared
against the CSV rows is computed here: the MRT input power in closed form
p_in = sum_k p_max_k ||h_k||^2, the sigmoid harvester written out below, the
budget max(0, phi (p_out - P_cir)), per-trial throughput bounds, and an
independent optimum of the slogdet-based DPC objective found with
``scipy.optimize`` and certified by its Frank-Wolfe duality gap.

Each check returns a list of failure strings; an empty list means it passed.
"""

import math

import numpy as np

from uavwpt.channel import draw_channel, draw_topology, trial_rng
from uavwpt.emwt import run_emwt

BUDGET_RTOL = 1e-9     # recomputed budget vs the program's, relative
OPT_RTOL = 1e-6        # program throughput may trail the optimum by this share
BOUND_RTOL = 1e-9      # slack on upper bounds, for rounding only


def _close(x, y, rtol, atol=1e-12):
    return abs(x - y) <= atol + rtol * max(abs(x), abs(y))


def trial_channels(cfg, seed, cell, trial):
    """The channel realization trial ``trial`` of cell ``cell`` used, as
    ``run_sweep`` draws it (fresh topology per trial, downlink = uplink)."""
    if cfg.frozen_topology or cfg.independent_dl:
        raise ValueError("the checks cover the default topology and reciprocal downlink")
    rng = trial_rng(seed, cell=cell, trial=trial)
    topo = draw_topology(
        rng, cfg.n_ues, cfg.r_min, cfg.r_max, cfg.height, cfg.alpha, cfg.kappa
    )
    return draw_channel(rng, topo, cfg.n_antennas)


def budget(cfg, p_cir, c, h):
    """Downlink budget (mW) of one trial from its uplink channel matrix."""
    p_in = float(np.sum(cfg.p_max * np.sum(np.abs(h) ** 2, axis=1)))
    a, b = cfg.eh_a, cfg.eh_b
    m = 1.0 / (1.0 + math.exp(a * b))
    s = 1.0 / (1.0 + math.exp(-a * (p_in - b)))
    p_out = min(max(c * (s - m) / (1.0 - m), 0.0), c)
    return max(0.0, cfg.amp_efficiency * (p_out - p_cir))


def rate_bounds(cfg, h, b):
    """(lower, upper) bounds on the optimal weighted throughput (nats).

    Lower: the best single user served alone with the whole budget.  Upper:
    every user alone with the whole budget, sum_k w_k log(1 + B ||h_k||^2 / s2).
    """
    single = cfg.weights * np.log1p(b * np.sum(np.abs(h) ** 2, axis=1) / cfg.noise_power)
    return float(np.max(single)), float(np.sum(single))


def dpc_objective(h, w, order, p, sigma2):
    """Weighted DPC throughput, direct per-user form with slogdet, and its gradient."""
    k_ues, n = h.shape
    ws = [w[j] for j in order] + [0.0]
    acc = np.eye(n, dtype=complex)
    prev = 0.0
    value = 0.0
    grad = np.zeros(k_ues)
    for k, j in enumerate(order):
        acc = acc + (p[j] / sigma2) * np.outer(h[j], h[j].conj())
        sign, logdet = np.linalg.slogdet(acc)
        if sign <= 0:
            raise ArithmeticError("accumulated matrix is not positive definite")
        value += ws[k] * (logdet - prev)
        prev = logdet
        # sum_k w_k (L_k - L_{k-1}) = sum_k (w_k - w_{k+1}) L_k, and
        # dL_k/dp_m = h_m^H A_k^{-1} h_m / sigma2 for every m encoded up to k.
        decrement = ws[k] - ws[k + 1]
        if decrement:
            inv = np.linalg.inv(acc)
            for m in order[: k + 1]:
                grad[m] += decrement * float(np.real(h[m].conj() @ inv @ h[m])) / sigma2
    return value, grad


def independent_optimum(h, w, sigma2, b):
    """Certified bracket (lo, hi) of the largest weighted throughput at budget b.

    lo is the objective at the SLSQP solution made feasible; hi adds the
    Frank-Wolfe gap B max(0, max_k g_k) - g.p, which bounds the optimum of a
    concave objective over {p >= 0, sum p <= B} from above.
    """
    from scipy.optimize import minimize

    k_ues = len(w)
    order = sorted(range(k_ues), key=lambda k: (-w[k], k))

    def negated(x):
        value, grad = dpc_objective(h, w, order, b * x, sigma2)
        return -value, -b * grad

    res = minimize(
        negated,
        np.full(k_ues, 1.0 / k_ues),
        jac=True,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * k_ues,
        constraints=[{"type": "ineq", "fun": lambda x: 1.0 - x.sum(),
                      "jac": lambda x: -np.ones(k_ues)}],
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    x = np.clip(res.x, 0.0, None)
    x /= max(1.0, float(x.sum()))
    p = b * x
    lo, grad = dpc_objective(h, w, order, p, sigma2)
    gap = b * max(0.0, float(np.max(grad))) - float(grad @ p)
    return lo, lo + max(gap, 0.0)


def check_rows(cfg, spec, rows, saturated):
    """Cheap checks of every row of one sweep.

    Returns (failures, infeasible) where ``infeasible[i]`` counts cell i's
    trials with a zero recomputed budget, for pooling across rounds.
    """
    failures = []
    infeasible = []
    if len(rows) != len(spec.cells):
        return [f"{len(rows)} rows for {len(spec.cells)} cells"], infeasible
    for i, ((p_cir, c), row) in enumerate(zip(spec.cells, rows)):
        where = f"seed {spec.seed} cell p_cir={p_cir:g} c={c:g}"
        budgets = np.empty(spec.trials)
        lower = np.empty(spec.trials)
        upper = np.empty(spec.trials)
        for t in range(spec.trials):
            h = trial_channels(cfg, spec.seed, i, t).h
            budgets[t] = budget(cfg, p_cir, c, h)
            lower[t], upper[t] = rate_bounds(cfg, h, budgets[t])
        n_zero = int(np.count_nonzero(budgets == 0.0))
        infeasible.append(n_zero)
        if (row.p_cir, row.c) != (p_cir, c):
            failures.append(f"{where}: row is for p_cir={row.p_cir:g} c={row.c:g}")
        if not _close(row.mean_budget, float(np.mean(budgets)), BUDGET_RTOL):
            failures.append(
                f"{where}: mean_budget {row.mean_budget!r}, recomputed {np.mean(budgets)!r}"
            )
        if row.fraction_infeasible != n_zero / spec.trials:
            failures.append(
                f"{where}: frac_infeasible {row.fraction_infeasible!r}, "
                f"recomputed {n_zero}/{spec.trials}"
            )
        if saturated:
            closed = cfg.amp_efficiency * (c - p_cir)
            if not _close(row.mean_budget, closed, 1e-12) or row.fraction_infeasible != 0.0:
                failures.append(
                    f"{where}: saturated harvester needs mean_budget {closed!r} and "
                    f"frac_infeasible 0, got {row.mean_budget!r}, {row.fraction_infeasible!r}"
                )
        lo = float(np.mean(lower)) * (1.0 - OPT_RTOL)
        hi = float(np.mean(upper)) * (1.0 + BOUND_RTOL)
        if not lo <= row.mean_throughput <= hi:
            failures.append(
                f"{where}: mean_throughput {row.mean_throughput!r} outside [{lo!r}, {hi!r}]"
            )
        if not (math.isfinite(row.ci95_halfwidth) and row.ci95_halfwidth >= 0.0):
            failures.append(f"{where}: ci95 {row.ci95_halfwidth!r}")
    return failures, infeasible


def check_optimal(cfg, spec, rows):
    """Every trial of a small sweep against the independent optimum.

    Per trial, the program's ``run_emwt`` throughput must not trail the
    certified optimum by more than OPT_RTOL and must not exceed it or the
    single-user upper bound; each row's mean_throughput must lie in the mean
    of the per-trial brackets.  Returns (failures, number of trials that had
    a nonzero budget).
    """
    failures = []
    budgeted = 0
    for i, ((p_cir, c), row) in enumerate(zip(spec.cells, rows)):
        sys_cfg = cfg.system(circuit_power=p_cir, eh_c=c)
        lows = np.zeros(spec.trials)
        highs = np.zeros(spec.trials)
        for t in range(spec.trials):
            where = f"seed {spec.seed} cell p_cir={p_cir:g} c={c:g} trial {t}"
            channels = trial_channels(cfg, spec.seed, i, t)
            b = budget(cfg, p_cir, c, channels.h)
            got = run_emwt(sys_cfg, channels, tol=cfg.solver_tol, max_iter=cfg.solver_max_iter)
            if not _close(got.budget, b, BUDGET_RTOL):
                failures.append(f"{where}: budget {got.budget!r}, recomputed {b!r}")
            value = got.weighted_throughput
            if b == 0.0:
                if value != 0.0:
                    failures.append(f"{where}: zero budget but throughput {value!r}")
                continue
            budgeted += 1
            lows[t], highs[t] = independent_optimum(channels.h, cfg.weights, cfg.noise_power, b)
            upper = rate_bounds(cfg, channels.h, b)[1]
            top = min(highs[t], upper) * (1.0 + BOUND_RTOL)
            if not lows[t] * (1.0 - OPT_RTOL) <= value <= top:
                failures.append(
                    f"{where}: throughput {value!r} outside [{lows[t]!r}, {top!r}]"
                )
        lo = float(np.mean(lows)) * (1.0 - OPT_RTOL)
        hi = float(np.mean(highs)) * (1.0 + BOUND_RTOL)
        if not lo <= row.mean_throughput <= hi:
            failures.append(
                f"seed {spec.seed} cell p_cir={p_cir:g} c={c:g}: mean_throughput "
                f"{row.mean_throughput!r} outside the optimum bracket [{lo!r}, {hi!r}]"
            )
    return failures, budgeted
