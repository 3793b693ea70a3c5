"""The lockstep batch solver: every row is solved as if it were alone.

``solve_pga_batch`` runs projected Newton ascent on all rows at once, so
a row's result must not depend on which other rows share its batch or
chunk.  The same holds for the sweep's chunked channel draw.  Everything
here is compared bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavwpt import cli
from uavwpt._kernels import _ref, bytes_per_row
from uavwpt.channel import trial_rng
from uavwpt.cli import SweepSpec, format_csv, run_sweep
from uavwpt.config import load_config
from uavwpt.eh_model import max_harvest
from uavwpt.emwt import compute_budget
from uavwpt.rate import optimal_permutation
from uavwpt.solver import solve_batch, solve_power_allocation

ARGS = (1e-8, 1e-6)  # tol, kkt_tol
LINE_SEARCH = (1e-4, 0.5)  # armijo, shrink
SIGMA2 = 0.001
BUDGETS = (0.0, 1e-9, 1e-6, 1e-3, 0.3, 48.0, 0.0, 1e3, 1e6, 7.5)


def _batch(k, n, seed):
    """One instance per budget in BUDGETS, with distinct, tied and zero-tail weights."""
    rng = np.random.default_rng(seed)
    rows = len(BUDGETS)
    h = rng.standard_normal((rows, k, n)) + 1j * rng.standard_normal((rows, k, n))
    h *= 10.0 ** rng.uniform(-4.0, -1.0, size=(rows, k, 1))
    dw = np.empty((rows, k))
    for b in range(rows):
        w = np.sort(rng.uniform(0.05, 1.0, k))[::-1]
        if b % 3 == 1:
            w[:] = w[0]                # all weights tied: every decrement but the last is 0
        elif b % 3 == 2 and k > 2:
            w[1:3] = w[1]              # one tie inside the order
        dw[b, :-1] = w[:-1] - w[1:]
        dw[b, -1] = w[-1]
    return np.ascontiguousarray(h), dw, np.asarray(BUDGETS)


def _solve(h, dw, budget, max_iter):
    return _ref.solve_pga_batch(h, dw, SIGMA2, budget, *ARGS, max_iter, *LINE_SEARCH)


def _assert_rows_equal(got, want, rows):
    for name, g, w in zip(("p", "objective", "iterations", "kkt", "converged"), got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), f"{name} differs in rows {rows}"


@pytest.mark.parametrize("k,n", [(5, 3), (1, 3), (4, 1), (1, 1), (16, 8)])
@pytest.mark.parametrize("max_iter", [10_000, 1])
def test_rows_alone_mixed_and_chunked_agree(k, n, max_iter):
    h, dw, budget = _batch(k, n, seed=100 * k + n)
    mixed = _solve(h, dw, budget, max_iter)

    alone = [
        _solve(h[b : b + 1], dw[b : b + 1], budget[b : b + 1], max_iter)
        for b in range(len(budget))
    ]
    _assert_rows_equal([np.concatenate(col) for col in zip(*alone)], mixed, "alone")

    # The rows in a different order, cut into uneven chunks.
    order = np.random.default_rng(k + n).permutation(len(budget))
    chunks = [order[:3], order[3:4], order[4:]]
    parts = [_solve(h[c], dw[c], budget[c], max_iter) for c in chunks]
    split = [np.empty_like(col) for col in mixed]
    for c, part in zip(chunks, parts):
        for dst, src in zip(split, part):
            dst[c] = src
    _assert_rows_equal(split, mixed, "chunked")

    for b in range(len(budget)):
        one = _ref.solve_pga(h[b], dw[b], SIGMA2, budget[b], *ARGS, max_iter, *LINE_SEARCH)
        _assert_rows_equal([np.asarray(v) for v in one], [col[b] for col in mixed], b)
        assert isinstance(one[1], float) and isinstance(one[2], int)
        assert isinstance(one[4], bool)


def _first_step(h, dw, cap):
    """How the first line search of a lone solve starts: the Newton direction
    gives no ascent (the row takes the gradient arc), or its trial point at
    t = 1 is accepted or not (the row backtracks)."""
    p = np.full((1, dw.size), cap / dw.size)
    cap = np.array([cap])
    inv = _ref._invariants(h[None], dw[None])
    f, g, hess = _ref._value_grad(inv, slice(None), p, SIGMA2, np.eye(h.shape[-1]))
    step, newton = _ref._newton_step(p, g, hess, cap, 1e-9 * cap)
    if not newton[0]:
        return "no ascent"
    trial = _ref.project_simplex(p + step, cap)
    ascent = np.vecdot(g, trial - p)[0]
    value = _ref.dual_objective(h, dw, trial[0], SIGMA2)
    return "accept" if ascent > 0.0 and value >= f[0] + LINE_SEARCH[0] * ascent else "backtrack"


def _line_search_batch():
    """Rows whose first step is accepted, rows that backtrack, a row whose
    Newton direction gives no ascent, and a zero budget.

    The even rows have orthogonal channels and tied weights; the odd ones
    random channels and sorted weights.  The last row's weights increase
    along the encoding order, so its objective is not concave.
    """
    rng = np.random.default_rng(7)
    k = n = 3
    h = np.empty((7, k, n), dtype=complex)
    dw = np.empty((7, k))
    for b in range(6):
        if b % 2 == 0:
            h[b] = np.diag(np.sqrt([0.01, 0.008, 0.006])) * np.exp(1j * rng.uniform(0, 6, 3))
            dw[b] = [0.0, 0.0, 0.6]
        else:
            h[b] = 0.03 * (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
            w = np.sort(rng.uniform(0.05, 1.0, k))[::-1]
            dw[b] = np.append(w[:-1] - w[1:], w[-1])
    h[6] = 0.03 * (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
    dw[6] = [-0.4, -0.4, 0.9]  # weights 0.1, 0.5, 0.9
    return h, dw, np.array([0.5, 0.0, 0.2, 48.0, 1.0, 0.3, 10.0])


@pytest.mark.parametrize("kkt_tol", [1e-6, 0.0])
def test_line_search_outcomes_mixed_in_one_batch(kkt_tol):
    # With kkt_tol=0 rows run until a line search finds no ascent.
    h, dw, budget = _line_search_batch()
    starts = {_first_step(h[b], dw[b], budget[b]) for b in range(len(budget)) if budget[b]}
    assert starts == {"accept", "backtrack", "no ascent"}
    tols = (ARGS[0], kkt_tol, 500, *LINE_SEARCH)
    mixed = _ref.solve_pga_batch(h, dw, SIGMA2, budget, *tols)
    alone = [_ref.solve_pga(h[b], dw[b], SIGMA2, budget[b], *tols) for b in range(len(budget))]
    for b, one in enumerate(alone):
        _assert_rows_equal([np.asarray(v) for v in one], [col[b] for col in mixed], b)
    if kkt_tol == 0.0:
        # Stopped early without converging: the last line search had no ascent.
        assert sum(not conv and it < 500 for _, _, it, _, conv in alone) >= 3


def test_line_search_that_never_accepts_stops_at_the_start():
    # No trial step meets an infinite sufficient-increase constant, so every
    # row backtracks until the search gives up or runs out of ascent.
    h, dw, budget = _line_search_batch()
    p, _, it, _, conv = _ref.solve_pga_batch(h, dw, SIGMA2, budget, *ARGS, 50, np.inf, 0.5)
    live = budget > 0
    assert np.all(it[live] == 1) and not np.any(conv[live])
    assert np.all(p[live] == (budget[live] / 3)[:, None])


def test_each_trial_point_is_factorised_once(monkeypatch):
    h, dw, budget = _line_search_batch()
    h, dw, cap = h[3], dw[3], budget[3]
    max_iter = 6
    # kkt_tol=0 never holds here, so the solve runs max_iter iterations; a
    # longer run going further shows that none of them ran out of ascent.  A
    # point without ascent is projected but not evaluated, so the count
    # below also shows that every projected point was a trial point.
    longer = _ref.solve_pga(h, dw, SIGMA2, cap, ARGS[0], 0.0, max_iter + 1, *LINE_SEARCH)
    assert longer[2] == max_iter + 1
    counts = {"factorised": 0, "projected": 0}

    def cholesky(acc, _real=_ref._cholesky):
        counts["factorised"] += acc.shape[0]
        return _real(acc)

    def project_simplex(v, budget, _real=_ref.project_simplex):
        counts["projected"] += v.shape[0]
        return _real(v, budget)

    monkeypatch.setattr(_ref, "_cholesky", cholesky)
    monkeypatch.setattr(_ref, "project_simplex", project_simplex)
    out = _ref.solve_pga(h, dw, SIGMA2, cap, ARGS[0], 0.0, max_iter, *LINE_SEARCH)
    assert out[2] == max_iter and not out[4]
    assert counts["projected"] > max_iter  # some trial points were rejected
    assert counts["factorised"] == 1 + counts["projected"]


def test_zero_budget_rows_are_trivially_optimal():
    h, dw, budget = _batch(5, 3, seed=1)
    p, f, it, kkt, conv = _solve(h, dw, budget, 10_000)
    zero = budget == 0.0
    assert np.all(p[zero] == 0.0) and np.all(f[zero] == 0.0) and np.all(it[zero] == 0)
    assert np.all(kkt[zero] == 0.0) and np.all(conv[zero])
    assert np.all(conv[~zero]) and np.all(kkt[~zero] <= 1e-6)
    assert np.all(p >= 0.0) and np.all(p.sum(axis=1) <= budget)


def test_max_iter_one_stops_unconverged():
    h, dw, budget = _batch(5, 3, seed=2)
    _, _, it, _, conv = _solve(h, dw, budget, 1)
    assert np.all(it[budget > 0] == 1) and not np.any(conv[budget > 0])


def test_unbatched_kernels_match_their_batch_row():
    h, dw, budget = _batch(5, 3, seed=4)
    p = np.abs(h[:, :, 0]) * 10.0
    f, g = _ref.dual_objective_grad(h, dw, p, SIGMA2)
    for b in range(len(budget)):
        fb, gb = _ref.dual_objective_grad(h[b], dw[b], p[b], SIGMA2)
        assert fb == f[b] and gb.tobytes() == g[b].tobytes()
        assert _ref.dual_objective(h[b], dw[b], p[b], SIGMA2) == f[b]


def test_solve_batch_matches_solve_power_allocation():
    # Unsorted weights: solve_batch applies the encoding order and undoes it.
    from uavwpt.channel import ChannelRealization

    h, _, budget = _batch(4, 3, seed=5)
    weights = np.array([0.2, 0.4, 0.1, 0.3])
    got = solve_batch(h, weights, SIGMA2, budget)
    perm = optimal_permutation(weights)
    for b in range(len(budget)):
        one = solve_power_allocation(
            ChannelRealization(h[b]), weights, perm, SIGMA2, float(budget[b])
        )
        want = (one.p, one.objective, one.iterations, one.kkt_residual, one.converged)
        for g, w in zip(got, want):
            assert np.asarray(g[b]).tobytes() == np.asarray(w).tobytes()


def test_sweep_is_independent_of_the_chunk_size(monkeypatch):
    cfg = load_config(overrides=("ue.p_max=3", "sweep.p_cir=40,80", "solver.max_iter=9"))
    spec = SweepSpec(cfg.sweep_p_cir, cfg.sweep_c, 30, 5)
    rows, warnings = run_sweep(cfg, spec)
    monkeypatch.setattr(cli, "_CHUNK_TRIALS", 7)
    small_rows, small_warnings = run_sweep(cfg, spec)
    assert format_csv(small_rows) == format_csv(rows)
    assert small_warnings == warnings


def test_nonconverged_warnings_unchanged():
    # The counts are those of lone solve_power_allocation calls on each
    # trial's channel and budget, at an iteration limit some trials outrun.
    cfg = load_config(overrides=("sweep.p_cir=40,80", "solver.max_iter=4"))
    spec = SweepSpec(cfg.sweep_p_cir, cfg.sweep_c, 30, cfg.seed)
    _, warnings = run_sweep(cfg, spec)
    expected, total = [], 0
    for cell, (p_cir, c) in enumerate(spec.cells):
        sys_cfg = cfg.system(circuit_power=p_cir, eh_c=c)
        perm = optimal_permutation(sys_cfg.weights)
        nonconverged = 0
        for t in range(spec.trials):
            _, uplink, downlink = cli._draw_trial(cfg, trial_rng(spec.seed, cell, t), None)
            budget = compute_budget(
                max_harvest(sys_cfg.eh, sys_cfg.p_max, uplink),
                sys_cfg.amp_efficiency,
                sys_cfg.circuit_power,
            )
            report = solve_power_allocation(
                uplink if downlink is None else downlink,
                sys_cfg.weights,
                perm,
                sys_cfg.noise_power,
                float(budget),
                tol=cfg.solver_tol,
                max_iter=cfg.solver_max_iter,
            )
            nonconverged += not report.converged
        total += nonconverged
        if nonconverged:
            expected.append(
                f"cell p_cir={p_cir:g} c={c:g}: {nonconverged} of 30 trials did not converge"
            )
    assert warnings == expected
    assert 0 < total < len(spec.cells) * spec.trials


# 16 distinct descending weights.
_WIDE = ("ue.count=16", "ue.antennas=8", "ue.weights=" + ",".join(
    f"{1.0 - 0.05 * k:g}" for k in range(16)))


def _pooled_sweep(monkeypatch, cfg, spec, bound):
    """CSV, warnings and the budgets of every solve_batch call at a pool bound."""
    calls = []

    def counting(h, weights, sigma2, budgets, **kwargs):
        assert h.shape[0] == budgets.size and np.all(budgets > 0.0)
        calls.append(np.array(budgets))
        return solve_batch(h, weights, sigma2, budgets, **kwargs)

    monkeypatch.setattr(cli, "_POOL_BYTES", bound)
    monkeypatch.setattr(cli, "solve_batch", counting)
    rows, warnings = run_sweep(cfg, spec)
    return format_csv(rows), warnings, calls


@pytest.mark.parametrize(
    "overrides,trials,chunk",
    [
        ((), 1, 1024),
        ((), 3, 1024),
        ((), 10, 1024),
        ((), 10, 4),  # cells of three chunks, pooled across cells
        (("ue.p_max=3",), 30, 1024),  # mixed infeasible cells
        (("topology.frozen=true", "channel.independent_dl=true"), 10, 1024),
        (_WIDE, 2, 1024),
        (("solver.max_iter=4",), 10, 1024),
    ],
)
def test_pooled_solves_match_cells_solved_alone(monkeypatch, overrides, trials, chunk):
    cfg = load_config(overrides=overrides)
    spec = SweepSpec(cfg.sweep_p_cir, cfg.sweep_c, trials, 11)
    monkeypatch.setattr(cli, "_CHUNK_TRIALS", chunk)
    bound = cli._POOL_BYTES
    row_bytes = bytes_per_row(cfg.n_ues, cfg.n_antennas)
    csv, warnings, calls = _pooled_sweep(monkeypatch, cfg, spec, bound)
    # Bound 0: every chunk is solved alone; a huge bound: one call in all.
    alone_csv, alone_warnings, chunks = _pooled_sweep(monkeypatch, cfg, spec, 0)
    whole_csv, whole_warnings, whole = _pooled_sweep(monkeypatch, cfg, spec, 1 << 60)
    assert alone_csv == csv == whole_csv
    assert alone_warnings == warnings == whole_warnings
    if "solver.max_iter=4" in overrides:
        assert warnings and len(calls) < len(chunks)
    assert len(whole) == 1
    assert np.concatenate(chunks).tobytes() == whole[0].tobytes()

    # Each call holds whole chunks, in sweep order, and passes the bound
    # only when it holds one chunk.
    sizes = [c.size for c in chunks]
    edges = np.cumsum([0] + sizes).tolist()
    at = 0
    for budgets in calls:
        assert at + budgets.size in edges
        held = edges.index(at + budgets.size) - edges.index(at)
        assert budgets.size * row_bytes <= bound or held == 1
        at += budgets.size
    assert at == edges[-1]
    if row_bytes * max(sizes) * 2 <= bound:
        assert len(calls) < len(chunks)  # small cells do share calls
    if overrides == _WIDE:
        assert len(calls) < len(chunks)  # so do the 2-row cells at K=16, N=8


def test_chunk_that_reaches_the_bound_is_solved_at_once():
    # A cell of large chunks (the full stock sweep) holds no chunk in the
    # pool, so its row is ready when run_cell returns; small cells wait.
    cfg = load_config()
    pool = cli._SolvePool(cfg)
    rows_at_bound = -(-cli._POOL_BYTES // bytes_per_row(cfg.n_ues, cfg.n_antennas))
    big = SweepSpec(cfg.sweep_p_cir, cfg.sweep_c, rows_at_bound, 2)
    result = cli.run_cell(cfg, big, 0, pool)
    assert pool.empty
    assert result()[0].mean_throughput > 0.0
    cli.run_cell(cfg, SweepSpec(cfg.sweep_p_cir, cfg.sweep_c, 1, 2), 0, pool)
    assert not pool.empty


def test_all_infeasible_sweep_makes_no_kernel_call(monkeypatch):
    # No uplink power: every budget is zero and no trial reaches the solver.
    cfg = load_config(overrides=("ue.p_max=0",))
    spec = SweepSpec(cfg.sweep_p_cir, cfg.sweep_c, 10, 3)
    csv, warnings, calls = _pooled_sweep(monkeypatch, cfg, spec, cli._POOL_BYTES)
    assert calls == [] and warnings == []
    for row in csv.splitlines()[1:]:
        assert row.endswith(",0,0,0,1")


@settings(max_examples=30, deadline=None)
@given(
    k=st.sampled_from([1, 5, 16]),
    n=st.sampled_from([1, 3, 8]),
    kappa=st.sampled_from([0.0, 2.0]),
    frozen=st.booleans(),
    independent_dl=st.booleans(),
    seed=st.integers(0, 2**63),
    cell=st.integers(0, 17),
    start=st.one_of(st.integers(0, 50), st.integers(2**32 - 20, 2**32 + 20)),
    n_trials=st.integers(1, 20),
)
def test_chunked_draw_equals_per_trial_draws(
    k, n, kappa, frozen, independent_dl, seed, cell, start, n_trials
):
    cfg = load_config(
        overrides=(
            f"ue.count={k}",
            f"ue.antennas={n}",
            "ue.weights=1",
            f"channel.kappa={kappa}",
            f"topology.frozen={str(frozen).lower()}",
            f"channel.independent_dl={str(independent_dl).lower()}",
        )
    )
    frozen_topology = cli._frozen_topology(cfg, seed)
    stop = start + n_trials
    uplink, downlink = cli._draw_chunk(cfg, seed, cell, start, stop, frozen_topology)

    trials = [
        cli._draw_trial(cfg, trial_rng(seed, cell=cell, trial=t), frozen_topology)
        for t in range(start, stop)
    ]
    want_up = np.stack([up.h for _, up, _ in trials])
    want_down = np.stack([(up if down is None else down).h for _, up, down in trials])
    for got, want in ((uplink, want_up), (downlink, want_down)):
        assert got.shape == want.shape == (n_trials, k, n)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert (downlink is uplink) == (not independent_dl)
