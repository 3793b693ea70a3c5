"""Batches and blocks: every row is solved and drawn as if it were alone.

``solve_pga_batch`` solves each row with its own ``solve_pga`` call, and
the sweep pools the budgeted rows of its draw blocks into one such call,
so a row's result must not depend on which other rows share its batch,
chunk or block.  The same holds for the sweep's chunked channel draw.
Everything here is compared bit for bit.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavwpt import cli
from uavwpt._kernels import _ref
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
    p = np.full(dw.size, cap / dw.size)
    f, g, z = _ref.evaluate(h, dw, p, SIGMA2)
    step, newton = _ref._newton_step(p, g, z, dw, SIGMA2, cap, 1e-9 * cap)
    if not newton:
        return "no ascent"
    trial = _ref.project_simplex(p + step, cap)
    ascent = g @ (trial - p)
    value = _ref.dual_objective(h, dw, trial, SIGMA2)
    return "accept" if ascent > 0.0 and value >= f + LINE_SEARCH[0] * ascent else "backtrack"


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

    def factors(h, p, sigma2, _real=_ref.factors):
        counts["factorised"] += 1
        return _real(h, p, sigma2)

    def project_simplex(v, budget, _real=_ref.project_simplex):
        counts["projected"] += 1
        return _real(v, budget)

    monkeypatch.setattr(_ref, "factors", factors)
    monkeypatch.setattr(_ref, "project_simplex", project_simplex)
    out = _ref.solve_pga(h, dw, SIGMA2, cap, ARGS[0], 0.0, max_iter, *LINE_SEARCH)
    assert out[2] == max_iter and not out[4]
    assert counts["projected"] > max_iter  # some trial points were rejected
    assert counts["factorised"] == 1 + counts["projected"]


def test_each_iteration_builds_one_face_hessian(monkeypatch):
    # The Hessian is built only where a Newton step is taken: at the start
    # and at each accepted point, never at a rejected trial point or at the
    # point the solve returns.
    h, dw, budget = _line_search_batch()
    h, dw, cap = h[3], dw[3], budget[3]
    max_iter = 6
    evaluated = []  # (p, z) of every evaluation, in order
    stepped = []  # the p of every Newton step, in order
    built = []  # the z of every face Hessian, in order

    def evaluate(h, dw, p, sigma2, _real=_ref.evaluate):
        out = _real(h, dw, p, sigma2)
        evaluated.append((p.copy(), out[2]))
        return out

    def newton_step(p, g, z, *args, _real=_ref._newton_step):
        stepped.append(p.copy())
        return _real(p, g, z, *args)

    def face_hessian(z, *args, _real=_ref.face_hessian):
        built.append(z)
        return _real(z, *args)

    monkeypatch.setattr(_ref, "evaluate", evaluate)
    monkeypatch.setattr(_ref, "_newton_step", newton_step)
    monkeypatch.setattr(_ref, "face_hessian", face_hessian)
    p, _, iterations, _, _ = _ref.solve_pga(
        h, dw, SIGMA2, cap, ARGS[0], 0.0, max_iter, *LINE_SEARCH
    )
    assert iterations == max_iter
    assert len(evaluated) > len(built) + 1  # some trial points were rejected
    assert len(built) == len(stepped) == iterations
    for point, z in zip(stepped, built):
        # The face Hessian reads the z evaluated at the point it steps from.
        assert sum(z is z_eval for _, z_eval in evaluated) == 1
        p_eval = next(p_eval for p_eval, z_eval in evaluated if z_eval is z)
        assert np.array_equal(p_eval, point)
    # Points: the start, then each accepted trial point; the last of those is returned.
    assert np.array_equal(stepped[0], evaluated[0][0])
    assert np.array_equal(evaluated[-1][0], p)
    assert not any(z is evaluated[-1][1] for z in built)


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
    # Chunks of 1 and 7 split 30-trial cells; 45 and 1024 span 1-trial
    # cells, and 1024 spans 30-trial cells too.
    configs = (
        ("ue.p_max=3", "sweep.p_cir=40,80", "solver.max_iter=9"),
        ("topology.frozen=true", "channel.independent_dl=true", "solver.max_iter=9"),
    )
    for overrides in configs:
        cfg = load_config(overrides=overrides)
        for trials in (1, 30):
            spec = SweepSpec(cfg.sweep_p_cir, cfg.sweep_c, trials, 5)
            monkeypatch.setattr(cli, "_CHUNK_TRIALS", 1024)
            rows, warnings = run_sweep(cfg, spec)
            for chunk in (1, 7, 45):
                monkeypatch.setattr(cli, "_CHUNK_TRIALS", chunk)
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


def _solved_sweep(monkeypatch, cfg, spec):
    """CSV, warnings and the budgets of every solve_batch call of a sweep."""
    calls = []

    def counting(h, weights, sigma2, budgets, **kwargs):
        assert h.shape[0] == budgets.size and np.all(budgets > 0.0)
        calls.append(np.array(budgets))
        return solve_batch(h, weights, sigma2, budgets, **kwargs)

    monkeypatch.setattr(cli, "solve_batch", counting)
    rows, warnings = run_sweep(cfg, spec)
    return format_csv(rows), warnings, calls


def _cell_budgets(cfg, spec):
    """Each cell's budgets, from its own draw and its own SystemConfig, not the sweep's."""
    frozen = cli._frozen_topology(cfg, spec.seed)
    trials = np.arange(spec.trials)
    budgets = []
    for cell, (p_cir, c) in enumerate(spec.cells):
        uplink, _ = cli._draw_chunk(cfg, spec.seed, np.full_like(trials, cell), trials, frozen)
        sys_cfg = cfg.system(circuit_power=p_cir, eh_c=c)
        budgets.append(
            compute_budget(
                max_harvest(sys_cfg.eh, sys_cfg.p_max, uplink),
                sys_cfg.amp_efficiency,
                sys_cfg.circuit_power,
            )
        )
    return budgets


def _block_budgets(cfg, spec):
    """The budgeted rows (budget > 0) of each of the sweep's blocks, in sweep order.

    The sweep takes the cells in groups of max(1, _CHUNK_TRIALS // trials)
    and each group's cell-major rows in blocks of up to _CHUNK_TRIALS.
    """
    rows = np.concatenate(_cell_budgets(cfg, spec))
    group = max(1, cli._CHUNK_TRIALS // spec.trials) * spec.trials
    out = []
    for first in range(0, rows.size, group):
        for lo in range(first, min(first + group, rows.size), cli._CHUNK_TRIALS):
            block = rows[lo : min(lo + cli._CHUNK_TRIALS, first + group)]
            out.append(block[block > 0.0])
    return out


def _joined(calls):
    return np.concatenate(calls).tobytes() if calls else b""


@pytest.mark.parametrize(
    "overrides,trials,chunk",
    [
        ((), 1, 1024),
        ((), 3, 1024),
        ((), 10, 1024),
        ((), 10, 4),  # groups of one cell, in three blocks each
        (("ue.p_max=3",), 30, 1024),  # mixed infeasible cells
        (("topology.frozen=true", "channel.independent_dl=true"), 10, 1024),
        (_WIDE, 2, 1024),
        (("solver.max_iter=4",), 10, 1024),
        (("ue.p_max=3",), 30, 4),  # some blocks hold no budgeted row
    ],
)
def test_pooled_solves_match_cells_solved_alone(monkeypatch, overrides, trials, chunk):
    cfg = load_config(overrides=overrides)
    spec = SweepSpec(cfg.sweep_p_cir, cfg.sweep_c, trials, 11)
    monkeypatch.setattr(cli, "_CHUNK_TRIALS", chunk)
    expected = _block_budgets(cfg, spec)
    csv, warnings, calls = _solved_sweep(monkeypatch, cfg, spec)
    # One call per block with a budgeted row, holding those rows in sweep order.
    assert [c.tobytes() for c in calls] == [b.tobytes() for b in expected if b.size]
    if chunk < trials and "ue.p_max=3" in overrides:
        assert any(b.size == 0 for b in expected)
    if trials * len(spec.cells) <= chunk:
        assert len(calls) == 1  # the whole sweep is one block

    # Blocks of one cell each, then of one trial each.
    monkeypatch.setattr(cli, "_CHUNK_TRIALS", trials)
    alone_csv, alone_warnings, alone = _solved_sweep(monkeypatch, cfg, spec)
    monkeypatch.setattr(cli, "_CHUNK_TRIALS", 1)
    single_csv, single_warnings, single = _solved_sweep(monkeypatch, cfg, spec)
    assert alone_csv == csv == single_csv
    assert alone_warnings == warnings == single_warnings
    assert _joined(alone) == _joined(calls) == _joined(single)
    assert all(c.size == 1 for c in single)
    if "solver.max_iter=4" in overrides:
        assert warnings


def test_stock_round_draws_once_and_solves_as_blocks_of_one_cell(monkeypatch):
    # An 18 x 10 round draws and solves in one block; blocks of one cell
    # each (chunks of 10 trials) solve the same budgets, cell by cell.
    cfg = load_config()
    spec = SweepSpec(cfg.sweep_p_cir, cfg.sweep_c, 10, 21)

    real_draw = cli.draw_variates
    if real_draw is None:
        pytest.skip("draw.c is not built: the sweep draws trial by trial")

    def sweep(chunk):
        draws = []

        def counting(seed, cells, trials, uniform, normal):
            draws.append(np.unique(cells).size)
            return real_draw(seed, cells, trials, uniform, normal)

        monkeypatch.setattr(cli, "_CHUNK_TRIALS", chunk)
        monkeypatch.setattr(cli, "draw_variates", counting)
        return _solved_sweep(monkeypatch, cfg, spec) + (draws,)

    csv, warnings, calls, draws = sweep(1024)
    alone_csv, alone_warnings, alone_calls, alone_draws = sweep(spec.trials)
    assert draws == [18] and alone_draws == [1] * 18
    assert len(calls) == 1 and len(alone_calls) == 18
    assert csv == alone_csv and warnings == alone_warnings
    assert _joined(calls) == _joined(alone_calls)


@pytest.mark.parametrize(
    "trials,chunk,order",
    [
        # A one-cell group of three blocks is solved block by block, then built.
        (10, 4, ["solve", "solve", "solve", "cell"] * 18),
        # Two 3-trial cells share each block and are built after its solve.
        (3, 7, ["solve", "cell", "cell"] * 9),
    ],
)
def test_each_cell_is_built_right_after_its_last_block(monkeypatch, trials, chunk, order):
    cfg = load_config()
    spec = SweepSpec(cfg.sweep_p_cir, cfg.sweep_c, trials, 17)
    events = []
    built = []

    def solving(*args, **kwargs):
        events.append("solve")
        return solve_batch(*args, **kwargs)

    def building(throughputs, budgets, converged, _real=cli.run_cell):
        events.append("cell")
        built.append(budgets.tobytes())
        return _real(throughputs, budgets, converged)

    monkeypatch.setattr(cli, "_CHUNK_TRIALS", chunk)
    monkeypatch.setattr(cli, "solve_batch", solving)
    monkeypatch.setattr(cli, "run_cell", building)
    rows, warnings = run_sweep(cfg, spec)
    assert events == order
    monkeypatch.undo()
    # The cells are built in grid order, each from its own trials.
    assert built == [b.tobytes() for b in _cell_budgets(cfg, spec)]
    want_rows, want_warnings = run_sweep(cfg, spec)
    assert format_csv(rows) == format_csv(want_rows) and warnings == want_warnings


@pytest.mark.parametrize(
    "overrides,trials,sizes",
    [
        ((), 10, [180]),  # a stock round: 18 cells in one block
        (("ue.p_max=3",), 80, [960, 480]),  # groups of 12 cells, then the other 6
        (_WIDE, 2, [36]),
        (("sweep.p_cir=40",), 2500, [1024, 1024, 452] * 2),  # two cells of three blocks
    ],
)
def test_draw_block_sizes(monkeypatch, overrides, trials, sizes):
    cfg = load_config(overrides=overrides)
    spec = SweepSpec(cfg.sweep_p_cir, cfg.sweep_c, trials, 13)
    drawn = []

    def recording(cfg, seed, cells, trials, frozen, _real=cli._draw_chunk):
        drawn.append(cells.size)
        return _real(cfg, seed, cells, trials, frozen)

    monkeypatch.setattr(cli, "_draw_chunk", recording)
    run_sweep(cfg, spec)
    assert drawn == sizes


def test_all_infeasible_sweep_makes_no_kernel_call(monkeypatch):
    # No uplink power: every budget is zero and no trial reaches the solver.
    cfg = load_config(overrides=("ue.p_max=0",))
    spec = SweepSpec(cfg.sweep_p_cir, cfg.sweep_c, 10, 3)
    csv, warnings, calls = _solved_sweep(monkeypatch, cfg, spec)
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
    # Seeds and keys of one, two and more uint32 words.
    seed=st.one_of(
        st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**200)
    ),
    pairs=st.lists(
        st.tuples(
            st.one_of(st.integers(0, 17), st.integers(2**32 - 2, 2**64 - 1)),
            st.one_of(st.integers(0, 50), st.integers(2**32 - 20, 2**32 + 20)),
        ),
        min_size=1,
        max_size=20,
    ),
)
def test_chunked_draw_equals_per_trial_draws(
    k, n, kappa, frozen, independent_dl, seed, pairs
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
    cells, trials = (np.array(column, dtype=np.uint64) for column in zip(*pairs))
    drawn = [
        cli._draw_trial(cfg, trial_rng(seed, cell=cell, trial=t), frozen_topology)
        for cell, t in pairs
    ]
    want_up = np.stack([up.h for _, up, _ in drawn])
    want_down = np.stack([(up if down is None else down).h for _, up, down in drawn])
    # The C draw, then the trial-by-trial draw used without it.
    for draw in (cli.draw_variates, None):
        with mock.patch.object(cli, "draw_variates", draw):
            uplink, downlink = cli._draw_chunk(cfg, seed, cells, trials, frozen_topology)
        for got, want in ((uplink, want_up), (downlink, want_down)):
            assert got.shape == want.shape == (len(pairs), k, n)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert (downlink is uplink) == (not independent_dl)
