"""The C solver kernel: it solves as _ref does, and the loader falls back to _ref.

kernel.c ports ``_ref.solve_pga`` operation for operation, but its Gram
products, face solve, dot products and complex arithmetic round as written
in C, not as BLAS, LAPACK and numpy do, so the two agree to rounding.  The
objectives of full solves must agree to 1e-12 relative (measured: 7e-15).
After a single step they may differ by more: the step comes from a face
Hessian whose Gram downdates cancel, so its entries carry an error of
about eps times the largest signal-to-noise ratio, and so does the point
one step reaches.  There the objectives must agree to 1e-12 relative or
to eps * N * sum(dw) * (1 + SNR), whichever is larger; the second decides
only at budgets of 1 mW and more.  The tests that need the compiled
kernel skip only when the interpreter has no C compiler; with one, a
failed build fails them.
"""

import shutil
import subprocess

import numpy as np
import pytest

from uavwpt import _kernels
from uavwpt._kernels import _c, _ref
from uavwpt.errors import ConsistencyError

HAVE_CC = shutil.which(_c.compiler_command()[0]) is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler to build kernel.c")

SIGMA2 = 0.001
TOLS = (1e-8, 1e-6)  # tol, kkt_tol
LINE_SEARCH = (1e-4, 0.5)  # armijo, shrink
BUDGETS = np.array([0.0, 1e-9, 1e-6, 1e-3, 1.0, 40.0, 1e3, 1e6])
ROWS_PER_BUDGET = 6
EPS = np.finfo(float).eps


def _kernel():
    kernel = _c.load()
    assert kernel is not None, "a C compiler exists but kernel.c did not build"
    return kernel


def _instances(k, n, weights, seed):
    """ROWS_PER_BUDGET rows at each budget of BUDGETS, with one weight vector."""
    rng = np.random.default_rng(seed)
    rows = ROWS_PER_BUDGET * BUDGETS.size
    h = rng.standard_normal((rows, k, n)) + 1j * rng.standard_normal((rows, k, n))
    h *= 10.0 ** rng.uniform(-3.0, -1.0, size=(rows, k, 1))
    if weights == "descending":
        w = np.sort(rng.uniform(0.05, 1.0, k))[::-1]
    elif weights == "zero":
        w = np.zeros(k)
    else:  # tied in pairs: every other decrement is zero
        w = np.repeat(np.linspace(1.0, 0.25, (k + 1) // 2), 2)[:k]
    dw = np.tile(w - np.append(w[1:], 0.0), (rows, 1))
    return h, dw, np.tile(BUDGETS, ROWS_PER_BUDGET)


def _step_tolerance(h, dw, budget, f):
    snr = budget * np.max(np.sum(np.abs(h) ** 2, axis=-1), axis=-1) / SIGMA2
    return 1e-12 * np.abs(f) + 4.0 * EPS * h.shape[-1] * dw.sum(axis=-1) * (1.0 + snr)


def _assert_feasible(p, budget):
    assert np.all(p >= 0.0)
    assert np.all(p.sum(axis=-1) <= budget)


def _assert_flags_agree(budget, converged, kkt, conv_ref, kkt_ref):
    """Equal converged flags, but where f cannot resolve the Armijo test.

    At budgets of 1e3 mW and more a row can stop as numerically stationary
    close to the KKT tolerance (no ascent that f resolves), and rounding
    decides on which side of it the two land.
    """
    assert np.array_equal(converged[budget <= 40.0], conv_ref[budget <= 40.0])
    differ = converged != conv_ref
    assert np.all(kkt[differ & ~converged] <= 100 * TOLS[1])
    assert np.all(kkt_ref[differ & ~conv_ref] <= 100 * TOLS[1])


def _assert_solves_as_ref(h, dw, budget):
    args = (SIGMA2, budget, *TOLS, 10_000, *LINE_SEARCH)
    p, f, iterations, kkt, converged = _kernel().solve_pga_batch(h, dw, *args)
    _, f_ref, it_ref, kkt_ref, conv_ref = _ref.solve_pga_batch(h, dw, *args)

    _assert_feasible(p, budget)
    assert np.all(np.abs(f - f_ref) <= 1e-12 * np.abs(f_ref))
    zero = budget == 0.0
    assert not p[zero].any() and not f[zero].any() and not iterations[zero].any()
    assert converged[zero].all()
    _assert_flags_agree(budget, converged, kkt, conv_ref, kkt_ref)
    assert np.all(iterations[~converged] < 10_000) and np.all(it_ref[~conv_ref] < 10_000)


@needs_cc
def test_backend_is_c():
    assert _kernels.BACKEND == "c"
    assert isinstance(_kernels.solve_pga_batch.__self__, _c.CKernel)


@needs_cc
@pytest.mark.parametrize("weights", ["descending", "zero", "tied"])
@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("k", [1, 2, 5, 16])
def test_c_solves_as_ref_does(k, n, weights):
    _assert_solves_as_ref(*_instances(k, n, weights, seed=100 * k + n))


@needs_cc
def test_c_solves_as_ref_does_past_16_users():
    # One 40 mW row at K=64, N=8: the kernel's Gram matrix and its
    # downdates hold 2 K^2 complex values, far past the sizes above.
    h, dw, budget = _instances(64, 8, "descending", seed=6408)
    row = np.flatnonzero(budget == 40.0)[:1]
    _assert_solves_as_ref(h[row], dw[row], budget[row])


@needs_cc
@pytest.mark.parametrize("weights", ["descending", "zero", "tied"])
@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("k", [1, 2, 5, 16])
def test_one_iteration_as_ref(k, n, weights):
    """max_iter = 1: one line search from the uniform start.

    With N >= K the face Hessian is definite (a Schur product of
    full-rank Gram matrices), so the first step is well conditioned and the
    objectives agree as converged ones do.  With N < K the face can be
    singular, and the ridge that keeps it solvable amplifies rounding in
    the step by up to 1 / ridge; there both must still ascend from the
    start, with the same iteration counts.
    """
    h, dw, budget = _instances(k, n, weights, seed=100 * k + n + 1)
    args = (SIGMA2, budget, *TOLS, 1, *LINE_SEARCH)
    p, f, iterations, kkt, converged = _kernel().solve_pga_batch(h, dw, *args)
    _, f_ref, it_ref, kkt_ref, conv_ref = _ref.solve_pga_batch(h, dw, *args)

    _assert_feasible(p, budget)
    assert np.array_equal(iterations, it_ref)
    _assert_flags_agree(budget, converged, kkt, conv_ref, kkt_ref)
    if n >= k:
        assert np.all(np.abs(f - f_ref) <= _step_tolerance(h, dw, budget, f_ref))
    else:
        f_start = np.array([
            _ref.dual_objective(h[b], dw[b], np.full(k, budget[b] / k), SIGMA2)
            for b in range(budget.size)
        ])
        assert np.all(f >= f_start) and np.all(f_ref >= f_start)


@needs_cc
@pytest.mark.parametrize("k,n", [(5, 3), (16, 8), (1, 1)])
def test_each_row_is_its_own_solve(k, n):
    kernel = _kernel()
    h, dw, budget = _instances(k, n, "descending", seed=7 * k + n)
    args = (*TOLS, 10_000, *LINE_SEARCH)
    batch = kernel.solve_pga_batch(h, dw, SIGMA2, budget, *args)
    for b in range(budget.size):
        alone = kernel.solve_pga(h[b], dw[b], SIGMA2, budget[b], *args)
        for got, want in zip(alone, batch):
            assert np.asarray(got).tobytes() == want[b].tobytes()
        assert isinstance(alone[1], float) and isinstance(alone[2], int)
        assert isinstance(alone[4], bool)


@needs_cc
@pytest.mark.parametrize("bad", ["nan", "inf", "indefinite"])
def test_not_positive_definite_raises(bad):
    h, dw, budget = _instances(3, 2, "descending", seed=3)
    sigma2 = SIGMA2
    if bad == "indefinite":
        sigma2 = -SIGMA2  # A_0 = I - (p / |sigma2|) h h^H
        budget = np.full(budget.size, 1e3)
    else:
        h[4, 1, 0] = np.nan if bad == "nan" else np.inf
    for kernel in (_kernel(), _ref):
        with pytest.raises(ConsistencyError, match="not positive definite"):
            kernel.solve_pga_batch(h, dw, sigma2, budget, *TOLS, 10_000, *LINE_SEARCH)


@needs_cc
def test_bad_arrays_never_reach_c():
    h, dw, budget = _instances(3, 2, "descending", seed=4)
    kernel = _kernel()
    with pytest.raises(ValueError, match="expected h"):
        kernel.solve_pga_batch(h, dw[:, :2], SIGMA2, budget, *TOLS, 10, *LINE_SEARCH)
    with pytest.raises(ValueError, match="nonnegative"):
        kernel.solve_pga_batch(h, dw, SIGMA2, -budget - 1.0, *TOLS, 10, *LINE_SEARCH)
    # Strided and integer inputs are copied into C-contiguous float arrays.
    strided_h = np.repeat(h, 2, axis=-1)[..., ::2]
    strided_dw = np.repeat(dw, 2, axis=-1)[..., ::2]
    assert not (strided_h.flags.c_contiguous or strided_dw.flags.c_contiguous)
    whole = budget.round()
    out = kernel.solve_pga_batch(strided_h, strided_dw, SIGMA2, whole.astype(int), *TOLS, 10,
                                 *LINE_SEARCH)
    want = kernel.solve_pga_batch(h, dw, SIGMA2, whole, *TOLS, 10, *LINE_SEARCH)
    for got, expected in zip(out, want):
        assert got.tobytes() == expected.tobytes()


@needs_cc
def test_warm_cache_loads_without_the_compiler(monkeypatch):
    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran on a warm cache")

    assert (_c.CACHE_DIR / _c.library_name(_c.SOURCE.read_bytes())).is_file()
    monkeypatch.setattr(subprocess, "run", no_compiler)
    monkeypatch.setattr(_c, "compiler_command", no_compiler)
    assert isinstance(_c.load(), _c.CKernel)


@needs_cc
def test_cold_build_removes_stale_libraries(monkeypatch, tmp_path):
    stale = tmp_path / "kernel-0000.so"
    other = tmp_path / "other.so"
    for path in (stale, other):
        path.write_bytes(b"not a library")
    monkeypatch.setattr(_c, "CACHE_DIR", tmp_path)
    assert isinstance(_c.load(), _c.CKernel)
    built = tmp_path / _c.library_name(_c.SOURCE.read_bytes())
    assert sorted(tmp_path.iterdir()) == sorted([built, other])

    # A warm load only opens the cached library.
    stale.write_bytes(b"not a library")
    assert isinstance(_c.load(), _c.CKernel)
    assert sorted(tmp_path.iterdir()) == sorted([built, other, stale])


@needs_cc
def test_read_only_cache_builds_a_private_copy(monkeypatch, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(_c, "CACHE_DIR", blocker / "__pycache__")  # cannot be created
    kernel = _c.load()
    assert isinstance(kernel, _c.CKernel)
    h, dw, budget = _instances(2, 2, "descending", seed=5)
    assert kernel.solve_pga_batch(h, dw, SIGMA2, budget, *TOLS, 100, *LINE_SEARCH)[4].all()
    assert list(tmp_path.iterdir()) == [blocker]


@pytest.mark.parametrize(
    "failure",
    [subprocess.CalledProcessError(1, ["cc"]), FileNotFoundError("cc"),
     subprocess.TimeoutExpired(["cc"], 1.0)],
    ids=["compile error", "no compiler", "timeout"],
)
def test_failed_build_falls_back_to_ref(monkeypatch, tmp_path, failure):
    def failing(source_path, out_path, link=()):
        raise failure

    monkeypatch.setattr(_c, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(_c, "compile_library", failing)
    assert _kernels._select() == ("python", _ref.solve_pga_batch, _ref.solve_pga)
    assert list(tmp_path.iterdir()) == []  # no temporary file left behind
