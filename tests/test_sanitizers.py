"""kernel.c and draw.c run clean under AddressSanitizer and UBSan.

Both sources are built with each sanitizer into a temporary cache
directory, under the names _c's loaders look for.  A child interpreter with
the sanitizer's runtime preloaded then loads them through those loaders and
drives them through the usual wrappers: solves at K in {1, 2, 5, 16, 64},
N in {1, 3, 8} and B in {0, 1, 1024}, zero budgets, one iteration, and NaN
and indefinite input (status 1); draws with seeds of one to seven words, cells
and trials past 2^32, and enough normals to reach the ziggurat's tails.  A
sanitizer report ends the child with a nonzero status (UBSan is built not
to recover), and any report fails the test.  The test skips when there is
no C compiler, when the compiler has no runtime for the sanitizer, or when
numpy's random library is missing.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import uavwpt
from uavwpt._kernels import _c

SANITIZERS = {
    "address": (("-fsanitize=address", "-fno-omit-frame-pointer"), "libasan.so"),
    "undefined": (("-fsanitize=undefined", "-fno-sanitize-recover=all"), "libubsan.so"),
}

# argv: cache directory, then the sanitizer's extra compile flags.
_DRIVER = r"""
import os
import sys
from pathlib import Path

os.environ.pop("LD_PRELOAD")  # for this process only, not for any it starts

import numpy as np

from uavwpt._kernels import _c
from uavwpt.channel import trial_rng
from uavwpt.errors import ConsistencyError

_c.CACHE_DIR = Path(sys.argv[1])
_c.FLAGS += tuple(sys.argv[2:])


def no_build(*args, **kwargs):
    raise AssertionError("the sanitized library is not in the cache")


_c.compile_library = no_build
kernel, draw = _c.load(), _c.load_draw()
assert kernel is not None and draw is not None

rng = np.random.default_rng(7)
SOLVE = (1e-8, 1e-6)  # tol, kkt_tol
LINE_SEARCH = (1e-4, 0.5)  # armijo, shrink


def instances(rows, k, n):
    h = rng.standard_normal((rows, k, n)) + 1j * rng.standard_normal((rows, k, n))
    h *= 10.0 ** rng.uniform(-3.0, -1.0, size=(rows, k, 1))
    w = np.sort(rng.uniform(0.05, 1.0, k))[::-1]
    dw = np.tile(w - np.append(w[1:], 0.0), (rows, 1))
    budget = rng.choice([0.0, 1e-6, 1.0, 40.0, 1e6], rows)
    return h, dw, budget


sizes = [(k, n, rows) for k in (1, 2, 5, 16, 64) for n in (1, 3, 8) for rows in (0, 1, 4)]
sizes += [(1, 1, 1024), (5, 3, 1024)]
for k, n, rows in sizes:
    h, dw, budget = instances(rows, k, n)
    for max_iter in (1, 10_000):
        p, f, iterations, kkt, converged = kernel.solve_pga_batch(
            h, dw, 1e-3, budget, *SOLVE, max_iter, *LINE_SEARCH)
        assert np.all(iterations <= max_iter) and not p[budget == 0.0].any()
    h, dw, _ = instances(1, k, n)
    assert kernel.solve_pga(h[0], dw[0], 1e-3, 0.0, *SOLVE, 100, *LINE_SEARCH)[1] == 0.0

h, dw, _ = instances(4, 5, 3)
nan = h.copy()
nan[2, 1, 0] = np.nan
for bad, sigma2, budget in ((nan, 1e-3, np.ones(4)), (h, -1e-3, np.full(4, 1e3))):
    try:
        kernel.solve_pga_batch(bad, dw, sigma2, budget, *SOLVE, 100, *LINE_SEARCH)
    except ConsistencyError:
        pass
    else:
        raise AssertionError("status 1 did not raise")

# Seeds of one to seven 32-bit words, keys of one and two words per cell and trial.
seeds = [0] + [(1 << (32 * words - 1)) + words for words in range(1, 8)]
cells = np.array([0, 3, (1 << 32) + 1, (1 << 40) + 5], dtype=np.uint64)
trials = np.array([1, (1 << 33) + 2, 7, (1 << 63) + 9], dtype=np.uint64)
for seed in seeds:
    for n_uniform, n_normal in ((0, 0), (5, 30), (0, 6)):
        uniform, normal = np.empty((4, n_uniform)), np.empty((4, n_normal))
        draw(seed, cells, trials, uniform, normal)
        stream = trial_rng(seed, int(cells[3]), int(trials[3]))
        assert uniform[3].tobytes() == stream.random(n_uniform).tobytes()
        assert normal[3].tobytes() == stream.standard_normal(n_normal).tobytes()
draw(1, cells[:0], trials[:0], np.empty((0, 5)), np.empty((0, 30)))
normal = np.empty((2, 100_000))
draw(5, cells[:2], trials[:2], np.empty((2, 0)), normal)
assert np.abs(normal).max() > 3.6541528853610088  # the ziggurat's tail region
print("ok")
"""


def _runtime(library):
    """The compiler's sanitizer runtime ``library`` as a path, or None."""
    found = subprocess.run(
        [*_c.compiler_command(), f"-print-file-name={library}"],
        capture_output=True, text=True, check=False,
    ).stdout.strip()
    return found if os.path.isabs(found) and os.path.isfile(found) else None


@pytest.mark.parametrize("sanitizer", sorted(SANITIZERS))
def test_c_libraries_run_clean_under_sanitizer(sanitizer, monkeypatch, tmp_path):
    if shutil.which(_c.compiler_command()[0]) is None:
        pytest.skip("no C compiler to build kernel.c and draw.c")
    flags, library = SANITIZERS[sanitizer]
    runtime = _runtime(library)
    if runtime is None:
        pytest.skip(f"the C compiler has no {library} runtime")
    if not _c.NPYRANDOM.is_file():
        pytest.skip(f"numpy's random library {_c.NPYRANDOM} is missing")

    # Build under the names the child's loaders compute from the same flags.
    monkeypatch.setattr(_c, "FLAGS", _c.FLAGS + flags)
    for source, link in ((_c.SOURCE, ()), (_c.DRAW_SOURCE, (_c.NPYRANDOM,))):
        name = _c.library_name(source.read_bytes(), source.stem, [p.read_bytes() for p in link])
        _c.compile_library(source, tmp_path / name, link)

    src = str(Path(uavwpt.__file__).resolve().parents[1])
    env = dict(os.environ, LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", _DRIVER, str(tmp_path), *flags],
        env=env, capture_output=True, text=True, timeout=600, check=False,
    )
    report = child.stderr[-4000:]
    assert child.returncode == 0, report
    assert "Sanitizer" not in child.stderr and "runtime error" not in child.stderr, report
    assert child.stdout.strip() == "ok"
