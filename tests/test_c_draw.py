"""The C draw's wrapper, its loader and its fallback, and the sweep's imports.

tests/test_channel.py checks that the C draw gives channel.trial_rng's
streams bit for bit.  Here: bad arguments are refused before they reach C,
a cold build of draw.c removes only its own stale libraries, and without
the C draw a sweep draws each trial through trial_rng and its outputs do
not change.  The tests that need draw.c skip only when the interpreter has
no C compiler; with one, a failed build fails them.  Finally, a sweep that
draws in C on a warm cache imports neither numpy.random nor hashlib, nor
the compiler's subprocess and sysconfig.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uavwpt
from uavwpt import _kernels, cli
from uavwpt._kernels import _c

HAVE_CC = shutil.which(_c.compiler_command()[0]) is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler to build draw.c")
DATA = Path(__file__).resolve().parent / "data"


@needs_cc
def test_bad_draw_arguments_never_reach_c():
    draw = _kernels.draw_variates
    cells, trials = np.zeros(3, dtype=np.uint64), np.arange(3, dtype=np.uint64)
    uniform, normal = np.empty((3, 5)), np.empty((3, 2, 5, 3))
    draw(1, cells, trials, uniform, normal)  # outputs of any trailing shape
    with pytest.raises(ValueError, match="expected cells"):
        draw(1, cells, trials[:2], uniform, normal)
    with pytest.raises(ValueError, match="expected cells"):
        draw(1, cells.reshape(3, 1), trials.reshape(3, 1), uniform, normal)
    with pytest.raises(ValueError, match="expected cells"):
        draw(1, cells, trials, uniform[:2], normal)
    with pytest.raises(ValueError, match="expected cells"):
        draw(1, cells, trials, uniform.astype(np.float32), normal)
    with pytest.raises(ValueError, match="expected cells"):
        draw(1, cells, trials, uniform, normal[:, :, :, ::2])
    with pytest.raises(ValueError, match="nonnegative"):
        draw(-1, cells, trials, uniform, normal)


@needs_cc
def test_cold_draw_build_removes_only_its_own_stale_libraries(monkeypatch, tmp_path):
    stale, kernel = tmp_path / "draw-0000.so", tmp_path / "kernel-0000.so"
    for path in (stale, kernel):
        path.write_bytes(b"not a library")
    monkeypatch.setattr(_c, "CACHE_DIR", tmp_path)
    assert _c.load_draw() is not None
    built = [path for path in tmp_path.iterdir() if path.name.startswith("draw-")]
    assert len(built) == 1 and built[0] != stale
    assert sorted(tmp_path.iterdir()) == sorted([built[0], kernel])
    # The key covers numpy's library too: other bytes there, another name.
    name = _c.library_name(_c.DRAW_SOURCE.read_bytes(), "draw", [_c.NPYRANDOM.read_bytes()])
    assert built[0].name == name
    assert _c.library_name(_c.DRAW_SOURCE.read_bytes(), "draw", [b"other"]) != name


@pytest.mark.parametrize("failure", ["compile error", "no numpy library"])
def test_failed_draw_build_falls_back_to_trial_rng(monkeypatch, tmp_path, capsys, failure):
    def failing(source_path, out_path, link=()):
        raise subprocess.CalledProcessError(1, ["cc"])

    monkeypatch.setattr(_c, "CACHE_DIR", tmp_path)
    if failure == "compile error":
        monkeypatch.setattr(_c, "compile_library", failing)
    else:
        monkeypatch.setattr(_c, "NPYRANDOM", tmp_path / "missing" / "libnpyrandom.a")
    draw = _c.load_draw()
    assert draw is None
    assert list(tmp_path.iterdir()) == []  # no temporary file left behind
    monkeypatch.setattr(cli, "draw_variates", draw)
    for name, args in [
        ("sim_stock_t200", ["--trials", "200"]),
        ("sim_pmax3_t300", ["--set", "ue.p_max=3", "--trials", "300"]),
        ("sim_frozen_indep_t50", ["--set", "topology.frozen=true",
                                  "--set", "channel.independent_dl=true", "--trials", "50"]),
    ]:
        out = tmp_path / f"{name}.csv"
        assert cli.main(["simulate", *args, "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()
    assert capsys.readouterr().err == ""


_FOOTPRINT = """
import sys
import uavwpt.cli

assert uavwpt.cli.draw_variates is not None, "draw.c did not load"
assert uavwpt.cli.main(["simulate", "--trials", "2"]) == 0
print([name for name in {names!r} if name in sys.modules])
"""


@needs_cc
def test_a_sweep_imports_neither_numpy_random_nor_hashlib():
    # This process has built both libraries, so the child's cache is warm.
    assert _kernels.draw_variates is not None
    if not os.access(_c.CACHE_DIR, os.W_OK):
        pytest.skip("a read-only cache: each process builds its own libraries")
    names = ("numpy.random", "hashlib", "subprocess", "sysconfig")
    src = str(Path(uavwpt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT.format(names=names)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert run.stdout.splitlines()[-1] == "[]"
    assert run.stdout.startswith(cli.CSV_HEADER)
