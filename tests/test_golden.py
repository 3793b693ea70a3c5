"""The CLI reproduces committed reference outputs byte for byte.

The files under tests/data were written by the per-trial engine before the
sweep solved each cell as one batch.  sim_maxiter1_t20.csv and
single_default.json were rewritten when the solver became projected Newton:
one Newton step is not one gradient step, and the single solve stops at a
point 1e-9 relative away.  single_default.json was rewritten again when
the solves against the Cholesky factors became forward substitution: three
allocation entries and the KKT residual moved in their last digit.  It
was rewritten once more when the solve moved to the C kernel, whose
factorisations round unlike LAPACK's: the same three allocation entries,
the objective (and the weighted throughput it equals) and the KKT
residual moved in their last digits.  It was rewritten a fourth time
when the evaluation came to update square-root factors by Givens rotations
instead of factorising each A_k: the same three allocation entries, the
objective (now within 1e-16 of its 60-digit value at the allocation,
which the old one missed by 3.9e-16) and the KKT residual moved in their
last digits.  sim_stock_t10000.csv, the full
stock sweep, was written by the sweep that pooled solves across pieces,
just before each draw block came to be solved in one call; it pins the
regime of 1024-trial blocks that no smaller case reaches.
sim_k16n8_t20.csv (16 users with 8 antennas, weights 1, 0.95, ..., 0.25)
was written just before the Hessian came to be built on the free face
only; it pins the solves past the stock K=5, N=3.  defaults.ini, the
output of ``uavwpt defaults``, was written just before the config keys
came to be listed in one table.  A change that
moves any byte here changes what users get from the same config and seed.
Never regenerate a file to make this test pass: find out why the bytes
moved.  The numpy backend, which runs where kernel.c cannot be built,
must write the same sweep files.
"""

import subprocess
from pathlib import Path

import pytest

from uavwpt import _kernels, cli
from uavwpt._kernels import _c
from uavwpt.cli import main

DATA = Path(__file__).resolve().parent / "data"

# name -> command-line arguments; each writes tests/data/<name>.csv or .json,
# and tests/data/<name>.stderr (when present) holds its exact stderr.
CASES = {
    "sim_stock_t200": ["simulate", "--trials", "200"],
    "sim_stock_t10000": ["simulate", "--trials", "10000"],
    "sim_pmax3_t300": ["simulate", "--set", "ue.p_max=3", "--trials", "300"],
    "sim_frozen_indep_t50": [
        "simulate",
        "--set", "topology.frozen=true",
        "--set", "channel.independent_dl=true",
        "--trials", "50",
    ],
    "sim_maxiter1_t20": ["simulate", "--set", "solver.max_iter=1", "--trials", "20"],
    "sim_k16n8_t20": [
        "simulate",
        "--set", "ue.count=16",
        "--set", "ue.antennas=8",
        "--set", "ue.weights=" + ",".join(f"{1 - 0.05 * i:g}" for i in range(16)),
        "--trials", "20",
    ],
    "single_default": ["single"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path, capsys):
    _assert_matches_golden(name, tmp_path, capsys)


# single_default.json is left out: its allocation and objective were
# written by the C kernel, whose last digits differ from _ref's.
@pytest.mark.parametrize(
    "name", ["sim_pmax3_t300", "sim_frozen_indep_t50", "sim_maxiter1_t20", "sim_k16n8_t20"]
)
def test_python_backend_matches_golden(name, monkeypatch, tmp_path, capsys):
    # Without a working compiler neither C library builds: the sweep solves
    # with _ref and draws each trial through channel.trial_rng.
    def failing(source_path, out_path, link=()):
        raise subprocess.CalledProcessError(1, ["cc"])

    monkeypatch.setattr(_c, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(_c, "compile_library", failing)
    backend, solve_pga_batch, solve_pga = _kernels._select()
    assert backend == "python"
    monkeypatch.setattr(_kernels, "BACKEND", backend)
    monkeypatch.setattr(_kernels, "solve_pga_batch", solve_pga_batch)
    monkeypatch.setattr(_kernels, "solve_pga", solve_pga)
    monkeypatch.setattr(cli, "draw_variates", _c.load_draw())
    assert cli.draw_variates is None
    _assert_matches_golden(name, tmp_path, capsys)


def test_defaults_match_golden(capsys):
    assert main(["defaults"]) == 0
    assert capsys.readouterr().out.encode() == (DATA / "defaults.ini").read_bytes()


def _assert_matches_golden(name, tmp_path, capsys):
    suffix = ".json" if CASES[name][0] == "single" else ".csv"
    out = tmp_path / f"{name}{suffix}"
    assert main([*CASES[name], "--out", str(out)]) == 0
    stderr_file = DATA / f"{name}.stderr"
    want_stderr = stderr_file.read_text() if stderr_file.exists() else ""
    assert capsys.readouterr().err == want_stderr
    assert out.read_bytes() == (DATA / f"{name}{suffix}").read_bytes()
