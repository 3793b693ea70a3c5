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
residual moved in their last digits.  A
change that moves any byte here changes what users get from the same
config and seed.  Never regenerate a file to make this test pass: find out
why the bytes moved.
"""

from pathlib import Path

import pytest

from uavwpt.cli import main

DATA = Path(__file__).resolve().parent / "data"

# name -> command-line arguments; each writes tests/data/<name>.csv or .json,
# and tests/data/<name>.stderr (when present) holds its exact stderr.
CASES = {
    "sim_stock_t200": ["simulate", "--trials", "200"],
    "sim_pmax3_t300": ["simulate", "--set", "ue.p_max=3", "--trials", "300"],
    "sim_frozen_indep_t50": [
        "simulate",
        "--set", "topology.frozen=true",
        "--set", "channel.independent_dl=true",
        "--trials", "50",
    ],
    "sim_maxiter1_t20": ["simulate", "--set", "solver.max_iter=1", "--trials", "20"],
    "single_default": ["single"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path, capsys):
    suffix = ".json" if CASES[name][0] == "single" else ".csv"
    out = tmp_path / f"{name}{suffix}"
    assert main([*CASES[name], "--out", str(out)]) == 0
    stderr_file = DATA / f"{name}.stderr"
    want_stderr = stderr_file.read_text() if stderr_file.exists() else ""
    assert capsys.readouterr().err == want_stderr
    assert out.read_bytes() == (DATA / f"{name}{suffix}").read_bytes()
