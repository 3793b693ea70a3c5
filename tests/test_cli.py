"""Command-line behavior: CSV schema, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

from uavwpt.cli import CSV_HEADER, SweepSpec, format_csv, main
from uavwpt.config import load_config

# One-trial first cell of the stock sweep, locked as a regression anchor.
ANCHOR_ROW = "40,100,0.897057470951,0,48,0"

FIRST_CELL = [
    "--set", "sweep.p_cir=40",
    "--set", "sweep.c=100",
    "--trials", "1",
]


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_simulate_regression_anchor(tmp_path):
    out = tmp_path / "row.csv"
    assert main(["simulate", *FIRST_CELL, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    got = lines[1].split(",")
    want = ANCHOR_ROW.split(",")
    assert got[0] == want[0] and got[1] == want[1]
    assert float(got[2]) == pytest.approx(float(want[2]), rel=1e-9)
    assert float(got[3]) == 0.0
    assert float(got[4]) == pytest.approx(48.0, rel=1e-12)
    assert float(got[5]) == 0.0


def test_csv_bytes_are_clean(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ["simulate", "--trials", "2", "--set", "sweep.p_cir=40,80", "--out", str(out)]
    assert main(args) == 0
    raw = _read(out)
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    lines = raw.decode().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 4  # 2 circuit powers x 2 saturation levels
    for line in lines[1:]:
        assert len(line.split(",")) == 6


def test_simulate_repeats_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["--trials", "3", "--set", "sweep.p_cir=40,60", "--set", "sweep.c=200"]
    assert main(["simulate", *args, "--out", str(a)]) == 0
    assert main(["simulate", *args, "--out", str(b)]) == 0
    assert _read(a) == _read(b)


def test_infeasible_cell_reported_not_fatal(tmp_path):
    out = tmp_path / "dead.csv"
    args = [
        "simulate", "--trials", "3",
        "--set", "sweep.p_cir=300",
        "--set", "sweep.c=100",
        "--out", str(out),
    ]
    assert main(args) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[2]) == 0.0
    assert float(row[4]) == 0.0
    assert float(row[5]) == 1.0


def test_bits_flag_rescales_rates_only(tmp_path):
    nats, bits = tmp_path / "n.csv", tmp_path / "b.csv"
    base = ["simulate", *FIRST_CELL]
    assert main([*base, "--out", str(nats)]) == 0
    assert main([*base, "--bits", "--out", str(bits)]) == 0
    row_n = nats.read_text().splitlines()[1].split(",")
    row_b = bits.read_text().splitlines()[1].split(",")
    # .12g output resolves 12 significant digits
    assert float(row_b[2]) == pytest.approx(float(row_n[2]) / math.log(2), rel=1e-11)
    assert row_b[4] == row_n[4]  # budget stays in milliwatts


def test_seed_flag_changes_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", *FIRST_CELL, "--out", str(a)]) == 0
    assert main(["simulate", *FIRST_CELL, "--seed", "99", "--out", str(b)]) == 0
    assert _read(a) != _read(b)


def test_single_record_deterministic_and_consistent(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["single", "--out", str(a)]) == 0
    assert main(["single", "--out", str(b)]) == 0
    assert _read(a) == _read(b)
    record = json.loads(a.read_text())
    assert record["seed"] == 12345
    assert record["units"] == "nats"
    assert record["budget"] == pytest.approx(
        0.8 * (record["p_out"] - 40.0), rel=1e-12
    )
    assert len(record["allocation"]) == 5
    assert sum(record["allocation"]) <= record["budget"] * (1 + 1e-9)
    beams = np.asarray(record["beams"])
    assert beams.shape == (5, 3, 2)
    assert record["solve"]["converged"] is True
    assert record["weighted_throughput"] == pytest.approx(
        record["solve"]["objective"], rel=1e-12
    )


def test_single_bits_leaves_solver_block_in_nats(tmp_path):
    out = tmp_path / "one.json"
    assert main(["single", "--bits", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["units"] == "bits"
    assert record["weighted_throughput"] == pytest.approx(
        record["solve"]["objective"] / math.log(2), rel=1e-12
    )


def test_validate_small_run_passes(capsys):
    assert main(["validate", "--instances", "4"]) == 0
    out = capsys.readouterr().out
    for name in (
        "duality-identity",
        "permutation-enumeration",
        "grid-oracle",
        "finite-difference-gradient",
        "mrt-dominance",
        "harvester-shape",
    ):
        assert name in out
    assert "FAIL" not in out


def test_missing_config_exits_2(capsys):
    assert main(["simulate", "--config", "/nope/missing.ini"]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_override_exits_2(capsys):
    assert main(["simulate", "--set", "ue.bogus=3"]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_trials_flag_exits_2(capsys):
    assert main(["simulate", "--trials", "0"]) == 2
    assert "trials" in capsys.readouterr().err


def test_defaults_round_trip(tmp_path, capsys):
    assert main(["defaults"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "defaults.ini"
    path.write_text(text)
    cfg = load_config(str(path))
    assert cfg.n_ues == 5 and cfg.trials == 10_000


def test_nonconvergence_warns_but_emits(tmp_path, capsys):
    out = tmp_path / "warn.csv"
    args = ["simulate", *FIRST_CELL, "--set", "solver.max_iter=1", "--out", str(out)]
    assert main(args) == 0
    assert "warning" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2


def test_format_csv_shapes_floats():
    spec = SweepSpec((40.0,), (100.0,), 1, 1)
    assert spec.cells == [(40.0, 100.0)]
    from uavwpt.cli import SweepRow

    row = SweepRow(40.0, 100.0, 1.0 / 3.0, 0.0, 48.0, 0.0)
    text = format_csv([row])
    assert text == f"{CSV_HEADER}\n40,100,0.333333333333,0,48,0\n"


def test_sweep_rows_carry_no_instance_dict_and_pickle():
    # Callers that keep many sweeps pay for every row's size.
    import pickle
    from dataclasses import replace

    from uavwpt.cli import SweepRow

    row = SweepRow(40.0, 100.0, 1.0 / 3.0, 0.0, 48.0, 0.0)
    assert not hasattr(row, "__dict__")
    assert pickle.loads(pickle.dumps(row)) == row
    assert replace(row, c=200.0).c == 200.0
