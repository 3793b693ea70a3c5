"""INI config loading, overrides, and strict-key error reporting."""

import dataclasses

import numpy as np
import pytest

from uavwpt.config import AppConfig, ConfigError, defaults_text, load_config


def test_defaults_load_without_file():
    cfg = load_config()
    assert isinstance(cfg, AppConfig)
    assert cfg.n_ues == 5
    assert cfg.n_antennas == 3
    assert cfg.kappa == 2.0
    assert cfg.alpha == 2.5
    assert cfg.noise_power == 0.001
    assert cfg.amp_efficiency == 0.8
    assert cfg.circuit_power == 40.0
    assert cfg.eh_a == 6400.0 and cfg.eh_b == 0.003 and cfg.eh_c == 200.0
    assert np.allclose(cfg.p_max, 200.0)
    assert np.allclose(cfg.weights, [0.3, 0.25, 0.2, 0.15, 0.1])
    assert cfg.sweep_p_cir == (40.0, 45.0, 50.0, 55.0, 60.0, 65.0, 70.0, 75.0, 80.0)
    assert cfg.sweep_c == (100.0, 200.0)
    assert cfg.trials == 10_000
    assert cfg.seed == 12345
    assert cfg.frozen_topology is False
    assert cfg.independent_dl is False


def test_defaults_text_round_trips(tmp_path):
    path = tmp_path / "defaults.ini"
    path.write_text(defaults_text())
    from_file = load_config(str(path))
    pure = load_config()
    for field in dataclasses.fields(AppConfig):
        left = getattr(from_file, field.name)
        right = getattr(pure, field.name)
        if isinstance(left, np.ndarray):
            assert np.array_equal(left, right), field.name
        else:
            assert left == right, field.name


def test_file_values_override_defaults(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[ue]\ncount = 2\nweights = 0.7, 0.3\np_max = 150\n"
        "[sweep]\ntrials = 3\nseed = 9\np_cir = 40, 60\nc = 100\n"
        "[channel]\nindependent_dl = true\n"
    )
    cfg = load_config(str(path))
    assert cfg.n_ues == 2
    assert np.allclose(cfg.weights, [0.7, 0.3])
    assert np.allclose(cfg.p_max, [150.0, 150.0])  # scalar broadcast
    assert cfg.trials == 3 and cfg.seed == 9
    assert cfg.sweep_p_cir == (40.0, 60.0)
    assert cfg.sweep_c == (100.0,)
    assert cfg.independent_dl is True


def test_set_overrides_apply_last(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[sweep]\ntrials = 3\n")
    cfg = load_config(str(path), overrides=("sweep.trials=7", "system.circuit_power=55"))
    assert cfg.trials == 7
    assert cfg.circuit_power == 55.0


def test_system_config_derivation():
    cfg = load_config()
    sys_cfg = cfg.system()
    assert sys_cfg.n_ues == 5
    assert sys_cfg.eh.c == 200.0
    swept = cfg.system(circuit_power=60.0, eh_c=100.0)
    assert swept.circuit_power == 60.0
    assert swept.eh.c == 100.0
    assert swept.eh.a == cfg.eh_a


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[engine]\nthrust = 11\n")
    with pytest.raises(ConfigError, match="engine"):
        load_config(str(path))


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[ue]\ncout = 5\n")
    with pytest.raises(ConfigError, match="cout"):
        load_config(str(path))


def test_bad_number_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[channel]\nkappa = sideways\n")
    with pytest.raises(ConfigError, match="kappa"):
        load_config(str(path))


def test_malformed_line_reports_position(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[ue]\ncount\n")
    with pytest.raises(ConfigError, match="2"):
        load_config(str(path))


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/run.ini")


def test_weights_length_mismatch(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[ue]\ncount = 3\nweights = 0.5, 0.5\n")
    with pytest.raises(ConfigError, match="weights"):
        load_config(str(path))


@pytest.mark.parametrize(
    "count,want",
    [("1", "ue.weights needs 1 value, got 2"),
     ("3", "ue.weights needs 1 or 3 comma-separated values, got 2")],
)
def test_vector_length_message_exits_2(count, want, capsys):
    from uavwpt.cli import main

    assert main(["simulate", "--trials", "2", "--set", f"ue.count={count}",
                 "--set", "ue.weights=1,2"]) == 2
    assert capsys.readouterr().err == f"config error: {want}\n"


def test_trials_must_be_positive(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[sweep]\ntrials = 0\n")
    with pytest.raises(ConfigError, match="trials"):
        load_config(str(path))


def test_bad_boolean_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[topology]\nfrozen = maybe\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_bad_override_shape():
    with pytest.raises(ConfigError):
        load_config(overrides=("sweep.trials",))
    with pytest.raises(ConfigError):
        load_config(overrides=("nosection.key=1",))
    with pytest.raises(ConfigError):
        load_config(overrides=("ue.bogus=1",))


def test_invalid_physics_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[system]\namp_efficiency = 1.4\n")
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text("[eh]\nb = -0.5\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


# Each of these once ended in a traceback, a NaN row or a silent
# all-infeasible row; now the command stops before any trial runs.
@pytest.mark.parametrize(
    "override,key",
    [
        ("ue.weights=nan", "ue.weights"),
        ("channel.kappa=nan", "channel.kappa"),
        ("ue.p_max=inf", "ue.p_max"),
        ("sweep.p_cir=nan", "sweep.p_cir"),
        ("topology.height=-5", "topology.height"),
        ("solver.tol=-1", "solver.tol"),
    ],
)
def test_bad_value_is_config_error_exit_2(override, key, tmp_path, capsys):
    from uavwpt.cli import main

    out = tmp_path / "never.csv"
    assert main(["simulate", "--trials", "2", "--set", override, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not out.exists()


@pytest.mark.parametrize(
    "override",
    ["eh.a=inf", "topology.r_max=5", "sweep.c=0", "solver.max_iter=0", "sweep.seed=-1"],
)
def test_out_of_range_values_rejected(override):
    with pytest.raises(ConfigError, match=override.split("=")[0]):
        load_config(overrides=(override,))


def test_negative_seed_flag_exits_2(capsys):
    from uavwpt.cli import main

    assert main(["simulate", "--seed", "-3"]) == 2
    assert "seed" in capsys.readouterr().err


def test_budget_to_noise_just_under_the_limit_runs(capsys):
    # 0.8 * c / 0.001 is 0.99 of the limit: every trial gets a finite row.
    from uavwpt.cli import main
    from uavwpt.config import MAX_BUDGET_TO_NOISE

    c = 0.99 * MAX_BUDGET_TO_NOISE * 0.001 / 0.8
    assert main(["simulate", "--trials", "3", "--set", "sweep.p_cir=40",
                 "--set", f"sweep.c=100,{c!r}"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 2
    assert all(np.isfinite(float(v)) for row in rows for v in row.split(","))


@pytest.mark.parametrize(
    "override",
    # Just over the limit, far over it (once a Cholesky traceback), and an
    # overflowing ratio (once inf and NaN rows with exit code 0).
    ["sweep.c=1.2501e10", "sweep.c=1e17", "system.noise_power=1e-310", "eh.c=1e17"],
)
def test_budget_to_noise_over_the_limit_exits_2(override, capsys):
    from uavwpt.cli import main

    assert main(["simulate", "--trials", "2", "--set", "sweep.p_cir=40",
                 "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "budget over noise" in err
