"""INI-style configuration for the command-line tools.

Sections and keys (all have built-in defaults, shown by ``defaults_text``):

    [eh]        a, b, c                  harvester curve parameters (1/mW, mW, mW)
    [topology]  height, r_min, r_max,    UAV altitude and the horizontal-distance
                frozen                   band; frozen=true reuses one topology draw
                                         for every trial of a sweep
    [channel]   kappa, alpha,            Rician factor, pathloss exponent, and
                independent_dl           whether the downlink gets its own draw
                                         instead of reusing the uplink one
    [ue]        count, antennas,         fleet shape; p_max and weights accept a
                p_max, weights           single value (broadcast) or a comma list
    [system]    noise_power,             receiver noise (mW), amplifier
                amp_efficiency,          efficiency in (0, 1], circuit power (mW)
                circuit_power
    [solver]    tol, max_iter            power-allocation stopping controls
    [sweep]     p_cir, c, trials, seed   comma lists of circuit powers and
                                         harvester saturation levels, Monte-Carlo
                                         trials per cell, base RNG seed

A missing file is fine when ``path`` is None (pure defaults); a named file
that does not exist or does not parse is a ConfigError carrying a line-level
message where one exists.  Command-line ``--set section.key=value`` overrides
are applied after the file.
"""

import configparser
from dataclasses import dataclass

import numpy as np

from .eh_model import EhParams
from .emwt import SystemConfig

_DEFAULTS = {
    "eh": {"a": "6400", "b": "0.003", "c": "200"},
    "topology": {"height": "50", "r_min": "10", "r_max": "20", "frozen": "false"},
    "channel": {"kappa": "2", "alpha": "2.5", "independent_dl": "false"},
    "ue": {
        "count": "5",
        "antennas": "3",
        "p_max": "200",
        "weights": "0.3, 0.25, 0.2, 0.15, 0.1",
    },
    "system": {
        "noise_power": "0.001",
        "amp_efficiency": "0.8",
        "circuit_power": "40",
    },
    "solver": {"tol": "1e-8", "max_iter": "10000"},
    "sweep": {
        "p_cir": "40, 45, 50, 55, 60, 65, 70, 75, 80",
        "c": "100, 200",
        "trials": "10000",
        "seed": "12345",
    },
}


# The largest downlink budget over the noise power that a config may reach,
# amp_efficiency * max(eh.c, sweep.c) / noise_power.  Measured on the stock
# geometry (100 trials, p_cir=40 mW): the ratio 8e8 (c=1e6 mW) leaves 0.7 % of
# trials unconverged, 8e12 (c=1e10) 19 %, 8e15 (c=1e13) 41 %, 8e18 (c=1e16)
# 75 %, and at 8e19 (c=1e17) the interference matrices are no longer
# numerically positive definite and the Cholesky factorisation fails.
MAX_BUDGET_TO_NOISE = 1e13


class ConfigError(ValueError):
    """Unreadable, unparsable, or semantically invalid configuration."""


@dataclass(frozen=True)
class AppConfig:
    """Fully parsed configuration, ready to drive the pipeline."""

    eh_a: float
    eh_b: float
    eh_c: float
    height: float
    r_min: float
    r_max: float
    frozen_topology: bool
    kappa: float
    alpha: float
    independent_dl: bool
    n_ues: int
    n_antennas: int
    p_max: np.ndarray
    weights: np.ndarray
    noise_power: float
    amp_efficiency: float
    circuit_power: float
    solver_tol: float
    solver_max_iter: int
    sweep_p_cir: tuple
    sweep_c: tuple
    trials: int
    seed: int

    def system(self, circuit_power=None, eh_c=None) -> SystemConfig:
        """Materialize a SystemConfig, optionally overriding the swept knobs."""
        c = self.eh_c if eh_c is None else eh_c
        return SystemConfig(
            n_ues=self.n_ues,
            n_antennas=self.n_antennas,
            noise_power=self.noise_power,
            amp_efficiency=self.amp_efficiency,
            circuit_power=self.circuit_power if circuit_power is None else circuit_power,
            p_max=self.p_max,
            weights=self.weights,
            eh=EhParams(self.eh_a, self.eh_b, c),
        )


def defaults_text() -> str:
    """The built-in configuration, rendered as an INI document."""
    lines = []
    for section, keys in _DEFAULTS.items():
        lines.append(f"[{section}]")
        for key, value in keys.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def _fresh_parser() -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(_DEFAULTS)
    return parser


def _float_list(raw: str) -> list:
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise ValueError("empty list")
    return [float(part) for part in items]


def _vector(raw: str, n_ues: int, what: str) -> np.ndarray:
    values = _float_list(raw)
    if len(values) == 1:
        return np.full(n_ues, values[0])
    if len(values) != n_ues:
        needs = "1 value" if n_ues == 1 else f"1 or {n_ues} comma-separated values"
        raise ConfigError(f"ue.{what} needs {needs}, got {len(values)}")
    return np.asarray(values)


def apply_overrides(parser: configparser.ConfigParser, overrides) -> None:
    """Apply --set entries of the form section.key=value."""
    for item in overrides or ():
        head, sep, value = item.partition("=")
        section, dot, key = head.partition(".")
        if not sep or not dot or not section or not key:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        if section not in parser or key not in parser[section]:
            raise ConfigError(f"override names unknown key {section}.{key}")
        parser[section][key] = value.strip()


def load_config(path=None, overrides=()) -> AppConfig:
    """Read an INI file (or pure defaults), apply overrides, validate."""
    parser = _fresh_parser()
    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                parser.read_file(handle, source=str(path))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        for section in parser.sections():
            if section not in _DEFAULTS:
                raise ConfigError(f"unknown config section [{section}]")
            for key in parser[section]:
                if key not in _DEFAULTS[section]:
                    raise ConfigError(f"unknown config key {section}.{key}")
    apply_overrides(parser, overrides)

    def number(section, key, kind=float):
        raw = parser[section][key]
        try:
            return kind(raw)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from exc

    try:
        n_ues = number("ue", "count", int)
        n_antennas = number("ue", "antennas", int)
        if n_ues < 1 or n_antennas < 1:
            raise ConfigError("ue.count and ue.antennas must be at least 1")
        p_max = _vector(parser["ue"]["p_max"], n_ues, "p_max")
        weights = _vector(parser["ue"]["weights"], n_ues, "weights")
        sweep_p_cir = tuple(_float_list(parser["sweep"]["p_cir"]))
        sweep_c = tuple(_float_list(parser["sweep"]["c"]))
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad list value in config: {exc}") from exc

    try:
        frozen = parser.getboolean("topology", "frozen")
        independent_dl = parser.getboolean("channel", "independent_dl")
    except ValueError as exc:
        raise ConfigError(f"boolean config key: {exc}") from exc

    cfg = AppConfig(
        eh_a=number("eh", "a"),
        eh_b=number("eh", "b"),
        eh_c=number("eh", "c"),
        height=number("topology", "height"),
        r_min=number("topology", "r_min"),
        r_max=number("topology", "r_max"),
        frozen_topology=frozen,
        kappa=number("channel", "kappa"),
        alpha=number("channel", "alpha"),
        independent_dl=independent_dl,
        n_ues=n_ues,
        n_antennas=n_antennas,
        p_max=p_max,
        weights=weights,
        noise_power=number("system", "noise_power"),
        amp_efficiency=number("system", "amp_efficiency"),
        circuit_power=number("system", "circuit_power"),
        solver_tol=number("solver", "tol"),
        solver_max_iter=number("solver", "max_iter", int),
        sweep_p_cir=sweep_p_cir,
        sweep_c=sweep_c,
        trials=number("sweep", "trials", int),
        seed=number("sweep", "seed", int),
    )
    # (key, value, lower bound, bound excluded, upper bound): every value must
    # be finite and in range, so that bad input stops here with a config error
    # instead of turning into NaN rows, silent infeasible rows or tracebacks.
    for key, value, low, open_low, high in (
        ("eh.a", cfg.eh_a, 0.0, True, None),
        ("eh.b", cfg.eh_b, 0.0, True, None),
        ("eh.c", cfg.eh_c, 0.0, True, None),
        ("topology.height", cfg.height, 0.0, True, None),
        ("topology.r_min", cfg.r_min, 0.0, False, None),
        ("topology.r_max", cfg.r_max, cfg.r_min, False, None),
        ("channel.kappa", cfg.kappa, 0.0, False, None),
        ("channel.alpha", cfg.alpha, 0.0, True, None),
        ("ue.p_max", cfg.p_max, 0.0, False, None),
        ("ue.weights", cfg.weights, 0.0, False, None),
        ("system.noise_power", cfg.noise_power, 0.0, True, None),
        ("system.amp_efficiency", cfg.amp_efficiency, 0.0, True, 1.0),
        ("system.circuit_power", cfg.circuit_power, 0.0, False, None),
        ("solver.tol", cfg.solver_tol, 0.0, False, None),
        ("solver.max_iter", cfg.solver_max_iter, 1, False, None),
        ("sweep.p_cir", sweep_p_cir, 0.0, False, None),
        ("sweep.c", sweep_c, 0.0, True, None),
        ("sweep.trials", cfg.trials, 1, False, None),
        ("sweep.seed", cfg.seed, 0, False, None),
    ):
        values = np.atleast_1d(np.asarray(value, dtype=float))
        below = values <= low if open_low else values < low
        if np.all(np.isfinite(values)) and not np.any(below):
            if high is None or np.all(values <= high):
                continue
        bound = f"{'>' if open_low else '>='} {low:g}"
        if high is not None:
            bound += f" and <= {high:g}"
        shown = ", ".join(f"{v:g}" for v in values)
        raise ConfigError(f"{key} must be finite and {bound}, got {shown}")
    # Each value is in range, yet a huge budget over a tiny noise power
    # overflows or leaves the factorisation without precision.
    ratio = cfg.amp_efficiency * max(cfg.eh_c, *sweep_c) / cfg.noise_power
    if not ratio <= MAX_BUDGET_TO_NOISE:
        raise ConfigError(
            "largest budget over noise, system.amp_efficiency * max(eh.c, sweep.c) / "
            f"system.noise_power, must be finite and <= {MAX_BUDGET_TO_NOISE:g}, "
            f"got {ratio:g}"
        )
    return cfg
