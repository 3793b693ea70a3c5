"""INI-style configuration for the command-line tools.

Every key is one row of ``_KEYS``: its section, name, built-in default,
AppConfig field, kind and the range its values must lie in.  ``uavwpt
defaults`` prints the built-in file.

A missing file is fine when ``path`` is None (pure defaults); a named file
that does not exist or does not parse is a ConfigError carrying a line-level
message where one exists.  Command-line ``--set section.key=value`` overrides
are applied after the file.
"""

import configparser
import math
from dataclasses import dataclass

import numpy as np

from .eh_model import EhParams
from .emwt import SystemConfig

# (section, key, default, AppConfig field, kind, lower bound, bound excluded,
# upper bound or None).  The kind is float, int, bool, tuple (a comma list)
# or np.ndarray (one value per UE, or a single value for all of them).  A
# string lower bound names an earlier field.  Every numeric value must be
# finite and in range, so that bad input stops here with a config error
# instead of turning into NaN rows, silent infeasible rows or tracebacks.
_KEYS = (
    ("eh", "a", "6400", "eh_a", float, 0.0, True, None),  # curvature, 1/mW
    ("eh", "b", "0.003", "eh_b", float, 0.0, True, None),  # turning point, mW
    ("eh", "c", "200", "eh_c", float, 0.0, True, None),  # saturation, mW
    ("topology", "height", "50", "height", float, 0.0, True, None),  # UAV altitude, m
    ("topology", "r_min", "10", "r_min", float, 0.0, False, None),  # horizontal band, m
    ("topology", "r_max", "20", "r_max", float, "r_min", False, None),
    # true: one topology draw for every trial of a sweep
    ("topology", "frozen", "false", "frozen_topology", bool, None, False, None),
    ("channel", "kappa", "2", "kappa", float, 0.0, False, None),  # Rician factor
    ("channel", "alpha", "2.5", "alpha", float, 0.0, True, None),  # pathloss exponent
    # true: the downlink gets its own draw instead of reusing the uplink one
    ("channel", "independent_dl", "false", "independent_dl", bool, None, False, None),
    ("ue", "count", "5", "n_ues", int, 1, False, None),
    ("ue", "antennas", "3", "n_antennas", int, 1, False, None),
    ("ue", "p_max", "200", "p_max", np.ndarray, 0.0, False, None),  # uplink caps, mW
    ("ue", "weights", "0.3, 0.25, 0.2, 0.15, 0.1", "weights", np.ndarray, 0.0, False, None),
    ("system", "noise_power", "0.001", "noise_power", float, 0.0, True, None),  # mW
    ("system", "amp_efficiency", "0.8", "amp_efficiency", float, 0.0, True, 1.0),
    ("system", "circuit_power", "40", "circuit_power", float, 0.0, False, None),  # mW
    ("solver", "tol", "1e-8", "solver_tol", float, 0.0, False, None),
    ("solver", "max_iter", "10000", "solver_max_iter", int, 1, False, None),
    # The swept circuit powers and saturation levels (mW), Monte-Carlo
    # trials per cell and the base RNG seed.
    ("sweep", "p_cir", "40, 45, 50, 55, 60, 65, 70, 75, 80", "sweep_p_cir", tuple, 0.0, False,
     None),
    ("sweep", "c", "100, 200", "sweep_c", tuple, 0.0, True, None),
    # A cell holds 17 B per trial (throughput, budget, converged) and
    # run_cell adds 9 B of temporaries, so the bound costs about 2.6 GB.
    ("sweep", "trials", "10000", "trials", int, 1, False, 10**8),
    ("sweep", "seed", "12345", "seed", int, 0, False, None),
)

_DEFAULTS = {}
for _row in _KEYS:
    _DEFAULTS.setdefault(_row[0], {})[_row[1]] = _row[2]
_BOUNDS = {f"{row[0]}.{row[1]}": row[5:] for row in _KEYS}


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


def _float_list(raw: str) -> tuple:
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise ValueError("empty list")
    return tuple(float(part) for part in items)


def _parse(parser, section, key, kind, n_ues):
    """The value of ``section.key`` as ``kind``; an np.ndarray kind is a tuple of n_ues."""
    raw = parser[section][key]
    if kind is bool:
        try:
            return parser.getboolean(section, key)
        except ValueError as exc:
            raise ConfigError(f"boolean config key: {exc}") from exc
    if kind is float or kind is int:
        try:
            return kind(raw)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from exc
    try:
        values = _float_list(raw)
    except ValueError as exc:
        raise ConfigError(f"bad list value in config: {exc}") from exc
    if kind is tuple or len(values) == n_ues:
        return values
    if len(values) == 1:
        return values * n_ues
    needs = "1 value" if n_ues == 1 else f"1 or {n_ues} comma-separated values"
    raise ConfigError(f"{section}.{key} needs {needs}, got {len(values)}")


def _check(name, values, low, open_low, high):
    """Raise ConfigError unless every one of ``values`` is finite and in the bound."""
    for v in values:
        finite = isinstance(v, int) or math.isfinite(v)
        if not finite or v < low or (open_low and v == low) or (high is not None and v > high):
            break
    else:
        return
    bound = f"{'>' if open_low else '>='} {low:g}"
    if high is not None:
        bound += f" and <= {high:g}"
    shown = ", ".join(str(v) if isinstance(v, int) else f"{v:g}" for v in values)
    raise ConfigError(f"{name} must be finite and {bound}, got {shown}")


def check_range(name, values):
    """Raise ConfigError unless every one of ``values`` is in the range of key ``name``."""
    _check(name, values, *_BOUNDS[name])


def check_budget_to_noise(cfg, c_values):
    """Raise ConfigError unless the largest budget of ``cfg`` swept over ``c_values`` is in range.

    Each value may be in range, yet a huge budget over a tiny noise power
    overflows or leaves the factorisation without precision.
    """
    ratio = cfg.amp_efficiency * max(cfg.eh_c, *c_values) / cfg.noise_power
    if not ratio <= MAX_BUDGET_TO_NOISE:
        raise ConfigError(
            "largest budget over noise, system.amp_efficiency * max(eh.c, sweep.c) / "
            f"system.noise_power, must be finite and <= {MAX_BUDGET_TO_NOISE:g}, "
            f"got {ratio:g}"
        )


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

    values = {}
    for section, key, _, field, kind, low, open_low, high in _KEYS:
        value = _parse(parser, section, key, kind, values.get("n_ues"))
        if kind is not bool:
            low = values[low] if isinstance(low, str) else low
            _check(f"{section}.{key}", value if type(value) is tuple else (value,),
                   low, open_low, high)
        values[field] = np.asarray(value) if kind is np.ndarray else value
    cfg = AppConfig(**values)
    check_budget_to_noise(cfg, cfg.sweep_c)
    return cfg
