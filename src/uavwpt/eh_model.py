"""Sigmoid model of a nonlinear RF energy harvester.

The harvester maps received RF power to rectified output power through a
logistic curve with curvature ``a`` (1/mW), turning point ``b`` (mW) and
saturation level ``c`` (mW).  The curve is shifted and rescaled so that zero
input gives zero output and the output approaches ``c`` from below.

All powers are in milliwatts.

Model note: the transfer curve is a hardware fit, not an energy balance.
With steep curvatures (e.g. a = 6400 1/mW) a fraction of a milliwatt at the
input already drives the output to the saturation level, so the output can
exceed the input.  The model is used as specified; no conservation check is
applied.
"""

from dataclasses import dataclass, field

import numpy as np

# Raw exp() overflows float64 beyond ~709; with a = 6400 1/mW this happens
# for inputs only a few mW past the turning point.
_EXP_CLAMP = 700.0


def _sigmoid(x):
    """Numerically safe logistic function, scalar or ndarray."""
    x = np.clip(x, -_EXP_CLAMP, _EXP_CLAMP)
    out = np.where(
        x >= 0,
        1.0 / (1.0 + np.exp(-np.abs(x))),
        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))),
    )
    return out if isinstance(out, np.ndarray) and out.ndim else float(out)


def compute_m(a: float, b: float) -> float:
    """Offset fraction 1 / (1 + exp(a*b)) of the shifted logistic curve.

    Strictly between 0 and 0.5 for positive arguments (it may round to 0.0
    for a*b beyond ~745, where the true value is below the smallest double).
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"harvester shape parameters must be positive, got a={a}, b={b}")
    return float(_sigmoid(-a * b))


@dataclass(frozen=True)
class EhParams:
    """Shape parameters of the nonlinear harvester.

    a : curvature of the logistic transfer curve (1/mW)
    b : input power at the curve's turning point (mW)
    c : saturation output power (mW)
    m : derived offset, computed once at construction
    """

    a: float
    b: float
    c: float
    m: float = field(init=False)

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0 or self.c <= 0:
            raise ValueError(
                f"harvester parameters must be positive, got a={self.a}, b={self.b}, c={self.c}"
            )
        object.__setattr__(self, "m", compute_m(self.a, self.b))


def harvest(params: EhParams, p_in, c=None):
    """Output power (mW) of the harvester for input RF power ``p_in`` (mW).

    Accepts a scalar or ndarray.  ``c`` replaces ``params.c`` as the
    saturation level; it may be an array that broadcasts against ``p_in``,
    so that one call serves harvesters that differ only in c (the offset m
    depends on a and b alone).  The result is clipped to [0, c]; the upper
    end is attained only through floating-point saturation of the logistic
    term, the true curve stays strictly below c.
    """
    arr = np.asarray(p_in, dtype=float)
    if np.any(arr < 0):
        raise ValueError("input power must be nonnegative")
    if c is None:
        c = params.c
    elif np.any(np.asarray(c) <= 0):
        raise ValueError("saturation power must be positive")
    # At p_in = 0 the sigmoid argument is -a*b, the same evaluation that
    # produced m, so the subtraction cancels exactly.
    sig = _sigmoid(params.a * (arr - params.b))
    out = np.clip(c * (sig - params.m) / (1.0 - params.m), 0.0, c)
    return out if out.ndim else float(out)


def max_harvest(params: EhParams, p_max, channels, c=None):
    """Harvested power when every UE beamforms at full power along its channel.

    With maximal ratio transmission the input power is sum_k p_max_k*||h_k||^2,
    the largest value any per-UE power-capped beamformer set can deliver.
    ``channels`` is a ChannelRealization or a stack of channel matrices of
    shape (..., K, N); the result is a float or an array of the stack's
    leading shape.  ``c`` is passed on to :func:`harvest`.
    """
    h = np.asarray(getattr(channels, "h", channels))
    caps = np.asarray(p_max, dtype=float)
    if caps.shape != h.shape[-2:-1]:
        raise ValueError(
            f"expected {h.shape[-2]} per-UE power caps, got shape {caps.shape}"
        )
    if np.any(caps < 0):
        raise ValueError("per-UE power caps must be nonnegative")
    gains = np.sum(np.abs(h) ** 2, axis=-1)
    return harvest(params, np.sum(caps * gains, axis=-1), c)
