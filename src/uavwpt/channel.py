"""Rician fading channels for the UAV-to-UE links, with seeded randomness.

Geometry: the aerial base station hovers at a fixed height above the center
of a disc; UEs sit on the ground at uniformly drawn horizontal distances.
Pathloss uses the 3D link distance.  Each UE's channel vector combines a
deterministic line-of-sight component (all-ones phase profile) and an i.i.d.
circularly-symmetric Gaussian scattered component, split so the total mean
power is N * d^-alpha regardless of the Rician factor.

Random streams
--------------
All draws go through an explicit ``numpy.random.Generator``; there is no
hidden global state.  Monte-Carlo code derives one PCG64 stream per
(cell, trial) pair via :func:`trial_rng`, so trials are reproducible and
order-independent.

Part of the seed contract is the order in which one trial consumes its
stream: K uniform horizontal distances (skipped when the topology is frozen
and drawn once from :func:`topology_rng` instead), then K x N standard
normals for the real and then K x N for the imaginary part of the uplink
scatter, then, when the downlink gets its own draw, the same real and
imaginary pair for it.  :func:`draw_topology` and :func:`draw_channel` make
exactly these calls.

A sweep does not build a ``SeedSequence`` and a ``PCG64`` per trial: the C
draw (``uavwpt._kernels.draw_variates``) derives each stream of a block from
the same integer arithmetic, numpy's ``SeedSequence`` hash (O'Neill's
seed_seq_fe, https://www.pcg-random.org/posts/developing-a-seed_seq-alternative.html)
and PCG64's seeding, and draws the uniforms as ``random()`` and the normals
with numpy's own ziggurat.  numpy keeps all of it fixed under its stream
compatibility policy (NEP 19), and a test compares the C draw with
:func:`trial_rng` bit for bit, so a change on numpy's side fails loudly
rather than moving the outputs.  The sweep scales the uniforms as
``Generator.uniform`` scales them and builds all of a block's channels with
one :func:`rician_channels` call.  Without the C draw it draws each trial
through :func:`trial_rng`.

``numpy.random`` is imported only when :func:`trial_rng` or
:func:`topology_rng` is called, so a sweep that draws in C never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Spawn key reserved for the frozen-topology stream; cell indices are tiny,
# so this never collides with a (cell, trial) key.
_TOPOLOGY_STREAM_KEY = (0xFFFFFFFF, 0xFFFFFFFF)


def trial_rng(seed: int, cell: int = 0, trial: int = 0) -> np.random.Generator:
    """Independent PCG64 stream for one Monte-Carlo trial.

    Streams are derived as ``SeedSequence(seed, spawn_key=(cell, trial))``,
    numpy's documented mechanism for reproducible parallel streams: distinct
    (cell, trial) pairs give statistically independent generators, and the
    same triple always reproduces the same draws.
    """
    ss = np.random.SeedSequence(seed, spawn_key=(cell, trial))
    return np.random.Generator(np.random.PCG64(ss))


def topology_rng(seed: int) -> np.random.Generator:
    """Dedicated stream for a topology frozen across trials."""
    ss = np.random.SeedSequence(seed, spawn_key=_TOPOLOGY_STREAM_KEY)
    return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class Topology:
    """Placement of the UEs relative to the hovering base station."""

    uav_height: float                      # m
    ue_horizontal_distances: np.ndarray    # (K,) m
    pathloss_exponent: float
    rician_kappa: float

    def __post_init__(self):
        r = np.array(self.ue_horizontal_distances, dtype=float, copy=True)
        r.flags.writeable = False
        object.__setattr__(self, "ue_horizontal_distances", r)
        if self.uav_height <= 0:
            raise ValueError("uav_height must be positive")
        if np.any(r < 0):
            raise ValueError("horizontal distances must be nonnegative")
        if self.pathloss_exponent <= 0:
            raise ValueError("pathloss exponent must be positive")
        if self.rician_kappa < 0:
            raise ValueError("Rician factor must be nonnegative")

    @property
    def n_ues(self) -> int:
        return self.ue_horizontal_distances.size


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the K channel vectors, shape (K, N) complex.

    Entries carry sqrt(mW)-normalized amplitudes: ||h_k||^2 is the linear
    power gain seen across the N antennas of UE k.  Uplink and downlink use
    the same realization (TDD reciprocity); sensitivity studies draw a second
    realization for the downlink instead.
    """

    h: np.ndarray

    def __post_init__(self):
        h = np.array(self.h, dtype=complex, copy=True, order="C")
        if h.ndim != 2:
            raise ValueError(f"channel matrix must be (K, N), got shape {h.shape}")
        h.flags.writeable = False
        object.__setattr__(self, "h", h)

    @property
    def n_ues(self) -> int:
        return self.h.shape[0]

    @property
    def n_antennas(self) -> int:
        return self.h.shape[1]


def draw_topology(
    rng: np.random.Generator,
    n_ues: int,
    r_min: float,
    r_max: float,
    height: float,
    alpha: float,
    kappa: float,
) -> Topology:
    """Draw UE horizontal distances i.i.d. uniform on [r_min, r_max]."""
    if not 0 <= r_min <= r_max:
        raise ValueError(f"need 0 <= r_min <= r_max, got [{r_min}, {r_max}]")
    distances = rng.uniform(r_min, r_max, size=n_ues)
    return Topology(height, distances, alpha, kappa)


def draw_channel(
    rng: np.random.Generator,
    topology: Topology,
    n_antennas: int,
) -> ChannelRealization:
    """Draw one Rician channel realization for every UE (see rician_channels)."""
    if n_antennas < 1:
        raise ValueError("need at least one antenna")
    shape = (topology.n_ues, n_antennas)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return ChannelRealization(
        rician_channels(
            topology.uav_height,
            topology.ue_horizontal_distances,
            topology.pathloss_exponent,
            topology.rician_kappa,
            re,
            im,
        )
    )


def rician_channels(height, horizontal, alpha, kappa, re, im) -> np.ndarray:
    """Rician channel vectors from the raw normal draws, any leading shape.

    h_k = d_k^(-alpha/2) * ( sqrt(kappa/(kappa+1)) * 1 + sqrt(1/(kappa+1)) * g_k )

    with d_k the 3D distance at horizontal distance ``horizontal[..., k]`` and
    g_k = (re[..., k, :] + j im[..., k, :]) / sqrt(2) standard
    circularly-symmetric complex Gaussian, so the LoS and scattered powers
    per antenna are kappa/(kappa+1)*d^-alpha and 1/(kappa+1)*d^-alpha.
    ``horizontal`` (..., K) broadcasts against ``re`` and ``im`` (..., K, N).
    The operations are elementwise, so a trial's channel is bitwise the same
    whether it is built alone or in a stack.  Parameters are not validated:
    callers pass a validated Topology or a checked config.

    The real and imaginary parts are built in place in the output, without
    complex temporaries, by the real operations numpy performs for the
    complex expression above: it divides by sqrt(2) as by the complex
    number sqrt(2) + 0j, that is by multiplying with 1/sqrt(2), and each
    real factor's zero imaginary part adds only exact zeros.  So the result
    is bitwise that expression's, which a test checks.
    """
    amp = (np.hypot(height, horizontal) ** (-alpha / 2.0))[..., None]
    h = np.empty(np.broadcast_shapes(amp.shape, np.shape(re), np.shape(im)), dtype=complex)
    real, imag = h.real, h.imag
    np.multiply(re, 1.0 / np.sqrt(2.0), out=real)
    np.multiply(im, 1.0 / np.sqrt(2.0), out=imag)
    real *= np.sqrt(1.0 / (kappa + 1.0))
    imag *= np.sqrt(1.0 / (kappa + 1.0))
    real += np.sqrt(kappa / (kappa + 1.0))
    real *= amp
    imag *= amp
    return h
