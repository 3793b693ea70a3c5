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

A sweep does not build a ``SeedSequence`` and a ``PCG64`` per trial.
:func:`trial_states` computes the PCG64 states of a whole chunk of (cell,
trial) pairs, which may span cells, at once and the sweep loads each into
one reused generator.  The states are
bitwise those :func:`trial_rng` seeds, because they come from the same
integer arithmetic: numpy's ``SeedSequence`` hash (O'Neill's seed_seq_fe,
https://www.pcg-random.org/posts/developing-a-seed_seq-alternative.html)
and PCG64's seeding step.  numpy keeps both fixed under its stream
compatibility policy (NEP 19), and a test compares the two paths bit for
bit, so a change on numpy's side fails loudly rather than moving the
outputs.

Part of the seed contract is the order in which one trial consumes its
stream: K uniform horizontal distances (skipped when the topology is frozen
and drawn once from :func:`topology_rng` instead), then K x N standard
normals for the real and then K x N for the imaginary part of the uplink
scatter, then, when the downlink gets its own draw, the same real and
imaginary pair for it.  :func:`draw_topology` and :func:`draw_channel` make
exactly these calls; a sweep makes the same calls into chunk arrays (the
uniforms as ``random()``, scaled as ``Generator.uniform`` scales them) and
builds all of a chunk's channels with one :func:`rician_channels` call.
"""

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


# numpy's SeedSequence hash (a pool of four uint32 words) and PCG64's
# 128-bit LCG multiplier.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _hash(values, hash_const, mult):
    """One step of the SeedSequence hash on uint32 ``values``; returns (hashed, next constant).

    ``hash_const`` is an int, or a uint32 array of one constant per value.
    """
    next_const = hash_const * mult & _MASK32
    values = (values ^ np.uint32(hash_const)) * np.uint32(next_const)
    return values ^ (values >> np.uint32(16)), next_const


def _n_words(value: int) -> int:
    """Number of uint32 words SeedSequence makes of a nonnegative int (0 is one word)."""
    return max(1, -(-value.bit_length() // 32))


def trial_states(seed: int, cell, trials):
    """PCG64 states of :func:`trial_rng` for many (cell, trial) pairs.

    ``cell`` and ``trials`` (ints in [0, 2**64)) broadcast against each
    other.  Returns a sized iterable that gives, for each pair in flattened
    order, a dict equal to ``PCG64(SeedSequence(seed, spawn_key=(cell,
    t))).state``; assigning it to a PCG64's ``state`` gives that stream.
    The hashing is one vectorised pass; each dict is built when it is read.
    The SeedSequence hash reads the seed's uint32 words (zero-padded to the
    pool size), then the cell's, then the trial's, and its multipliers
    advance independently of the data.  So the pool after the seed and cell
    words is the pool of the parent sequence
    ``SeedSequence(seed, spawn_key=(cell,))``, computed once per distinct
    cell, and only the trial words are mixed per pair.
    """
    cell, trials = (
        a.ravel()
        for a in np.broadcast_arrays(
            np.asarray(cell, dtype=np.uint64), np.asarray(trials, dtype=np.uint64)
        )
    )
    cells, inverse = np.unique(cell, return_inverse=True)
    pool = np.array(
        [np.random.SeedSequence(seed, spawn_key=(int(c),)).pool for c in cells],
        dtype=np.uint32,
    ).reshape(-1, _POOL_SIZE)[inverse]
    # By then the hash constant has stepped _POOL_SIZE times per entropy word:
    # filling and cross-mixing the pool take 4 + 12 steps for the first four.
    # Cells of two words (cell >= 2**32) step it four times more.
    seed_words = max(_POOL_SIZE, _n_words(seed))
    one_word, two_words = (
        _INIT_A * pow(_MULT_A, _POOL_SIZE * (seed_words + n), 1 << 32) & _MASK32 for n in (1, 2)
    )
    hash_const = np.where(cell >> np.uint64(32) != 0, two_words, one_word).astype(np.uint32)
    low = (trials & np.uint64(_MASK32)).astype(np.uint32)
    high = (trials >> np.uint64(32)).astype(np.uint32)
    for word, rows in ((low, slice(None)), (high, high != 0)):  # trials >= 2**32 have two words
        hash_const = hash_const[rows]
        for i in range(_POOL_SIZE):
            mixed, hash_const = _hash(word[rows], hash_const, _MULT_A)
            mix = np.uint32(_MIX_MULT_L) * pool[rows, i] - np.uint32(_MIX_MULT_R) * mixed
            pool[rows, i] = mix ^ (mix >> np.uint32(16))
    # generate_state(4, uint64): eight uint32 outputs read the pool cyclically
    # and pair up little-endian into (initstate_hi, initstate_lo, initseq_hi, initseq_lo).
    out = np.empty((trials.size, 2 * _POOL_SIZE), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        out[:, i], hash_const = _hash(pool[:, i % _POOL_SIZE], hash_const, _MULT_B)
    return _PCG64States(out.astype("<u4").view("<u8"))


class _PCG64States:
    """PCG64 state dicts, each built from its seeding words when it is read.

    ``words`` is an (n, 4) uint64 array of SeedSequence outputs
    (initstate_hi, initstate_lo, initseq_hi, initseq_lo).  Iterating builds
    one dict at a time, so a chunk's states need not all be held at once.
    """

    def __init__(self, words):
        self._words = words

    def __len__(self):
        return len(self._words)

    def __iter__(self):
        for words in self._words:
            yield _pcg64_state(*words.tolist())


def _pcg64_state(state_hi, state_lo, seq_hi, seq_lo):
    # PCG64 seeding: two LCG steps from state 0 with inc = 2 * initseq + 1.
    inc = (((seq_hi << 64 | seq_lo) << 1) | 1) & _MASK128
    state = ((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & _MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def topology_rng(seed: int) -> np.random.Generator:
    """Dedicated stream for a topology frozen across trials."""
    ss = np.random.SeedSequence(seed, spawn_key=_TOPOLOGY_STREAM_KEY)
    return np.random.Generator(np.random.PCG64(ss))


def link_distance(height: float, horizontal: float) -> float:
    """3D distance (m) between the hovering base station and a ground UE."""
    if height <= 0:
        raise ValueError("height must be positive")
    if horizontal < 0:
        raise ValueError("horizontal distance must be nonnegative")
    return float(np.hypot(height, horizontal))


def pathloss_gain(d: float, alpha: float) -> float:
    """Linear power gain d^-alpha of a link of length d meters."""
    if d <= 0:
        raise ValueError("link distance must be positive")
    return float(d**-alpha)


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
