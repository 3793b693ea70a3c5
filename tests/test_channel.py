"""Geometry, Rician statistics, and the seeded stream-splitting rule."""

import math
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavwpt import _kernels
from uavwpt._kernels import _c
from uavwpt.channel import (
    ChannelRealization,
    Topology,
    draw_channel,
    draw_topology,
    rician_channels,
    topology_rng,
    trial_rng,
)

LINK_50_15 = 52.20153254455275  # sqrt(50^2 + 15^2) via stdlib math


def test_topology_validation_and_distances():
    topo = Topology(50.0, np.array([0.0, 15.0]), 2.5, 2.0)
    assert topo.n_ues == 2
    distances = np.hypot(topo.uav_height, topo.ue_horizontal_distances)
    assert distances[0] == 50.0
    assert distances[1] == pytest.approx(LINK_50_15, rel=1e-15)
    with pytest.raises(ValueError):
        Topology(0.0, np.array([10.0]), 2.5, 2.0)
    with pytest.raises(ValueError):
        Topology(50.0, np.array([-1.0]), 2.5, 2.0)
    with pytest.raises(ValueError):
        Topology(50.0, np.array([10.0]), 0.0, 2.0)
    with pytest.raises(ValueError):
        Topology(50.0, np.array([10.0]), 2.5, -0.5)


def test_topology_is_immutable_and_copies():
    src = np.array([10.0, 12.0])
    topo = Topology(50.0, src, 2.5, 2.0)
    src[0] = 99.0
    assert topo.ue_horizontal_distances[0] == 10.0
    with pytest.raises(ValueError):
        topo.ue_horizontal_distances[0] = 1.0


def test_empty_topology_is_valid():
    topo = draw_topology(trial_rng(1), 0, 10.0, 20.0, 50.0, 2.5, 2.0)
    assert topo.n_ues == 0
    assert np.hypot(topo.uav_height, topo.ue_horizontal_distances).size == 0


def test_draw_topology_degenerate_interval():
    topo = draw_topology(trial_rng(3), 4, 15.0, 15.0, 50.0, 2.5, 2.0)
    assert np.all(topo.ue_horizontal_distances == 15.0)


def test_draw_topology_uniform_mean():
    rng = trial_rng(99)
    topo = draw_topology(rng, 100_000, 10.0, 20.0, 50.0, 2.5, 2.0)
    mean = float(np.mean(topo.ue_horizontal_distances))
    assert abs(mean - 15.0) < 0.15  # 1% of the true mean
    assert np.all(topo.ue_horizontal_distances >= 10.0)
    assert np.all(topo.ue_horizontal_distances <= 20.0)


def test_draw_topology_validates_interval():
    with pytest.raises(ValueError):
        draw_topology(trial_rng(1), 3, -1.0, 20.0, 50.0, 2.5, 2.0)
    with pytest.raises(ValueError):
        draw_topology(trial_rng(1), 3, 21.0, 20.0, 50.0, 2.5, 2.0)


def test_channel_realization_invariants():
    rng = trial_rng(17)
    topo = draw_topology(rng, 4, 10.0, 20.0, 50.0, 2.5, 2.0)
    ch = draw_channel(rng, topo, 3)
    assert ch.h.shape == (4, 3)
    outer = np.einsum("ki,kj->kij", ch.h, ch.h.conj())  # h_k h_k^H
    for k in range(4):
        hk = ch.h[k]
        assert np.allclose(outer[k], outer[k].conj().T)  # Hermitian
        eig = np.linalg.eigvalsh(outer[k])
        assert eig.min() >= -1e-12  # PSD
        assert np.sum(eig > 1e-12 * eig.max()) <= 1  # rank one
        assert np.trace(outer[k]).real == pytest.approx(
            float(np.sum(np.abs(hk) ** 2)), rel=1e-12
        )


def test_channel_matrix_read_only():
    ch = ChannelRealization(np.ones((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        ch.h[0, 0] = 0.0


def test_channel_requires_2d():
    with pytest.raises(ValueError):
        ChannelRealization(np.ones(3, dtype=complex))


@pytest.mark.parametrize("kappa", [0.0, 2.0, 50.0])
def test_mean_channel_power(kappa):
    # E||h_k||^2 = N * d^-alpha for every Rician factor
    n_antennas = 3
    topo = Topology(50.0, np.full(2000, 15.0), 2.5, kappa)
    rng = trial_rng(2024, cell=int(kappa))
    total = np.zeros(2000)
    draws = 50
    for _ in range(draws):
        ch = draw_channel(rng, topo, n_antennas)
        total += np.sum(np.abs(ch.h) ** 2, axis=1)
    sample_mean = float(np.mean(total)) / draws
    expect = n_antennas * LINK_50_15**-2.5
    assert sample_mean == pytest.approx(expect, rel=0.02)


def test_los_only_limit():
    # enormous Rician factor: essentially deterministic with power N d^-alpha
    topo = Topology(50.0, np.array([15.0]), 2.5, 1e12)
    ch = draw_channel(trial_rng(5), topo, 4)
    power = float(np.sum(np.abs(ch.h) ** 2))
    assert power == pytest.approx(4 * LINK_50_15**-2.5, rel=1e-4)


def test_identical_seeds_reproduce():
    topo_a = draw_topology(trial_rng(7, 3, 11), 5, 10.0, 20.0, 50.0, 2.5, 2.0)
    topo_b = draw_topology(trial_rng(7, 3, 11), 5, 10.0, 20.0, 50.0, 2.5, 2.0)
    assert np.array_equal(topo_a.ue_horizontal_distances, topo_b.ue_horizontal_distances)
    ch_a = draw_channel(trial_rng(7, 3, 11), topo_a, 3)
    ch_b = draw_channel(trial_rng(7, 3, 11), topo_b, 3)
    assert np.array_equal(ch_a.h, ch_b.h)


def test_distinct_streams_differ():
    topo = Topology(50.0, np.array([15.0, 15.0]), 2.5, 2.0)
    base = draw_channel(trial_rng(7, 0, 0), topo, 3).h
    assert not np.array_equal(base, draw_channel(trial_rng(7, 0, 1), topo, 3).h)
    assert not np.array_equal(base, draw_channel(trial_rng(7, 1, 0), topo, 3).h)
    assert not np.array_equal(base, draw_channel(trial_rng(8, 0, 0), topo, 3).h)
    assert not np.array_equal(base, draw_channel(topology_rng(7), topo, 3).h)


def test_scatter_power_split():
    # variance of the fluctuating part matches 1/(kappa+1) * d^-alpha per antenna
    kappa = 2.0
    topo = Topology(50.0, np.full(5000, 15.0), 2.5, kappa)
    ch = draw_channel(trial_rng(31), topo, 2)
    gain = LINK_50_15**-2.5
    los = math.sqrt(kappa / (kappa + 1.0) * gain)
    fluct = ch.h - los
    var = float(np.mean(np.abs(fluct) ** 2))
    assert var == pytest.approx(gain / (kappa + 1.0), rel=0.05)


# A trial's state is the PCG64 state its stream starts from, which a sweep
# derives from (seed, cell, trial) in C (uavwpt._kernels.draw_variates)
# before drawing from it; it must be the state trial_rng seeds.  Those
# tests skip only when the interpreter has no C compiler; with one, a
# failed build of draw.c fails them.
needs_cc = pytest.mark.skipif(
    shutil.which(_c.compiler_command()[0]) is None, reason="no C compiler to build draw.c"
)

# SeedSequence splits ints into uint32 words and zero-pads the seed to four
# words, so the cases differ in word counts: seed 0, one word, two, three,
# and more words than the pool holds; keys of one and two words.
_SEEDS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**96 - 1),
    st.integers(2**128, 2**200),
)
_KEYS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1))
_RESERVED = (0xFFFFFFFF, 0xFFFFFFFF)


def _c_draw(seed, pairs, n_uniform, n_normal):
    """(uniform, normal) rows of the C draw for the (cell, trial) ``pairs``."""
    draw = _kernels.draw_variates
    assert draw is not None, "a C compiler exists but draw.c did not build"
    cells = np.array([cell for cell, _ in pairs], dtype=np.uint64)
    trials = np.array([trial for _, trial in pairs], dtype=np.uint64)
    uniform = np.empty((len(pairs), n_uniform))
    normal = np.empty((len(pairs), n_normal))
    draw(seed, cells, trials, uniform, normal)
    return uniform, normal


def _assert_rows_are(uniform, normal, rngs):
    for u, z, rng in zip(uniform, normal, rngs, strict=True):
        assert u.tobytes() == rng.random(u.size).tobytes()
        assert z.tobytes() == rng.standard_normal(z.size).tobytes()


@needs_cc
@settings(max_examples=60, deadline=None)
@given(
    seed=_SEEDS,
    cell=_KEYS,
    trials=st.lists(_KEYS, max_size=6),
    n_uniform=st.sampled_from([0, 1, 5, 16]),
    # Two or four K x N blocks at K in {1, 5, 16} and N in {1, 3, 8}.
    n_normal=st.sampled_from([2, 4, 6, 30, 60, 256, 512]),
)
def test_trial_states_are_the_trial_rng_streams(seed, cell, trials, n_uniform, n_normal):
    uniform, normal = _c_draw(seed, [(cell, t) for t in trials], n_uniform, n_normal)
    _assert_rows_are(uniform, normal, [trial_rng(seed, cell=cell, trial=t) for t in trials])


@needs_cc
@pytest.mark.parametrize("seed", [0, 7, 2**32 + 1, 2**130 + 3])
def test_trial_states_of_the_reserved_topology_key(seed):
    uniform, normal = _c_draw(seed, [_RESERVED], 16, 48)
    _assert_rows_are(uniform, normal, [topology_rng(seed)])


@needs_cc
@settings(max_examples=60, deadline=None)
@given(
    seed=_SEEDS,
    pairs=st.lists(
        st.one_of(
            st.tuples(st.sampled_from([0, 1, 17]), _KEYS),  # repeated cells
            st.tuples(_KEYS, _KEYS),
            st.just(_RESERVED),
        ),
        max_size=8,
    ),
)
@example(seed=7, pairs=[(0, 3), _RESERVED, (2**40, 2**33), (0, 4), (2**32 - 1, 0)])
def test_trial_states_over_per_row_cells(seed, pairs):
    # Cells of one and two words step the hash constant differently.
    uniform, normal = _c_draw(seed, pairs, 5, 30)
    _assert_rows_are(
        uniform,
        normal,
        [topology_rng(seed) if pair == _RESERVED else trial_rng(seed, *pair) for pair in pairs],
    )


@needs_cc
def test_trial_states_reach_the_ziggurat_tails():
    # About 1 normal in 250 leaves the ziggurat's fast path and 1 in 3700
    # lands beyond its last layer, where it redraws through next_double.
    seed, cell, trial = 2**200 + 12345, 2**32 + 1, 2**33 + 5
    uniform, normal = _c_draw(seed, [(cell, trial)], 3, 200_000)
    assert np.abs(normal).max() > 3.6541528853610088  # the ziggurat's r
    _assert_rows_are(uniform, normal, [trial_rng(seed, cell, trial)])


@pytest.mark.parametrize("kappa", [0.0, 2.0, 1e-3, 1e3])
@pytest.mark.parametrize(
    "horizontal_shape,normal_shape",
    [((5,), (5, 3)), ((40, 5), (40, 5, 3)), ((5,), (40, 5, 3)), ((7, 1), (7, 1, 8))],
)
def test_rician_channels_are_the_complex_formula(kappa, horizontal_shape, normal_shape):
    rng = np.random.default_rng(12)
    horizontal = rng.uniform(0.0, 100.0, horizontal_shape)
    re, im = rng.standard_normal(normal_shape), rng.standard_normal(normal_shape)
    got = rician_channels(50.0, horizontal, 2.5, kappa, re, im)
    amp = np.hypot(50.0, horizontal) ** (-2.5 / 2.0)
    scatter = (re + 1j * im) / np.sqrt(2.0)
    want = amp[..., None] * (
        np.sqrt(kappa / (kappa + 1.0)) + np.sqrt(1.0 / (kappa + 1.0)) * scatter
    )
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
