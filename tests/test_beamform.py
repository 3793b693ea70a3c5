"""Maximal ratio transmission and the harvested input power."""

import numpy as np
import pytest

from uavwpt.beamform import input_power, mrt_set
from uavwpt.channel import ChannelRealization, draw_channel, draw_topology, trial_rng


def _mrt(h, p_max):
    """The MRT beam of one UE, from a one-row mrt_set."""
    return mrt_set(ChannelRealization(np.asarray(h, dtype=complex)[None]), p_max)[0]


def test_mrt_axis_aligned():
    w = _mrt([1.0 + 0j, 0.0, 0.0], 200.0)
    assert np.allclose(w, [np.sqrt(200.0), 0.0, 0.0])


def test_mrt_zero_power():
    w = _mrt([1.0 + 2j, -3.0], 0.0)
    assert np.all(w == 0)


def test_mrt_normalize_then_scale():
    h = np.array([1.0, 1j]) / np.sqrt(2.0)
    w = _mrt(h, 4.0)
    assert np.allclose(w, [np.sqrt(2.0), np.sqrt(2.0) * 1j])
    assert np.sum(np.abs(w) ** 2) == pytest.approx(4.0, rel=1e-14)


def test_mrt_norm_and_alignment():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        p = float(rng.uniform(0.0, 300.0))
        w = _mrt(h, p)
        assert np.sum(np.abs(w) ** 2) == pytest.approx(p, rel=1e-12, abs=1e-15)
        # parallel: cross terms vanish
        inner = np.vdot(h, w)
        assert abs(inner) == pytest.approx(np.linalg.norm(h) * np.linalg.norm(w), rel=1e-12)


def test_mrt_set_full_power_and_zero_row():
    h = np.array([[1.0 + 0j, 0.0], [0.0, 0.0]])
    channels = ChannelRealization(h)
    beams = mrt_set(channels, [9.0, 9.0])
    assert np.sum(np.abs(beams[0]) ** 2) == pytest.approx(9.0, rel=1e-14)
    assert np.all(beams[1] == 0)  # zero channel mapped to silent beam


@pytest.mark.parametrize("k,n", [(1, 1), (4, 3), (2, 64)])
@pytest.mark.parametrize("scale", [1e-8, 1e-2, 1e3])
def test_mrt_set_rows_are_mrt_bit_for_bit(k, n, scale):
    rng = np.random.default_rng(k * n)
    h = scale * (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
    if k > 1:
        h[-1] = 0.0  # a zero channel gets a zero beam
    caps = rng.uniform(0.0, 300.0, size=k)
    beams = mrt_set(ChannelRealization(h), caps)
    for row, (hk, cap) in enumerate(zip(h, caps)):
        want = np.sqrt(cap) * hk / np.linalg.norm(hk) if hk.any() else np.zeros(n, dtype=complex)
        assert beams[row].tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="nonnegative"):
        mrt_set(ChannelRealization(h), -caps)


def test_input_power_mrt_closed_form():
    rng = trial_rng(5150)
    topo = draw_topology(rng, 5, 10.0, 20.0, 50.0, 2.5, 2.0)
    channels = draw_channel(rng, topo, 3)
    caps = rng.uniform(10.0, 300.0, size=5)
    beams = mrt_set(channels, caps)
    expect = float(caps @ np.sum(np.abs(channels.h) ** 2, axis=1))
    assert input_power(channels, beams) == pytest.approx(expect, rel=1e-12)


def test_input_power_orthogonal_is_zero():
    channels = ChannelRealization(np.array([[1.0 + 0j, 0.0]]))
    beams = np.array([[0.0, 3.0 + 0j]])
    assert input_power(channels, beams) == 0.0


def test_input_power_phase_invariance():
    rng = trial_rng(6)
    topo = draw_topology(rng, 3, 10.0, 20.0, 50.0, 2.5, 2.0)
    channels = draw_channel(rng, topo, 4)
    beams = mrt_set(channels, [50.0, 50.0, 50.0])
    base = input_power(channels, beams)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))
    rotated = beams * phases[:, None]
    assert input_power(channels, rotated) == pytest.approx(base, rel=1e-12)


def test_input_power_shape_mismatch():
    channels = ChannelRealization(np.ones((2, 3), dtype=complex))
    with pytest.raises(ValueError):
        input_power(channels, np.ones((3, 3), dtype=complex))
    with pytest.raises(ValueError):
        input_power(channels, np.ones((2, 2), dtype=complex))
