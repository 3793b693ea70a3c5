"""Harvester transfer function: frozen constants, shape, and composition."""

import math

import numpy as np
import pytest

from uavwpt.beamform import input_power, mrt_set
from uavwpt.channel import draw_channel, draw_topology, trial_rng
from uavwpt.eh_model import EhParams, compute_m, harvest, max_harvest

# Defaults used throughout: curvature 6400 1/mW, turning point 0.003 mW,
# saturation 200 mW.
A, B, C = 6400.0, 0.003, 200.0

# Independent evaluations of the defining formulas with stdlib math.
M_DEFAULT = 4.587181725605288e-09          # 1/(1 + exp(6400*0.003))
MIDPOINT_200 = 99.99999954128182           # 200*(0.5 - m)/(1 - m)


def test_compute_m_frozen_value():
    assert compute_m(A, B) == pytest.approx(M_DEFAULT, rel=1e-14)


def test_compute_m_quarter():
    # exp(ln 3) = 3, so the offset is exactly 1/4
    assert compute_m(1.0, math.log(3.0)) == pytest.approx(0.25, rel=1e-14)


def test_compute_m_small_product_approaches_half():
    # exp(1e-18) rounds to 1.0, so the limit value is hit exactly
    assert compute_m(1e-9, 1e-9) == 0.5
    assert compute_m(2.0, 1e-12) == pytest.approx(0.5, rel=1e-9)
    assert compute_m(2.0, 1e-12) < 0.5


def test_compute_m_range():
    for a, b in [(0.1, 0.1), (1.0, 1.0), (6400.0, 0.003), (10.0, 50.0)]:
        m = compute_m(a, b)
        assert 0.0 <= m < 0.5


def test_compute_m_rejects_nonpositive():
    with pytest.raises(ValueError):
        compute_m(0.0, 1.0)
    with pytest.raises(ValueError):
        compute_m(1.0, -2.0)


def test_params_validation():
    with pytest.raises(ValueError):
        EhParams(A, B, 0.0)
    with pytest.raises(ValueError):
        EhParams(-1.0, B, C)
    params = EhParams(A, B, C)
    assert params.m == pytest.approx(M_DEFAULT, rel=1e-14)


def test_harvest_zero_is_zero():
    params = EhParams(A, B, C)
    assert harvest(params, 0.0) == 0.0


def test_harvest_midpoint_frozen_value():
    params = EhParams(A, B, C)
    got = harvest(params, B)
    assert got == pytest.approx(MIDPOINT_200, rel=1e-14)
    # and the exact identity against the params' own m
    assert got == params.c * (0.5 - params.m) / (1.0 - params.m)


def test_harvest_saturates_at_one_milliwatt():
    # curvature*(1 - 0.003) is far past the exp clamp, so the sigmoid is 1.0
    params = EhParams(A, B, C)
    assert harvest(params, 1.0) == pytest.approx(C, rel=1e-12)
    assert harvest(params, 1.0) <= C


def test_harvest_monotone_and_bounded():
    params = EhParams(A, B, C)
    grid = np.linspace(0.0, 100.0 * B, 10_000)
    out = harvest(params, grid)
    assert out.shape == grid.shape
    assert np.all(np.diff(out) >= 0.0)
    assert np.all(out >= 0.0)
    assert np.all(out <= C)
    assert harvest(params, 1e6 * B) >= 0.999 * C


def test_harvest_gentle_curve_monotone():
    # away from the hard-saturating defaults the interior slope matters too
    params = EhParams(2.0, 1.5, 50.0)
    grid = np.linspace(0.0, 150.0, 10_000)
    out = harvest(params, grid)
    assert np.all(np.diff(out) >= 0.0)
    assert out[-1] >= 0.999 * params.c
    assert harvest(params, 0.0) == pytest.approx(0.0, abs=1e-9 * params.c)


def test_harvest_rejects_negative_input():
    params = EhParams(A, B, C)
    with pytest.raises(ValueError):
        harvest(params, -0.1)
    with pytest.raises(ValueError):
        harvest(params, np.array([0.5, -0.5]))


def test_harvest_scalar_and_vector_agree():
    params = EhParams(A, B, C)
    xs = np.array([0.0, B / 2, B, 2 * B, 1.0])
    vec = harvest(params, xs)
    for x, v in zip(xs, vec):
        assert harvest(params, float(x)) == v


def test_harvest_with_a_saturation_per_element():
    # Harvesters that differ only in c share a and b, hence m and the sigmoid.
    xs = np.array([0.0, B / 2, B, 2 * B, 1.0, B])
    cs = np.array([100.0, 200.0, 100.0, 150.0, 200.0, 1e-3])
    got = harvest(EhParams(A, B, C), xs, cs)
    assert got.tolist() == [harvest(EhParams(A, B, c), float(x)) for x, c in zip(xs, cs)]
    assert harvest(EhParams(A, B, C), B, 100.0) == harvest(EhParams(A, B, 100.0), B)
    with pytest.raises(ValueError):
        harvest(EhParams(A, B, C), xs, np.where(cs == 1e-3, 0.0, cs))


def test_max_harvest_single_unit_channel():
    from uavwpt.channel import ChannelRealization

    params = EhParams(A, B, C)
    channels = ChannelRealization(np.array([[1.0 + 0j, 0.0, 0.0]]))
    assert max_harvest(params, [200.0], channels) == harvest(params, 200.0)


def test_max_harvest_zero_channels():
    from uavwpt.channel import ChannelRealization

    params = EhParams(A, B, C)
    channels = ChannelRealization(np.zeros((3, 2), dtype=complex))
    assert max_harvest(params, [10.0, 10.0, 10.0], channels) == 0.0


def test_max_harvest_matches_mrt_composition():
    # harvest(sum of per-UE cap * channel power) == harvest(input_power(MRT))
    params = EhParams(A, B, C)
    worst = 0.0
    for i in range(100):
        rng = trial_rng(424242, cell=0, trial=i)
        k = int(rng.integers(1, 6))
        n = int(rng.integers(1, 5))
        topo = draw_topology(rng, k, 10.0, 20.0, 50.0, 2.5, 2.0)
        channels = draw_channel(rng, topo, n)
        caps = rng.uniform(0.0, 300.0, size=k)
        direct = max_harvest(params, caps, channels)
        composed = harvest(params, input_power(channels, mrt_set(channels, caps)))
        worst = max(worst, abs(direct - composed) / max(abs(composed), 1e-300))
    assert worst <= 1e-12


def test_max_harvest_on_a_stack_matches_each_instance():
    params = EhParams(A, 3.0, C)  # turning point where the curve is not flat
    caps = np.array([3.0, 1.0, 2.0])
    stack = []
    for i in range(6):
        rng = trial_rng(7, cell=0, trial=i)
        stack.append(draw_channel(rng, draw_topology(rng, 3, 10.0, 20.0, 50.0, 2.5, 2.0), 2))
    batched = max_harvest(params, caps, np.stack([ch.h for ch in stack]))
    assert batched.shape == (6,)
    assert batched.tolist() == [max_harvest(params, caps, ch) for ch in stack]
    cs = np.array([100.0, 200.0, 50.0, 100.0, 1.0, 200.0])
    per_row = max_harvest(params, caps, np.stack([ch.h for ch in stack]), cs)
    assert per_row.tolist() == [
        max_harvest(EhParams(A, 3.0, c), caps, ch) for c, ch in zip(cs, stack)
    ]


def test_max_harvest_rejects_bad_caps():
    from uavwpt.channel import ChannelRealization

    params = EhParams(A, B, C)
    channels = ChannelRealization(np.ones((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        max_harvest(params, [1.0], channels)
    with pytest.raises(ValueError):
        max_harvest(params, [1.0, -1.0], channels)
