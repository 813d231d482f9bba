"""Exact vs plane-wave predictions and the D2 sweep, at fixed points: the
shortcut's model and overlap (at the plate, with a zeroed arm, with equal
carriers, the difference identity), the rate's values, the sweep's spread and
its period in l2.  The refusals of the rate, the sweep and the shortcut's records
are rows of ``REFUSALS`` in ``test_argument_checks.py``.  Every sweep column
against a row-by-row reference is ``test_sweep_reference.py``; the rates summing
to 1 and the shortcut's period in t2, over drawn inputs, are ``test_properties.py``."""

from __future__ import annotations

import cmath
import math
from array import array

import numpy as np
import pytest

from conftest import complex_column, pairwise_max_abs, random_gaussian, random_splitter
from platesim import (
    ExperimentGeometry,
    GaussianPacket,
    Preparation,
    balanced_splitter,
    derive_plane_wave_model,
    inner_product,
    plane_wave_epsilon,
    split,
    sweep_d2,
)
from platesim.models import (
    PlaneWaveModel, SweepResult, counting_rate_d1, spatial_period,
)
from platesim.optics import BeamSplitter
from platesim.packets import norm2

GEOM = ExperimentGeometry(l1=1.0, l2=1.0)


def _demo_pair():
    alpha = GaussianPacket(x0=0.0, sigma=1.0, k0=12.0)
    beta = GaussianPacket(x0=0.0, sigma=1.0, k0=12.8)
    return alpha, beta


def test_model_from_identical_inputs_on_balanced_plate():
    g = GaussianPacket(x0=0.0, sigma=1.0, k0=10.0)
    s = split(g, balanced_splitter())
    m = derive_plane_wave_model(s, s, g.k0, g.k0, 1.0)
    assert m.a1 == pytest.approx(0.5, abs=1e-12)
    assert m.a2 == pytest.approx(0.5, abs=1e-12)
    assert m.delta_omega == 0.0


def test_model_amplitude_budget():
    rng = np.random.default_rng(31)
    for _ in range(20):
        a, b = random_gaussian(rng), random_gaussian(rng)
        bs = random_splitter(rng)
        m = derive_plane_wave_model(split(a, bs), split(b, bs), a.k0, b.k0, 1.0)
        assert abs(m.a1) + abs(m.a2) <= 1.0 + 1e-9


def test_zeroed_arm_removes_t2_dependence():
    a, b = _demo_pair()
    sa = split(a, BeamSplitter(r=1.0, t=0.0))
    sb = split(b, BeamSplitter(r=1.0, t=0.0))
    m = derive_plane_wave_model(sa, sb, a.k0, b.k0, 1.0)
    assert m.a2 == 0.0
    assert plane_wave_epsilon(m, 1.0, 100.0) == plane_wave_epsilon(m, 1.0, 3.0)


def test_plane_wave_epsilon_at_the_plate_matches_exact():
    a, b = _demo_pair()
    bs = balanced_splitter()
    m = derive_plane_wave_model(split(a, bs), split(b, bs), a.k0, b.k0, 1.0)
    assert plane_wave_epsilon(m, 0.0, 0.0) == pytest.approx(
        inner_product(a, b), abs=1e-12
    )


def test_plane_wave_epsilon_degenerate_frequencies_constant():
    m = PlaneWaveModel(delta_omega=0.0, a1=0.3 + 0.1j, a2=0.4j)
    for t1, t2 in [(0.0, 0.0), (1.0, 5.0), (2.5, 88.0)]:
        assert plane_wave_epsilon(m, t1, t2) == m.a1 + m.a2


def test_plane_wave_difference_identity():
    m = PlaneWaveModel(delta_omega=10.0 - 10.7, a1=0.2 - 0.1j, a2=0.35)
    d_omega = m.delta_omega
    for t1, t2, t2p in [(1.0, 2.0, 5.0), (0.3, 0.0, 9.2), (4.0, 7.0, 7.5)]:
        lhs = plane_wave_epsilon(m, t1, t2) - plane_wave_epsilon(m, t1, t2p)
        rhs = m.a2 * (cmath.exp(1j * d_omega * t2) - cmath.exp(1j * d_omega * t2p))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_rate_identical_packets_on_balanced_plate():
    g = GaussianPacket(x0=0.0, sigma=1.0, k0=10.0)
    s = split(g, balanced_splitter())
    n1 = norm2(s.arm1)
    x1 = inner_product(s.arm1, s.arm1)
    rate = counting_rate_d1(inner_product(g, g), n1, n1, x1, Preparation())
    assert rate == pytest.approx(0.5, abs=1e-12)


def test_rate_orthogonal_packets_on_balanced_plate():
    assert counting_rate_d1(0.0, 0.5, 0.5, 0.0, Preparation()) == pytest.approx(0.5)
    # end to end with effectively orthogonal packets
    a = GaussianPacket(x0=-14.0, sigma=1.0, k0=10.0)
    b = GaussianPacket(x0=14.0, sigma=1.0, k0=10.0)
    bs = balanced_splitter()
    sa, sb = split(a, bs), split(b, bs)
    rate = counting_rate_d1(
        inner_product(a, b),
        norm2(sa.arm1),
        norm2(sb.arm1),
        inner_product(sa.arm1, sb.arm1),
        Preparation(),
    )
    assert rate == pytest.approx(0.5, abs=1e-10)


def test_rate_zero_reflectivity():
    a, b = _demo_pair()
    bs = BeamSplitter(r=0.0, t=1.0)
    sa, sb = split(a, bs), split(b, bs)
    rate = counting_rate_d1(
        inner_product(a, b),
        norm2(sa.arm1),
        norm2(sb.arm1),
        inner_product(sa.arm1, sb.arm1),
        Preparation(phi=1.1),
    )
    assert rate == 0.0


def test_spatial_period():
    assert spatial_period(0.8, 1.0) == pytest.approx(2.0 * math.pi / 0.8)
    assert spatial_period(-0.8, 2.0) == pytest.approx(4.0 * math.pi / 0.8)
    assert math.isinf(spatial_period(0.0))


def _demo_sweep(l2_values, phi=0.0):
    alpha, beta = _demo_pair()
    return sweep_d2(
        alpha,
        beta,
        balanced_splitter(),
        GEOM,
        l2_values,
        Preparation(phi=phi),
        alpha.k0,
        beta.k0,
    )


@pytest.mark.parametrize("block", [64, 1 << 20])
def test_spread_equals_pairwise_maximum(block):
    # the n x n difference matrix is the reference, reduced `block`
    # entries at a time: 64 takes one row per block (n = 50), 2**20 the
    # whole matrix at once; hypot(x, 0) is |x|, so the helper is exact here
    n = 50
    result = _demo_sweep(np.linspace(1.0, 16.7, n), phi=0.7)
    for field in ("rate_plane_wave", "l2"):
        pairwise = pairwise_max_abs(getattr(result, field), rows=max(1, block // n))
        assert result.spread(field) == pairwise


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("shape", ["cloud", "lattice", "scales", "huge", "tiny", "few"])
def test_real_spread_equals_pairwise_maximum(seed, shape):
    # max - min against the plain pairwise loop on columns no sweep makes:
    # ties, magnitudes from 1e-300 to 1e300, differences that overflow to
    # inf or are subnormal, and one to three rows
    rng = np.random.default_rng(seed)
    n = int(rng.integers(33, 400))
    if shape == "cloud":
        values = rng.standard_normal(n)
    elif shape == "lattice":  # many tied pairs
        values = rng.integers(0, 3, n) * 1.5
    elif shape == "scales":
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    elif shape == "huge":  # the largest differences overflow
        values = rng.uniform(-1.0, 1.0, n) * 1.7e308
    elif shape == "tiny":  # subnormal differences
        values = rng.uniform(-1.0, 1.0, n) * 1e-310
    else:
        values = rng.standard_normal(seed + 1)
    column = array("d", values)
    expected = max(abs(a - b) for a in column for b in column)
    assert SweepResult(*[column] * 8).spread("l2") == expected


def test_sweep_equal_l2_rows_identical():
    result = _demo_sweep([2.0, 2.0, 2.0])
    assert {result.spread(name) for name in result._fields} == {0.0}


def test_sweep_degenerate_frequencies_collapse_to_exact():
    alpha = GaussianPacket(x0=0.0, sigma=1.0, k0=12.0)
    beta = GaussianPacket(x0=0.8, sigma=1.0, k0=12.0)
    result = sweep_d2(
        alpha,
        beta,
        balanced_splitter(),
        GEOM,
        np.linspace(1.0, 11.0, 17),
        Preparation(),
        alpha.k0,
        beta.k0,
    )
    eps_plane_wave = np.array(complex_column(result, "eps_plane_wave"))
    eps_exact = np.array(complex_column(result, "eps_exact"))
    rate_plane_wave, rate_exact = np.array(result.rate_plane_wave), np.array(result.rate_exact)
    assert np.all(np.abs(eps_plane_wave - eps_exact) < 1e-12)
    assert np.all(np.abs(rate_plane_wave - rate_exact) < 1e-12)


def test_sweep_plane_wave_period_in_l2():
    alpha, beta = _demo_pair()
    period = spatial_period(alpha.k0 - beta.k0)
    result = _demo_sweep([1.0, 1.0 + 0.5 * period, 1.0 + period])
    first, half, full = complex_column(result, "eps_plane_wave")
    rate_first, _, rate_full = result.rate_plane_wave
    assert abs(full - first) < 1e-12
    assert abs(rate_full - rate_first) < 1e-12
    # half a period flips the a2 term: the two rows differ by 2 |a2|
    bs = balanced_splitter()
    m = derive_plane_wave_model(
        split(alpha, bs), split(beta, bs), alpha.k0, beta.k0, 1.0
    )
    assert abs(half - first) == pytest.approx(
        2.0 * abs(m.a2), rel=1e-12
    )
