"""Exact vs plane-wave predictions and the D2 sweep."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from conftest import random_close_pair, random_gaussian, random_splitter
from platesim import (
    DegeneratePreparationError,
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
from platesim.models import PlaneWaveModel, counting_rate_d1, spatial_period
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
    m = PlaneWaveModel(omega_alpha=9.0, omega_beta=9.0, a1=0.3 + 0.1j, a2=0.4j)
    for t1, t2 in [(0.0, 0.0), (1.0, 5.0), (2.5, 88.0)]:
        assert plane_wave_epsilon(m, t1, t2) == m.a1 + m.a2


def test_plane_wave_epsilon_periodic_in_t2():
    m = PlaneWaveModel(omega_alpha=12.0, omega_beta=12.8, a1=0.4, a2=0.45j)
    period = 2.0 * math.pi / abs(m.delta_omega)
    for t1, t2 in [(0.0, 0.0), (1.0, 2.0), (3.3, 7.7)]:
        assert plane_wave_epsilon(m, t1, t2 + period) == pytest.approx(
            plane_wave_epsilon(m, t1, t2), abs=1e-12
        )


def test_plane_wave_difference_identity():
    m = PlaneWaveModel(omega_alpha=10.0, omega_beta=10.7, a1=0.2 - 0.1j, a2=0.35)
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


def test_rates_lie_in_unit_interval_and_sum_to_one():
    rng = np.random.default_rng(32)
    for _ in range(20):
        a, b = random_close_pair(rng)
        bs = random_splitter(rng)
        prep = Preparation(phi=rng.uniform(0.0, 2.0 * math.pi))
        sa, sb = split(a, bs), split(b, bs)
        eps = inner_product(a, b)
        r1 = counting_rate_d1(
            eps, norm2(sa.arm1), norm2(sb.arm1), inner_product(sa.arm1, sb.arm1), prep
        )
        r2 = counting_rate_d1(
            eps, norm2(sa.arm2), norm2(sb.arm2), inner_product(sa.arm2, sb.arm2), prep
        )
        assert 0.0 <= r1 <= 1.0
        assert 0.0 <= r2 <= 1.0
        assert r1 + r2 == pytest.approx(1.0, abs=1e-10)


def test_degenerate_preparation_rejected():
    with pytest.raises(DegeneratePreparationError, match="degenerate preparation"):
        counting_rate_d1(-1.0 + 0.0j, 0.5, 0.5, -0.5, Preparation())
    # end to end: beta is alpha with a pi phase flip, so eps = -1 at phi = 0
    a = GaussianPacket(x0=0.0, sigma=1.0, k0=10.0)
    b = GaussianPacket(x0=0.0, sigma=1.0, k0=10.0, phase=math.pi)
    bs = balanced_splitter()
    sa, sb = split(a, bs), split(b, bs)
    with pytest.raises(DegeneratePreparationError):
        counting_rate_d1(
            inner_product(a, b),
            norm2(sa.arm1),
            norm2(sb.arm1),
            inner_product(sa.arm1, sb.arm1),
            Preparation(),
        )


@pytest.mark.parametrize(
    "eps, x1, phi",
    [
        (complex(math.nan, 0.0), 0.5, 0.0),
        (0.5, complex(0.0, math.inf), 0.0),
        (complex(0.5, math.nan), 0.5, 0.0),
        (0.5, 0.5, math.nan),
    ],
)
def test_rate_rejects_non_finite_input(eps, x1, phi):
    # min(1, max(0, nan)) would report NaN as a rate of 0
    with pytest.raises(ValueError, match="non-finite"):
        counting_rate_d1(eps, 0.5, 0.5, x1, Preparation(phi=phi))


@pytest.mark.parametrize(
    "k_beta, match", [(12.0, "non-finite"), (12.8, "math domain")], ids=["nan", "inf"]
)
def test_sweep_row_with_non_finite_phase_raises(k_beta, match):
    # l2 / c overflows, so the row's phase d_omega * t2 is NaN (equal
    # carriers) or infinite; its rate must not be clamped to 0 and written.
    alpha, beta = _demo_pair()
    geom = ExperimentGeometry(l1=1.0, l2=1.0, c=1e-300)
    with pytest.raises(ValueError, match=match):
        sweep_d2(alpha, beta, balanced_splitter(), geom, [1.0, 1e10], Preparation(), 12.0, k_beta)


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


def test_sweep_rows_follow_l2_order():
    values = [3.0, 1.0, 2.0]
    result = _demo_sweep(values)
    assert result.l2.tolist() == values
    assert result.t2.tolist() == values  # c = 1


def test_sweep_exact_columns_constant():
    result = _demo_sweep(np.linspace(1.0, 16.7, 50))
    assert result.spread("eps_exact") == 0.0
    assert result.spread("rate_exact") == 0.0
    rate_plane_wave = np.array(result.rate_plane_wave)
    assert np.all((0.0 <= rate_plane_wave) & (rate_plane_wave <= 1.0))


@pytest.mark.parametrize("block", [64, 1 << 20])
def test_spread_equals_pairwise_maximum(block):
    # the n x n difference matrix is the reference, reduced `block`
    # entries at a time: 64 takes one row per block (n = 50), 2**20 the
    # whole matrix at once
    result = _demo_sweep(np.linspace(1.0, 16.7, 50), phi=0.7)
    for field in ("eps_plane_wave", "rate_plane_wave", "l2"):
        values = np.array(getattr(result, field))
        rows = max(1, block // values.size)
        pairwise = max(
            float(np.abs(values[i : i + rows, None] - values[None, :]).max())
            for i in range(0, values.size, rows)
        )
        assert result.spread(field) == pairwise


def test_sweep_equal_l2_rows_identical():
    result = _demo_sweep([2.0, 2.0, 2.0])
    assert result.spread("eps_plane_wave") == 0.0
    assert result.spread("rate_plane_wave") == 0.0


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
    eps_plane_wave, eps_exact = np.array(result.eps_plane_wave), np.array(result.eps_exact)
    rate_plane_wave, rate_exact = np.array(result.rate_plane_wave), np.array(result.rate_exact)
    assert np.all(np.abs(eps_plane_wave - eps_exact) < 1e-12)
    assert np.all(np.abs(rate_plane_wave - rate_exact) < 1e-12)


def test_sweep_plane_wave_period_in_l2():
    alpha, beta = _demo_pair()
    period = spatial_period(alpha.k0 - beta.k0)
    result = _demo_sweep([1.0, 1.0 + 0.5 * period, 1.0 + period])
    first, half, full = result.eps_plane_wave
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


def test_sweep_rejects_bad_l2_values():
    with pytest.raises(ValueError, match="nonempty"):
        _demo_sweep([])
    with pytest.raises(ValueError, match="positive"):
        _demo_sweep([1.0, -2.0])


def test_sweep_scaled_inputs_keep_rates_bounded():
    # a slightly asymmetric preparation still yields physical rates
    result = _demo_sweep(np.linspace(1.0, 20.0, 40), phi=2.0)
    rate_plane_wave, rate_exact = np.array(result.rate_plane_wave), np.array(result.rate_exact)
    assert np.all((0.0 <= rate_plane_wave) & (rate_plane_wave <= 1.0))
    assert np.all((0.0 <= rate_exact) & (rate_exact <= 1.0))
