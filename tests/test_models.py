"""Exact vs plane-wave predictions and the D2 sweep, at fixed points: the
shortcut's model and overlap (at the plate, with a zeroed arm, with equal
carriers, the difference identity), the rate's values and refusals, the sweep's
spread, its period in l2 and its refusals.  Every sweep column against a
row-by-row reference is ``test_sweep_reference.py``; the rates summing to 1 and
the shortcut's period in t2, over drawn inputs, are ``test_properties.py``."""

from __future__ import annotations

import cmath
import math
import re
from array import array

import numpy as np
import pytest

from conftest import pairwise_max_abs, random_gaussian, random_splitter
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
from platesim.models import (
    PlaneWaveModel, SweepResult, carrier_detuning, counting_rate_d1, spatial_period,
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
    name = next(n for n, v in (("eps", eps), ("x1", x1), ("phi", phi)) if not cmath.isfinite(v))
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        counting_rate_d1(eps, 0.5, 0.5, x1, Preparation(phi=phi))


NUMERATOR = "n_a1 + n_b1 + 2 Re(e^{i phi} x1)"
DENOMINATOR = "2 + 2 Re(e^{i phi} eps)"


@pytest.mark.parametrize(
    "eps, n_a1, n_b1, x1, name",
    [
        (0.85, 0.5, 0.5, 1e308, NUMERATOR),
        (0.85, 1e308, 1e308, 0.4, NUMERATOR),
        (1e308, 0.5, 0.5, 0.4, DENOMINATOR),
        (-1e308, 0.5, 0.5, 0.4, DENOMINATOR),
    ],
    ids=["x1", "norms", "eps-plus-inf", "eps-minus-inf"],
)
def test_rate_refuses_an_overflowed_sum(eps, n_a1, n_b1, x1, name):
    # Finite inputs far outside normalized packets: an overflowed numerator
    # would be clamped to 1.0, a denominator of +inf give 0.0, and one of
    # -inf read as a degenerate preparation.
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be finite$") as info:
        counting_rate_d1(eps, n_a1, n_b1, x1, Preparation())
    assert not isinstance(info.value, DegeneratePreparationError)


@pytest.mark.parametrize(
    "eps, n_a1, n_b1, x1",
    [
        (0.85, 1e308, 0.5, 0.4),
        (0.85, 5.0, 0.5, 0.43),
        (-0.9, 0.5, 0.5, 0.5),
        (0.85, 0.5, 0.5, -0.9),
    ],
    ids=["huge-norm", "norm-above-one", "numerator-above-denominator", "negative-numerator"],
)
def test_rate_refuses_a_numerator_outside_its_range(eps, n_a1, n_b1, x1):
    # Finite sums no normalized packets give: clamping would report them
    # as a rate of exactly 1.0 or 0.0.
    message = "numerator n_a1 + n_b1 + 2 Re(e^{i phi} x1) outside [0, 2 + 2 Re(e^{i phi} eps)]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        counting_rate_d1(eps, n_a1, n_b1, x1, Preparation())
    assert not isinstance(info.value, DegeneratePreparationError)


@pytest.mark.parametrize(
    "k_beta, l2_values",
    [(12.0, [1.0, 1e10]), (12.8, [1.0, 1e10]), (12.0, [1e10, 1.0]), (12.8, [1e10, 1.0])],
    ids=["nan", "inf", "nan-first", "inf-first"],
)
def test_sweep_row_with_non_finite_phase_raises(k_beta, l2_values):
    # l2 / c overflows, so the row's phase d_omega * t2 is NaN (equal
    # carriers) or infinite; its rate must not be clamped to 0 and written,
    # whether the row comes last or first.
    alpha, beta = _demo_pair()
    geom = ExperimentGeometry(l1=1.0, l2=1.0, c=1e-300)
    phase = re.escape("plane-wave phase (c * k_alpha - c * k_beta) * l2 / c")
    with pytest.raises(ValueError, match=f"^{phase} must be finite$"):
        sweep_d2(alpha, beta, balanced_splitter(), geom, l2_values, Preparation(), 12.0, k_beta)


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
    assert SweepResult(column, column, [], [], column, column).spread("l2") == expected


@pytest.mark.parametrize("field", ["eps_exact", "eps_plane_wave"])
def test_spread_refuses_a_complex_column_by_name(field):
    with pytest.raises(ValueError, match=f"real column; {field} is complex"):
        _demo_sweep([1.0, 2.0]).spread(field)


def test_sweep_equal_l2_rows_identical():
    result = _demo_sweep([2.0, 2.0, 2.0])
    assert pairwise_max_abs(result.eps_plane_wave) == 0.0
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


@pytest.mark.parametrize("l2_values", [[math.nan], [math.inf], [1.0, math.nan, 2.0]])
def test_sweep_refuses_non_finite_l2_values(l2_values):
    # NaN passes the sign check and inf is positive: without their own
    # check both fail later under another name.
    with pytest.raises(ValueError, match="^l2_values must be positive and finite$"):
        _demo_sweep(l2_values)


@pytest.mark.parametrize(
    "t1, t2, match",
    [
        (1.0, math.nan, "^t2 must be finite$"),
        (1.0, math.inf, "^t2 must be finite$"),
        (math.nan, 1.0, "^t1 must be finite$"),
    ],
)
def test_plane_wave_epsilon_refuses_non_finite_times(t1, t2, match):
    alpha, beta = _demo_pair()
    sa, sb = split(alpha, balanced_splitter()), split(beta, balanced_splitter())
    m = derive_plane_wave_model(sa, sb, alpha.k0, beta.k0)
    with pytest.raises(ValueError, match=match):
        plane_wave_epsilon(m, t1, t2)


@pytest.mark.parametrize(
    "k_alpha, k_beta, c, match",
    [
        (math.nan, 12.8, 1.0, "^k_alpha must be finite$"),
        (12.0, math.inf, 1.0, "^k_beta must be finite$"),
        (12.0, 12.8, math.nan, "^c must be positive and finite$"),
        (12.0, 12.8, 0.0, "^c must be positive and finite$"),
        (1e308, 12.8, 10.0, r"^c \* k_alpha must be finite$"),
        (1e308, -1e308, 1.0, "^delta_omega must be finite$"),  # each product finite
    ],
)
def test_derive_plane_wave_model_refuses_bad_carriers_and_speed(k_alpha, k_beta, c, match):
    alpha, beta = _demo_pair()
    sa, sb = split(alpha, balanced_splitter()), split(beta, balanced_splitter())
    with pytest.raises(ValueError, match=match):
        derive_plane_wave_model(sa, sb, k_alpha, k_beta, c)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PlaneWaveModel(math.nan, 0.5, 0.5j), "delta_omega must be finite"),
        (lambda: PlaneWaveModel(-0.8, 0.5, complex(0.0, math.inf)), "a2 must be finite"),
        (lambda: Preparation(math.inf), "phi must be finite"),
        (
            lambda: plane_wave_epsilon(PlaneWaveModel(1e308, 0.5, 0.5j), 10.0, 1.0),
            "plane-wave phase delta_omega * t1 must be finite",
        ),
        (
            lambda: plane_wave_epsilon(PlaneWaveModel(9e307, 0.5, 0.5j), 1.0, 10.0),
            "plane-wave phase delta_omega * t2 must be finite",
        ),
        (lambda: spatial_period(math.nan), "delta_omega must be finite"),
        (lambda: spatial_period(1.0, -1.0), "c must be positive and finite"),
        (lambda: carrier_detuning(math.nan, 1.0, 1.0), "c * k_alpha must be finite"),
    ],
    ids=[
        "nan-omega", "infinite-a2", "infinite-phi", "overflowing-phase", "overflowing-t2-phase",
        "period-nan-omega", "period-negative-speed", "detuning-nan-carrier",
    ],
)
def test_shortcut_records_refuse_non_finite_numbers(call, message):
    # Built or returned, each would make the shortcut's overlap nan+nanj,
    # or its period NaN or negative.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
