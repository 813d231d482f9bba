"""Packet representations, closed-form overlaps in exact rationals at width
ratios up to 1e150, the inner product's symmetries, and free flight of Gaussian
and grid packets within their window.  The packets' refusals are rows of
``REFUSALS`` in ``test_argument_checks.py``.  The closed form against quadrature
and the grid inner product against the closed form are acceptance criterion 5;
the overlap under a common flight is criterion 1."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import assert_overlap_is_exact, random_close_pair, random_gaussian
from platesim.packets import (
    GaussianPacket,
    ScaledGaussian,
    SpatialGrid,
    inner_product,
    norm2,
    propagate,
    scale,
)
from platesim.sampled import (
    GridPacket,
    _phases,
    fits_after,
    negative_wavenumber_fraction,
    normalize,
    positions,
    sample,
    spectral_centroid,
    wavenumbers,
)


def test_gaussian_norm_is_one():
    g = GaussianPacket(x0=1.3, sigma=0.7, k0=9.0, phase=0.4)
    assert norm2(g) == 1.0
    assert abs(inner_product(g, g) - 1.0) < 1e-14


def test_scaled_norm2():
    g = GaussianPacket(x0=0.0, sigma=1.0, k0=8.0)
    assert norm2(scale(g, 0.5j)) == pytest.approx(0.25, abs=1e-15)
    assert math.sqrt(norm2(scale(g, -2.0))) == pytest.approx(2.0, abs=1e-15)


def test_scaled_norm2_overflows_to_inf_like_a_grid_packet():
    assert norm2(scale(GaussianPacket(x0=0.0, sigma=1.0, k0=12.0), 1e200)) == math.inf


def test_gaussian_packet_reads_as_an_unflown_arm_of_coefficient_one():
    g = GaussianPacket(x0=1.3, sigma=0.7, k0=9.0, phase=0.4)
    assert g.coef == 1.0 + 0.0j
    assert g.offset == 0.0
    assert g.base is g


def test_scale_composes():
    g = GaussianPacket(x0=0.0, sigma=1.0, k0=8.0)
    twice = scale(scale(g, 2.0), 0.5j)
    assert isinstance(twice, ScaledGaussian)
    assert twice.coef == 1.0j
    assert twice.base == g


def test_grid_takes_a_numpy_integer_size():
    assert SpatialGrid(x_min=0.0, dx=0.1, n=np.int64(8)) == SpatialGrid(x_min=0.0, dx=0.1, n=8)


def test_grid_packet_is_immutable(wide_grid):
    g = sample(GaussianPacket(x0=0.0, sigma=1.0, k0=10.0), wide_grid)
    # the cached arrays are shared by every later caller; the four arms
    # flown to one time share one phase vector
    phases = _phases(wide_grid, 1.0)
    for shared in (g.amplitudes, g.spectrum, positions(wide_grid), wavenumbers(wide_grid), phases):
        with pytest.raises(ValueError):
            shared[0] = 1.0


def test_flown_packet_is_read_only(wide_grid):
    g = normalize(sample(GaussianPacket(x0=0.0, sigma=1.0, k0=10.0), wide_grid))
    with pytest.raises(ValueError):
        propagate(g, 2.0).amplitudes[0] = 1.0


def test_sampling_a_flown_gaussian_samples_its_moved_center(wide_grid):
    g = GaussianPacket(x0=0.5, sigma=1.0, k0=10.0, phase=0.2)
    moved = GaussianPacket(x0=3.5, sigma=1.0, k0=10.0, phase=0.2)
    flown = sample(scale(propagate(g, 3.0), 0.5j), wide_grid).amplitudes
    assert np.array_equal(flown, sample(scale(moved, 0.5j), wide_grid).amplitudes)


def test_replaced_grid_gets_its_own_arrays(wide_grid):
    wide_x, wide_k = positions(wide_grid), wavenumbers(wide_grid)
    finer = SpatialGrid(wide_grid.x_min, wide_grid.dx / 2.0, wide_grid.n)
    assert positions(finer) is not wide_x
    assert wavenumbers(finer) is not wide_k
    assert np.array_equal(positions(finer), finer.x_min + finer.dx * np.arange(finer.n))
    assert np.array_equal(
        wavenumbers(finer), 2.0 * np.pi * np.fft.fftfreq(finer.n, d=finer.dx)
    )


def test_sampled_norm_close_to_one(wide_grid):
    g = sample(GaussianPacket(x0=2.0, sigma=1.2, k0=11.0), wide_grid)
    assert norm2(g) == pytest.approx(1.0, abs=1e-12)
    assert norm2(normalize(g)) == pytest.approx(1.0, abs=1e-15)


def test_grid_norm2_is_the_riemann_sum_of_the_sample_power(wide_grid):
    # bit for bit: normalize divides every grid packet by its square root
    g = sample(GaussianPacket(x0=2.0, sigma=1.2, k0=11.0), wide_grid)
    amps = np.random.default_rng(7).standard_normal((2, wide_grid.n))
    noise = GridPacket(wide_grid, amps[0] + 1j * amps[1])
    for p in (g, normalize(g), propagate(g, 40.0), scale(g, 0.3 - 0.2j), noise):
        assert norm2(p) == float(np.sum(np.abs(p.amplitudes) ** 2) * p.grid.dx)


def test_overlap_magnitude_for_separated_equal_widths():
    # |<a|b>| = exp(-d^2 / (4 sigma^2)) for equal widths and carriers
    sigma, d = 0.8, 1.2
    a = GaussianPacket(x0=0.0, sigma=sigma, k0=10.0)
    b = GaussianPacket(x0=d, sigma=sigma, k0=10.0)
    assert abs(inner_product(a, b)) == pytest.approx(
        math.exp(-(d**2) / (4.0 * sigma**2)), rel=1e-13
    )


def test_overlap_magnitude_for_detuned_carriers():
    # |<a|b>| = exp(-dk^2 sigma^2 / 4) for a common center and width
    sigma, dk = 1.0, 0.8
    a = GaussianPacket(x0=0.5, sigma=sigma, k0=12.0)
    b = GaussianPacket(x0=0.5, sigma=sigma, k0=12.0 + dk)
    assert abs(inner_product(a, b)) == pytest.approx(
        math.exp(-(dk**2) * sigma**2 / 4.0), rel=1e-13
    )


def test_identical_packets_overlap_one():
    g = GaussianPacket(x0=-1.0, sigma=1.5, k0=7.0, phase=2.2)
    assert inner_product(g, g) == pytest.approx(1.0 + 0.0j, abs=1e-14)


def test_far_separated_overlap_vanishes():
    a = GaussianPacket(x0=-30.0, sigma=1.0, k0=10.0)
    b = GaussianPacket(x0=30.0, sigma=1.0, k0=10.0)
    assert abs(inner_product(a, b)) < 1e-300


WIDTH_RATIOS = [("near", decades) for decades in range(11)] + [
    ("far", decades) for decades in (*range(11), 50, 100, 150)
]


@pytest.mark.parametrize(
    "carriers, decades", WIDTH_RATIOS,
    ids=[str(d) if c == "near" else f"far-{d}" for c, d in WIDTH_RATIOS],
)
def test_closed_form_overlap_at_a_width_ratio(carriers, decades):
    # sigma_b / sigma_a = 10**decades.  The exponent's real part is
    # -d^2 A B / p - dk^2 / (4p); spelled as q^2/(4p) + c0 its first and
    # last terms are each about A d^2 / 4 and cancel.  Its imaginary part is
    # -d (k_a B + k_b A) / p; spelled as (B - A) d dk / (2p) - (k_a + k_b) d / 2
    # its two terms are each about k_a d / 2 and cancel when k_a dominates,
    # as with the "far" carriers.  The reference is in exact rationals.
    if carriers == "near":  # 0.4 apart
        a = GaussianPacket(x0=0.0, sigma=10.0**-decades, k0=8.0 * 10.0**decades, phase=0.3)
        b = GaussianPacket(x0=0.7, sigma=1.0, k0=8.0 * 10.0**decades + 0.4)
    else:  # dk near -k_a
        a = GaussianPacket(x0=0.0, sigma=10.0**-decades, k0=4.0 * 10.0**decades, phase=0.3)
        b = GaussianPacket(x0=0.5, sigma=1.2, k0=12.8)
    assert_overlap_is_exact(inner_product(a, b), a, b)


NARROW = GaussianPacket(x0=0.0, sigma=1e-160, k0=4e160, phase=0.3)  # sigma^2 is subnormal
NARROW_PAIRS = {
    # 4p and dk^2 overflow: the real part was NaN
    "1e-154": (GaussianPacket(x0=0.0, sigma=1e-154, k0=1e155), GaussianPacket(0.5, 1.2, 12.8)),
    # p d^2 overflows: the real part was -inf, and the overlap 0
    "2e-154": (GaussianPacket(x0=0.0, sigma=2e-154, k0=2e154), GaussianPacket(0.5, 1.2, 12.8)),
    # 1 / (2 sigma^2) overflows, and sigma^2 is subnormal
    "1e-160": (NARROW, GaussianPacket(0.5, 1.2, 12.8)),
    "both-1e-160": (NARROW, GaussianPacket(x0=2e-160, sigma=1.5e-160, k0=3e160)),
    # an equal narrow width, where A/p would be inf/inf
    "equal-1e-160": (NARROW, GaussianPacket(x0=1e-160, sigma=1e-160, k0=5e160, phase=-1.0)),
}


@pytest.mark.parametrize("swap", [False, True], ids=["alpha", "beta"])
@pytest.mark.parametrize("pair", NARROW_PAIRS.values(), ids=NARROW_PAIRS.keys())
def test_closed_form_overlap_of_a_narrow_packet(pair, swap):
    a, b = reversed(pair) if swap else pair
    assert_overlap_is_exact(inner_product(a, b), a, b)


def test_overlap_with_an_overflowing_carrier_sum_has_no_value():
    # d k overflows, so the phase -d (k_a B + k_b A) / p is infinite
    a = GaussianPacket(x0=0.0, sigma=1.0, k0=1e308)
    b = GaussianPacket(x0=3.0, sigma=1.0, k0=1e308)
    assert cmath.isnan(inner_product(a, b))


def test_inner_product_hermitian():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = random_gaussian(rng), random_gaussian(rng)
        assert inner_product(a, b) == pytest.approx(
            np.conj(inner_product(b, a)), abs=1e-14
        )


def test_inner_product_sesquilinear():
    rng = np.random.default_rng(8)
    a, b = random_close_pair(rng)
    base = inner_product(a, b)
    assert inner_product(scale(a, 2.0j), b) == pytest.approx(-2.0j * base, rel=1e-13)
    assert inner_product(a, scale(b, 0.5j)) == pytest.approx(0.5j * base, rel=1e-13)


def test_propagate_gaussian_moves_center_only():
    # The flight is kept as an offset beside the unchanged packet.
    g = GaussianPacket(x0=1.0, sigma=0.9, k0=8.0, phase=0.3)
    moved = propagate(g, 4.0, c=2.0)
    assert moved == ScaledGaussian(1.0 + 0.0j, g, offset=8.0)
    assert moved.x0 == 9.0
    assert propagate(moved, 1.0, c=2.0) == ScaledGaussian(1.0 + 0.0j, g, offset=10.0)
    scaled_moved = propagate(scale(g, 0.5j), 4.0, c=2.0)
    assert scaled_moved == ScaledGaussian(0.5j, g, offset=8.0)
    assert norm2(moved) == 1.0
    assert scale(moved, 0.5j) == ScaledGaussian(0.5j, g, offset=8.0)


def test_propagate_grid_matches_resampled_gaussian(wide_grid):
    g = GaussianPacket(x0=0.0, sigma=1.0, k0=12.0)
    moved = propagate(normalize(sample(g, wide_grid)), 7.5)
    ref = normalize(sample(GaussianPacket(x0=7.5, sigma=1.0, k0=12.0), wide_grid))
    assert_allclose(moved.amplitudes, ref.amplitudes, atol=1e-12)


def test_propagate_grid_conserves_norm(wide_grid):
    rng = np.random.default_rng(12)
    g = normalize(sample(random_gaussian(rng), wide_grid))
    assert norm2(propagate(g, 60.0)) == pytest.approx(1.0, abs=1e-13)


def test_propagate_wraparound_guard():
    small = SpatialGrid(x_min=-12.0, dx=1.0 / 16.0, n=384)  # window [-12, 12]
    g = normalize(sample(GaussianPacket(x0=0.0, sigma=1.0, k0=12.0), small))
    # a flight that stays inside the window passes; REFUSALS holds one that wraps
    assert norm2(propagate(g, 2.0)) == pytest.approx(1.0, abs=1e-13)


def test_fits_after(wide_grid):
    g = normalize(sample(GaussianPacket(x0=0.0, sigma=1.0, k0=12.0), wide_grid))
    assert fits_after(g, 120.0, 1.0, 1e-6)
    assert not fits_after(g, 260.0, 1.0, 1e-6)  # past the window end at 216


def test_spectral_centroid_recovers_carrier(wide_grid):
    rng = np.random.default_rng(13)
    for _ in range(5):
        g = random_gaussian(rng)
        sampled = normalize(sample(g, wide_grid))
        assert spectral_centroid(sampled) == pytest.approx(g.k0, abs=1e-8)


def test_negative_wavenumber_weight_negligible(wide_grid):
    g = normalize(sample(GaussianPacket(x0=0.0, sigma=1.0, k0=8.0), wide_grid))
    assert negative_wavenumber_fraction(g) < 1e-10


def test_sample_scaled_gaussian(wide_grid):
    g = GaussianPacket(x0=0.0, sigma=1.0, k0=10.0)
    sampled = sample(scale(g, 2.0j), wide_grid)
    assert norm2(sampled) == pytest.approx(4.0, abs=1e-10)
