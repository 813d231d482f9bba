"""Packet representations, overlaps, and free flight."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_close_pair, random_gaussian
from platesim.optics import TwoArmState
from platesim.packets import (
    GaussianPacket,
    ScaledGaussian,
    WraparoundError,
    inner_product,
    norm2,
    propagate,
    scale,
)
from platesim.sampled import (
    GridPacket,
    SpatialGrid,
    fits_after,
    gaussian_amplitude,
    negative_wavenumber_fraction,
    normalize,
    sample,
    spectral_centroid,
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


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(x0=0.0, sigma=0.0, k0=8.0),
        dict(x0=0.0, sigma=-1.0, k0=8.0),
        dict(x0=0.0, sigma=1.0, k0=0.0),
        dict(x0=0.0, sigma=1.0, k0=-3.0),
        dict(x0=0.0, sigma=1.0, k0=3.9),  # k0 * sigma < 4
        dict(x0=0.0, sigma=1e-300, k0=1e301),  # sigma * sigma underflows to 0
        dict(x0=0.0, sigma=1e200, k0=12.0),  # sigma * sigma overflows
        dict(x0=0.0, sigma=1.0, k0=math.nan),
    ],
)
def test_gaussian_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        GaussianPacket(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [dict(x_min=0.0, dx=0.0, n=8), dict(x_min=0.0, dx=0.1, n=1), dict(x_min=-1.0, dx=math.nan, n=8)],
)
def test_grid_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        SpatialGrid(**kwargs)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(x0=math.nan, sigma=1.0, k0=12.0), "^x0 must be finite$"),
        (dict(x0=-math.inf, sigma=1.0, k0=12.0), "^x0 must be finite$"),
        (dict(x0=0.0, sigma=1.0, k0=12.0, phase=math.inf), "^phase must be finite$"),
        (dict(x0=0.0, sigma=1.0, k0=12.0, phase=math.nan), "^phase must be finite$"),
    ],
)
def test_gaussian_refuses_non_finite_center_and_phase(kwargs, match):
    # Built, they would overlap to nan+nanj.
    with pytest.raises(ValueError, match=match):
        GaussianPacket(**kwargs)


# an infinite spacing, or one whose n steps overflow the window's end
WINDOW_END = "^" + re.escape("grid window end x_min + n * dx must be finite") + "$"


@pytest.mark.parametrize(
    "kwargs, error, match",
    [
        (dict(x_min=math.nan, dx=0.1, n=8), ValueError, "^grid origin x_min must be finite$"),
        (dict(x_min=math.inf, dx=0.1, n=8), ValueError, "^grid origin x_min must be finite$"),
        (dict(x_min=0.0, dx=0.1, n=8.5), TypeError, "^grid size n must be an integer, not float$"),
        (dict(x_min=0.0, dx=0.1, n="8"), TypeError, "^grid size n must be an integer, not str$"),
        (dict(x_min=0.0, dx=math.inf, n=8), ValueError, WINDOW_END),
        (dict(x_min=0.0, dx=1e308, n=8), ValueError, WINDOW_END),
    ],
)
def test_grid_refuses_non_finite_origin_and_non_integer_size(kwargs, error, match):
    with pytest.raises(error, match=match):
        SpatialGrid(**kwargs)


def test_grid_takes_a_numpy_integer_size():
    assert SpatialGrid(x_min=0.0, dx=0.1, n=np.int64(8)) == SpatialGrid(x_min=0.0, dx=0.1, n=8)


def test_grid_packet_is_immutable(wide_grid):
    g = sample(GaussianPacket(x0=0.0, sigma=1.0, k0=10.0), wide_grid)
    # the cached arrays are shared by every later caller
    for shared in (g.amplitudes, g.spectrum, wide_grid.positions, wide_grid.wavenumbers):
        with pytest.raises(ValueError):
            shared[0] = 1.0


def test_flown_packet_and_sample_power_are_read_only(wide_grid):
    g = normalize(sample(GaussianPacket(x0=0.0, sigma=1.0, k0=10.0), wide_grid))
    for shared in (propagate(g, 2.0).amplitudes, g.sample_power):
        with pytest.raises(ValueError):
            shared[0] = 1.0


def test_sampling_a_flown_gaussian_samples_its_moved_center(wide_grid):
    g = GaussianPacket(x0=0.5, sigma=1.0, k0=10.0, phase=0.2)
    moved = GaussianPacket(x0=3.5, sigma=1.0, k0=10.0, phase=0.2)
    flown = sample(scale(propagate(g, 3.0), 0.5j), wide_grid).amplitudes
    assert np.array_equal(flown, sample(scale(moved, 0.5j), wide_grid).amplitudes)


def test_replaced_grid_gets_its_own_arrays(wide_grid):
    positions, wavenumbers = wide_grid.positions, wide_grid.wavenumbers
    finer = SpatialGrid(wide_grid.x_min, wide_grid.dx / 2.0, wide_grid.n)
    assert finer.positions is not positions
    assert finer.wavenumbers is not wavenumbers
    assert np.array_equal(finer.positions, finer.x_min + finer.dx * np.arange(finer.n))
    assert np.array_equal(
        finer.wavenumbers, 2.0 * np.pi * np.fft.fftfreq(finer.n, d=finer.dx)
    )


def test_grid_packet_shape_check(wide_grid):
    with pytest.raises(ValueError):
        GridPacket(wide_grid, np.zeros(wide_grid.n - 1, dtype=complex))


def test_sampled_norm_close_to_one(wide_grid):
    g = sample(GaussianPacket(x0=2.0, sigma=1.2, k0=11.0), wide_grid)
    assert norm2(g) == pytest.approx(1.0, abs=1e-12)
    assert norm2(normalize(g)) == pytest.approx(1.0, abs=1e-15)


def test_normalize_rejects_zero(wide_grid):
    zero = GridPacket(wide_grid, np.zeros(wide_grid.n, dtype=complex))
    with pytest.raises(ValueError, match="degenerate packet"):
        normalize(zero)


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


def test_closed_form_matches_quadrature():
    """Spot check against direct numerical integration of conj(a) * b."""
    quad = pytest.importorskip("scipy.integrate").quad
    rng = np.random.default_rng(9)
    for _ in range(3):
        a, b = random_close_pair(rng)
        lo = min(a.x0, b.x0) - 12.0 * max(a.sigma, b.sigma)
        hi = max(a.x0, b.x0) + 12.0 * max(a.sigma, b.sigma)

        def integrand(x):
            return np.conj(gaussian_amplitude(a, x)) * gaussian_amplitude(b, x)

        re = quad(lambda x: integrand(x).real, lo, hi, limit=600)[0]
        im = quad(lambda x: integrand(x).imag, lo, hi, limit=600)[0]
        assert inner_product(a, b) == pytest.approx(complex(re, im), abs=1e-9)


def test_grid_inner_product_matches_closed_form(wide_grid):
    rng = np.random.default_rng(10)
    for _ in range(10):
        a, b = random_close_pair(rng)
        exact = inner_product(a, b)
        sampled = inner_product(sample(a, wide_grid), sample(b, wide_grid))
        assert abs(sampled - exact) / abs(exact) < 1e-6


def test_overlap_invariant_under_common_translation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b = random_gaussian(rng), random_gaussian(rng)
        before = inner_product(a, b)
        t = rng.uniform(0.0, 120.0)
        after = inner_product(propagate(a, t), propagate(b, t))
        assert abs(after - before) < 1e-12


def test_mixed_representations_rejected(wide_grid):
    g = GaussianPacket(x0=0.0, sigma=1.0, k0=10.0)
    with pytest.raises(TypeError):
        inner_product(g, sample(g, wide_grid))


def test_incompatible_grids_rejected(wide_grid):
    other = SpatialGrid(x_min=wide_grid.x_min, dx=wide_grid.dx, n=wide_grid.n // 2)
    g = GaussianPacket(x0=0.0, sigma=1.0, k0=10.0)
    with pytest.raises(ValueError, match="incompatible grids"):
        inner_product(sample(g, wide_grid), sample(g, other))


def test_inner_product_rejects_non_packets():
    with pytest.raises(TypeError):
        inner_product(1.0, GaussianPacket(x0=0.0, sigma=1.0, k0=10.0))


G = GaussianPacket(x0=0.0, sigma=1.0, k0=10.0)


@pytest.mark.parametrize(
    "thing", [1.0, 0.5 - 2j, TwoArmState(G, G)], ids=["float", "complex", "two-arm state"]
)
def test_packet_functions_refuse_non_packets(thing, wide_grid):
    # a two-arm state is a record, but not a packet
    grid_packet = sample(G, wide_grid)
    calls = [norm2, lambda p: scale(p, 0.5j), lambda p: propagate(p, 1.0)]
    for other in (G, grid_packet):
        calls += [lambda p, q=other: inner_product(p, q), lambda p, q=other: inner_product(q, p)]
    for call in calls:
        with pytest.raises(TypeError, match="not a packet"):
            call(thing)
    for a, b in ((G, grid_packet), (grid_packet, G)):
        with pytest.raises(TypeError, match="cannot mix"):
            inner_product(a, b)


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


def test_propagate_rejects_bad_arguments(wide_grid):
    g = GaussianPacket(x0=0.0, sigma=1.0, k0=10.0)
    # NaN fails the sign checks too, on either kind of packet
    for p in (g, normalize(sample(g, wide_grid))):
        for t in (-1.0, math.nan):
            with pytest.raises(ValueError, match="^t must be nonnegative$"):
                propagate(p, t)
        for c in (0.0, math.nan):
            with pytest.raises(ValueError, match="^c must be positive and finite$"):
                propagate(p, 1.0, c=c)


def test_propagate_wraparound_guard():
    small = SpatialGrid(x_min=-12.0, dx=1.0 / 16.0, n=384)  # window [-12, 12]
    g = normalize(sample(GaussianPacket(x0=0.0, sigma=1.0, k0=12.0), small))
    with pytest.raises(WraparoundError, match="wraparound"):
        propagate(g, 30.0)
    # same flight on a long enough window is fine
    assert norm2(propagate(g, 2.0)) == pytest.approx(1.0, abs=1e-13)


def test_propagate_wraparound_names_the_time():
    small = SpatialGrid(x_min=-12.0, dx=1.0 / 16.0, n=384)  # window [-12, 12]
    g = normalize(sample(GaussianPacket(x0=0.0, sigma=1.0, k0=12.0), small))
    with pytest.raises(WraparoundError) as info:
        propagate(g, 15.0, c=2.0)
    assert str(info.value) == (
        "t = 15: wraparound: translation by 30 pushes the packet past the window edge"
    )


def test_fits_after(wide_grid):
    g = normalize(sample(GaussianPacket(x0=0.0, sigma=1.0, k0=12.0), wide_grid))
    assert fits_after(g, 120.0, 1.0, 1e-6)
    assert not fits_after(g, 260.0, 1.0, 1e-6)  # past the window end at 216
    with pytest.raises(ValueError):
        fits_after(g, 1.0, 1.0, 0.0)


@pytest.mark.parametrize(
    "t, c, match",
    [
        (math.nan, 1.0, "^t must be nonnegative$"),
        (-1.0, 1.0, "^t must be nonnegative$"),
        (1.0, math.nan, "^c must be positive and finite$"),
        (1.0, 0.0, "^c must be positive and finite$"),
    ],
)
def test_fits_after_refuses_bad_flight(wide_grid, t, c, match):
    # NaN fails every comparison, so an unguarded check would call the packet a fit.
    g = normalize(sample(GaussianPacket(x0=0.0, sigma=1.0, k0=12.0), wide_grid))
    with pytest.raises(ValueError, match=match):
        fits_after(g, t, c, 1e-9)


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
