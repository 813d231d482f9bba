"""Free flight, bit for bit, over drawn inputs.

A Gaussian keeps its flight apart from its center, so two packets flown
alike keep their closed-form overlap in every bit, and scaling one after
the flight equals scaling it before, by value.  Grid flight evaluates
half of the phase vector and conjugates the rest, and its wraparound
check sums a cached |amplitudes|^2; both must give exactly what the direct
expressions give.  ``test_propagation_reference.py`` checks whole flights
on two fixed grids of 4096 samples; these properties cover other sizes,
spacings and shifts.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from platesim.packets import GaussianPacket, SpatialGrid, inner_product, norm2  # noqa: E402
from platesim.packets import propagate, scale  # noqa: E402
from platesim.sampled import GridPacket, _phases, fits_after, positions, wavenumbers  # noqa: E402

TINY = 5e-324  # the smallest subnormal


def _bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


@st.composite
def gaussians(draw):
    sigma = draw(st.floats(0.05, 20.0))
    return GaussianPacket(
        x0=draw(st.floats(-1e6, 1e6)),
        sigma=sigma,
        k0=draw(st.floats(4.5, 200.0)) / sigma,
        phase=draw(st.floats(-10.0, 10.0)),
    )


coefs = st.one_of(
    st.none(),
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
)
# c and the times of one or two successive flights, c * t up to 1e15 each
flights = st.tuples(
    st.floats(1e-3, 1e3),
    st.lists(st.one_of(st.floats(0.0, 1e12), st.just(TINY)), min_size=1, max_size=2),
)


@settings(max_examples=400)
@given(gaussians(), gaussians(), coefs, coefs, flights)
@example(
    GaussianPacket(0.0, 1.0, 12.0), GaussianPacket(0.3, 1.0, 12.8), None, None,
    (1.0, [1e9]),
)
@example(
    GaussianPacket(0.0, 1.0, 12.0), GaussianPacket(-0.0, 1.0, 12.8), 0.5j, None,
    (1e3, [1e12]),
)
@example(  # c * t overflows to inf for both packets
    GaussianPacket(0.0, 1.0, 12.0), GaussianPacket(0.5, 1.2, 12.8), None, None,
    (2.0, [1e308]),
)
@example(  # the second flight's sum overflows
    GaussianPacket(0.0, 1.0, 12.0), GaussianPacket(0.3, 1.0, 12.8), 0.5j, -2.0,
    (1.0, [1e308, 1.7e308]),
)
def test_gaussian_flight_keeps_the_overlap_bit_for_bit(a, b, coef_a, coef_b, flight):
    c, times = flight
    if coef_a is not None:
        a = scale(a, coef_a)
    if coef_b is not None:
        b = scale(b, coef_b)
    flown_a, flown_b = a, b
    for t in times:
        flown_a, flown_b = propagate(flown_a, t, c), propagate(flown_b, t, c)
    assert _bits(inner_product(flown_a, flown_b)) == _bits(inner_product(a, b))


# coefficients with zero and signed-zero parts among the drawn ones
scalings = st.one_of(
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    st.builds(complex, st.sampled_from([0.0, -0.0, 0.5, -2.0]), st.sampled_from([0.0, -0.0, 3.0])),
)


@settings(max_examples=300)
@given(gaussians(), gaussians(), scalings, flights)
def test_scaling_after_flight_equals_scaling_before(a, b, k, flight):
    # Equal by value: k * (1+0j) may turn the sign of a zero part of k.
    c, times = flight
    flown_a, flown_b = a, b
    for t in times:
        flown_a, flown_b = propagate(flown_a, t, c), propagate(flown_b, t, c)
    assert inner_product(scale(flown_a, k), flown_b) == inner_product(scale(a, k), b)
    assert norm2(scale(flown_a, k)) == norm2(scale(a, k))


grids = st.builds(
    SpatialGrid,
    x_min=st.floats(-1e3, 1e3),
    dx=st.floats(1e-3, 1e2),
    n=st.one_of(st.integers(2, 4096), st.sampled_from([2, 3, 4, 5, 4095, 4096])),
)
shifts = st.one_of(
    st.sampled_from([0.0, -0.0, TINY, -TINY, 1e-320, 1e15]),
    st.floats(-1e15, 1e15),
)


@settings(max_examples=300)
@given(grids, shifts)
def test_half_spectrum_phases_equal_the_direct_exponential(grid, shift):
    direct = np.exp(-1j * wavenumbers(grid) * shift)
    assert _phases(grid, shift).tobytes() == direct.tobytes()


@settings(max_examples=300)
@given(
    grids.filter(lambda grid: grid.n <= 1024),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0),
    st.sampled_from(["drawn", "at the mass", "above the mass"]),
    st.floats(1e-12, 1.0 - 1e-12),
)
@example(SpatialGrid(x_min=0.0, dx=1.0, n=3), 4, 1.0, "above the mass", 0.5)  # mass 1 - ulp
@example(SpatialGrid(x_min=0.0, dx=1.0, n=8), 0, 0.5, "at the mass", 0.5)  # mass 0.78
def test_fits_after_sums_the_suffix_of_the_sample_power(grid, seed, cut_at, tol_kind, tol):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    p = GridPacket(grid, amps / np.sqrt(np.sum(np.abs(amps) ** 2) * grid.dx))
    # cut_at 0 puts the cut on the window edge (t = 0), 1 on the first sample
    c, t = 1.0, cut_at * grid.n * grid.dx
    start = np.searchsorted(positions(grid), grid.x_end - c * t, "left")
    mass = np.sum(np.abs(p.amplitudes[start:]) ** 2) * grid.dx
    # below 1 - ulp, so that the tolerance just above the mass is still < 1
    if tol_kind != "drawn" and 0.0 < mass < np.nextafter(1.0, 0.0):
        tol = mass if tol_kind == "at the mass" else np.nextafter(mass, 1.0)
    assert fits_after(p, t, c, tol) == (mass < tol)
