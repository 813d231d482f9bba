"""Shared randomized factories for the test suite, the pairwise swing of
a complex sweep column, and the closed-form overlap in exact rationals.

All factories draw from a caller-supplied Generator so each test pins its
own seed; parameter ranges keep packets well clear of the validation
limits (k0 * sigma >= 4) and, for the "close" pairs, keep overlaps large
enough that relative comparisons stay meaningful.

The suite's Hypothesis policy is set here, once: no deadline, since a
call's time depends on the host, and no example database, so a run
neither replays nor writes ``.hypothesis/``.  Each ``@settings`` names
only its example count and health-check suppressions.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from platesim.optics import BeamSplitter
from platesim.packets import GaussianPacket, SpatialGrid

try:
    from hypothesis import settings
except ImportError:  # the property modules skip themselves
    pass
else:
    settings.register_profile("platesim", deadline=None, database=None)
    settings.load_profile("platesim")

EPS = sys.float_info.epsilon


def random_gaussian(rng, centers=(-5.0, 5.0)) -> GaussianPacket:
    sigma = rng.uniform(0.5, 2.0)
    return GaussianPacket(
        x0=rng.uniform(*centers),
        sigma=sigma,
        k0=rng.uniform(8.0, 16.0) / sigma,
        phase=rng.uniform(0.0, 2.0 * np.pi),
    )


def random_close_pair(rng) -> tuple[GaussianPacket, GaussianPacket]:
    """Two packets with bounded separation and detuning (overlap >~ 0.05)."""
    sigma_a = rng.uniform(0.5, 2.0)
    sigma_b = rng.uniform(0.5, 2.0)
    s_min = min(sigma_a, sigma_b)
    s_max = max(sigma_a, sigma_b)
    x0a = rng.uniform(-2.0, 2.0)
    k_base = rng.uniform(8.0, 16.0) / s_min
    return (
        GaussianPacket(
            x0=x0a, sigma=sigma_a, k0=k_base, phase=rng.uniform(0.0, 2.0 * np.pi)
        ),
        GaussianPacket(
            x0=x0a + rng.uniform(-1.5, 1.5) * s_min,
            sigma=sigma_b,
            k0=k_base + rng.uniform(-1.0, 1.0) / s_max,
            phase=rng.uniform(0.0, 2.0 * np.pi),
        ),
    )


def random_splitter(rng) -> BeamSplitter:
    theta = rng.uniform(0.0, np.pi / 2.0)
    return BeamSplitter(
        r=complex(np.cos(theta) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))),
        t=complex(np.sin(theta) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))),
    )


def pairwise_max_abs(values, rows=256) -> float:
    """max |a - b| over every pair of a column, ``rows`` rows of the
    difference matrix at a time; ``np.hypot`` of the parts is what ``abs``
    of a complex computes, so this is the pairwise loop bit for bit."""
    v = np.array(values, dtype=complex)
    best = 0.0
    for i in range(0, v.size, rows):
        d = v[i : i + rows, None] - v[None, :]
        best = max(best, float(np.hypot(d.real, d.imag).max()))
    return best


def exact_overlap(a: GaussianPacket, b: GaussianPacket):
    """``(pref, re, im, scale)`` with <a|b> = pref exp(re + i im), for two
    Gaussian packets.

    With h^2 = sigma_a^2 + sigma_b^2, pref = sqrt(2 sigma_a sigma_b / h^2),
    re = -(d^2 + dk^2 sigma_a^2 sigma_b^2) / (2 h^2) and im = -d (k_a
    sigma_a^2 + k_b sigma_b^2) / h^2 + phase_b - phase_a, each evaluated in
    exact rationals of the packets' doubles and rounded once (pref twice).
    ``scale`` is the largest magnitude among the three terms of im, the
    size its rounding scales with.
    """
    sa, sb = Fraction(a.sigma), Fraction(b.sigma)
    h2 = sa * sa + sb * sb
    d, dk = Fraction(b.x0) - Fraction(a.x0), Fraction(b.k0) - Fraction(a.k0)
    re = -(d * d + dk * dk * sa * sa * sb * sb) / (2 * h2)
    terms = (
        -d * Fraction(a.k0) * sa * sa / h2,
        -d * Fraction(b.k0) * sb * sb / h2,
        Fraction(b.phase) - Fraction(a.phase),
    )
    pref = math.sqrt(2 * sa * sb / h2)
    return pref, float(re), float(sum(terms)), float(max(map(abs, terms)))


def phase_error(eps: complex, im: float) -> float:
    """|arg eps - im|, reduced modulo 2 pi into [0, pi]."""
    return abs(math.remainder(cmath.phase(eps) - im, 2.0 * math.pi))


def assert_overlap_is_exact(eps: complex, a: GaussianPacket, b: GaussianPacket) -> None:
    """``eps`` is <a|b> in size and phase: within a few EPS of the exponent's
    real part and of the largest term of its imaginary part."""
    pref, re, im, scale = exact_overlap(a, b)
    assert abs(eps) <= 1.0 + 8.0 * EPS  # Cauchy-Schwarz, to rounding
    assert abs(math.log(abs(eps) / pref) - re) <= 16.0 * EPS * (abs(re) + 1.0)
    # a few roundings of im's largest term, then cmath.phase's of pi
    assert phase_error(eps, im) <= 8.0 * EPS * (scale + math.pi)


@pytest.fixture
def wide_grid() -> SpatialGrid:
    """Room for packets centered in [-5, 5] to fly to c*t = 120.

    Nyquist wavenumber pi/dx = 50.27 comfortably clears the largest
    carrier the factories produce (k0 + 4/sigma <= 40).
    """
    return SpatialGrid(x_min=-40.0, dx=1.0 / 16.0, n=4096)
