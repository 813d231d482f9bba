"""Shared randomized factories for the test suite.

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


@pytest.fixture
def wide_grid() -> SpatialGrid:
    """Room for packets centered in [-5, 5] to fly to c*t = 120.

    Nyquist wavenumber pi/dx = 50.27 comfortably clears the largest
    carrier the factories produce (k0 + 4/sigma <= 40).
    """
    return SpatialGrid(x_min=-40.0, dx=1.0 / 16.0, n=4096)
