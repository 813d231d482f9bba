"""Cached grid flight equals the uncached transform, bit for bit.

``propagate`` reuses a packet's cached spectrum and the phase factors of the
most recent (grid, c*t).  The reference below transforms afresh on every
call, with the wavenumbers written out.  The comparison is on the raw bits,
not a tolerance, because the 17-digit CSV would show any last-bit drift.
Arms, grids and times are visited in interleaved order, on two grids that
share each c*t, so a phase memo that returned a stale entry would fail.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import random_close_pair, random_splitter
from platesim import (
    SpatialGrid,
    normalize,
    overlap_at_time,
    propagate,
    sample,
    split,
)

# Equal n, different spacing: the same c*t needs different phases on each.
GRIDS = (
    SpatialGrid(x_min=-40.0, dx=1.0 / 16.0, n=4096),
    SpatialGrid(x_min=-48.0, dx=1.0 / 12.0, n=4096),
)


def _flown(p, t: float, c: float) -> np.ndarray:
    k = 2.0 * np.pi * np.fft.fftfreq(p.grid.n, d=p.grid.dx)
    return np.fft.ifft(np.fft.fft(p.amplitudes) * np.exp(-1j * k * (c * t)))


def _overlap(sa, sb, t: float, c: float) -> complex:
    dx = sa.arm1.grid.dx
    d1 = complex(np.vdot(_flown(sa.arm1, t, c), _flown(sb.arm1, t, c)) * dx)
    d2 = complex(np.vdot(_flown(sa.arm2, t, c), _flown(sb.arm2, t, c)) * dx)
    return d1 + d2


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("seed", range(20))
def test_cached_flight_equals_uncached_transform(seed):
    rng = np.random.default_rng(3000 + seed)
    alpha, beta = random_close_pair(rng)
    bs = random_splitter(rng)
    c = rng.uniform(0.2, 5.0)
    drawn = rng.uniform(0.0, 100.0 / c, size=4).tolist()
    # A repeat, then 0.0 and -0.0, which share a memo key, out of time order.
    times = [drawn[0], 0.0, -0.0, *drawn[1:], drawn[0], 0.0]
    states = [
        (split(normalize(sample(alpha, g)), bs), split(normalize(sample(beta, g)), bs))
        for g in GRIDS
    ]

    for t in times:
        for sa, sb in states:
            assert overlap_at_time(sa, sb, t, c) == _overlap(sa, sb, t, c), (t, sa.arm1.grid)
        for sa, sb in reversed(states):
            for arm in (sb.arm2, sa.arm1, sb.arm1, sa.arm2):
                got = propagate(arm, t, c).amplitudes
                assert np.array_equal(_bits(got), _bits(_flown(arm, t, c))), (t, arm.grid)
