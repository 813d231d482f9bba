"""Sampled wave packets: the grid representation, the one module that needs numpy.

Grid packets hold complex samples (units length^-1/2) on a uniform grid;
inner products are the Riemann sum sum(conj(a) * b) * dx, spectrally
accurate for packets that vanish at the window edges.  Free flight
multiplies each Fourier mode by a unit-modulus phase, so it is unitary to
machine precision.  A grid's positions and wavenumbers, a packet's
spectrum and the phases of the most recent (grid, c*t) are cached, which
is safe because their owners are frozen and the arrays read-only.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import Union

import numpy as np

from .packets import DEFAULT_WRAP_TOL, DegeneratePacketError, GaussianPacket
from .packets import IncompatibleGridsError, ScaledGaussian, WraparoundError, _Record

__all__ = [
    "GridPacket", "SpatialGrid", "fits_after", "gaussian_amplitude",
    "negative_wavenumber_fraction", "normalize", "sample", "spectral_centroid",
]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class SpatialGrid(_Record):
    """Uniform 1D grid: ``n`` samples at x_min, x_min + dx, ..."""

    def __init__(self, x_min: float, dx: float, n: int) -> None:
        if dx <= 0:
            raise ValueError("grid spacing dx must be positive")
        if n < 2:
            raise ValueError("grid needs at least 2 samples")
        self.__dict__.update(x_min=x_min, dx=dx, n=n)

    @property
    def x_end(self) -> float:
        """Periodic wrap point, one spacing past the last sample."""
        return self.x_min + self.n * self.dx

    def positions(self) -> np.ndarray:
        """Sample positions, ascending (read-only)."""
        return self._positions

    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers in FFT ordering (read-only)."""
        return self._wavenumbers

    @cached_property
    def _positions(self) -> np.ndarray:
        return _read_only(self.x_min + self.dx * np.arange(self.n))

    @cached_property
    def _wavenumbers(self) -> np.ndarray:
        return _read_only(2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx))


class GridPacket(_Record):
    """Complex amplitudes on a :class:`SpatialGrid`; the methods are the
    grid cases of ``packets.norm2``, ``scale``, ``inner_product`` and ``propagate``.
    Two grid packets are equal only if they are the same object."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, grid: SpatialGrid, amplitudes: np.ndarray) -> None:
        amps = np.array(amplitudes, dtype=complex)
        if amps.shape != (grid.n,):
            raise ValueError(f"expected {grid.n} amplitudes, got shape {amps.shape}")
        self.__dict__.update(grid=grid, amplitudes=_read_only(amps))

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Forward FFT of the amplitudes (read-only)."""
        return _read_only(np.fft.fft(self.amplitudes))

    def norm2(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.grid.dx)

    def scaled(self, coef: complex) -> GridPacket:
        return GridPacket(self.grid, coef * self.amplitudes)

    def inner(self, other: GridPacket) -> complex:
        if self.grid != other.grid:
            raise IncompatibleGridsError("incompatible grids")
        return complex(np.vdot(self.amplitudes, other.amplitudes) * self.grid.dx)

    def flown(self, t: float, c: float) -> GridPacket:
        if not fits_after(self, t, c, DEFAULT_WRAP_TOL):
            raise WraparoundError(
                f"wraparound: translation by {c * t:g} pushes the packet past the window edge"
            )
        return GridPacket(self.grid, np.fft.ifft(self.spectrum * _phases(self.grid, c * t)))


def gaussian_amplitude(g: Union[GaussianPacket, ScaledGaussian], x) -> np.ndarray:
    """Pointwise amplitude of a (scaled) Gaussian packet."""
    if isinstance(g, ScaledGaussian):
        return g.coef * gaussian_amplitude(g.base, x)
    x = np.asarray(x, dtype=float)
    envelope = (np.pi * g.sigma**2) ** -0.25 * np.exp(
        -((x - g.x0) ** 2) / (2.0 * g.sigma**2)
    )
    return envelope * np.exp(1j * (g.k0 * (x - g.x0) + g.phase))


def sample(g: Union[GaussianPacket, ScaledGaussian], grid: SpatialGrid) -> GridPacket:
    """Sample a (scaled) Gaussian onto a grid."""
    return GridPacket(grid, gaussian_amplitude(g, grid.positions()))


def normalize(p: GridPacket) -> GridPacket:
    """Rescale a grid packet to unit norm."""
    n = math.sqrt(p.norm2())
    if n == 0.0 or not math.isfinite(n):
        raise DegeneratePacketError("degenerate packet")
    return GridPacket(p.grid, p.amplitudes / n)


def fits_after(p: GridPacket, t: float, c: float, tail_tol: float) -> bool:
    """True if the mass within c*t of the window's right edge is below tail_tol.

    That is exactly the mass a translation by c*t would wrap around.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ValueError("tail_tol must lie in (0, 1)")
    cut = p.grid.x_end - c * t
    # positions ascend, so the samples at or past the cut are a suffix
    start = np.searchsorted(p.grid.positions(), cut, "left")
    mass = float(np.sum(np.abs(p.amplitudes[start:]) ** 2) * p.grid.dx)
    return mass < tail_tol


@lru_cache(maxsize=1)
def _phases(grid: SpatialGrid, shift: float) -> np.ndarray:
    """exp(-i k shift) per mode; the arms flown to one time share it.

    Shifts of 0.0 and -0.0 share a key; both give exactly 1 + 0j.
    """
    return _read_only(np.exp(-1j * grid.wavenumbers() * shift))


def _spectral_power(p: GridPacket) -> np.ndarray:
    power = np.abs(p.spectrum) ** 2
    if power.sum() == 0.0:
        raise DegeneratePacketError("degenerate packet")
    return power


def spectral_centroid(p: GridPacket) -> float:
    """Mean angular wavenumber of the packet's power spectrum (its carrier)."""
    power = _spectral_power(p)
    return float((p.grid.wavenumbers() * power).sum() / power.sum())


def negative_wavenumber_fraction(p: GridPacket) -> float:
    """Spectral weight at k < 0; negligible for a right-moving packet."""
    power = _spectral_power(p)
    return float(power[p.grid.wavenumbers() < 0.0].sum() / power.sum())
