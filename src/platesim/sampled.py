"""Sampled wave packets: the grid representation, the one module that needs numpy.

Grid packets hold complex samples (units length^-1/2) on a uniform
:class:`SpatialGrid` (from :mod:`platesim.packets`); inner products are the
Riemann sum sum(conj(a) * b) * dx, spectrally accurate for packets that
vanish at the window edges.  Free flight multiplies each Fourier mode by a
unit-modulus phase, evaluated for modes 0..n//2 and conjugated for the
rest, so it is unitary to machine precision.  A grid's :func:`positions`
and :func:`wavenumbers`, a packet's spectrum, and the phases of the most
recent (grid, c*t) are cached per grid value or frozen packet, the arrays
read-only.  A flown packet owns the buffer its inverse transform ran in.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .packets import DEFAULT_WRAP_TOL, GaussianPacket, Packet, ScaledGaussian, SpatialGrid
from .packets import WraparoundError, _Record, _require_flight

__all__ = [
    "GridPacket", "fits_after", "gaussian_amplitude", "negative_wavenumber_fraction",
    "normalize", "positions", "sample", "spectral_centroid", "wavenumbers",
]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=1)
def positions(grid: SpatialGrid) -> np.ndarray:
    """The grid's sample positions, ascending (read-only)."""
    return _read_only(grid.x_min + grid.dx * np.arange(grid.n))


@lru_cache(maxsize=1)
def wavenumbers(grid: SpatialGrid) -> np.ndarray:
    """The grid's angular wavenumbers in FFT ordering (read-only)."""
    return _read_only(2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx))


class GridPacket(_Record, Packet):
    """A :class:`~platesim.packets.Packet` of complex amplitudes on a :class:`SpatialGrid`;
    its methods are the grid cases of ``packets.norm2``, ``scale``, ``inner_product`` and
    ``propagate``.  Two grid packets are equal only if they are the same object."""

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
        return float((np.abs(self.amplitudes) ** 2).sum() * self.grid.dx)

    def scale(self, coef: complex) -> GridPacket:
        return GridPacket(self.grid, coef * self.amplitudes)

    def inner_product(self, other: GridPacket) -> complex:
        if self.grid != other.grid:
            raise ValueError("incompatible grids")
        return complex(np.vdot(self.amplitudes, other.amplitudes) * self.grid.dx)

    def propagate(self, t: float, c: float) -> GridPacket:
        if not fits_after(self, t, c, DEFAULT_WRAP_TOL):
            raise WraparoundError(
                f"t = {t:g}: wraparound: translation by {c * t:g} pushes the packet past"
                " the window edge"
            )
        buf = self.spectrum * _phases(self.grid, c * t)
        np.fft.ifft(buf, out=buf)
        flown = object.__new__(GridPacket)  # owns buf, transformed in place, so no copy
        flown.__dict__.update(grid=self.grid, amplitudes=_read_only(buf))
        return flown


def gaussian_amplitude(g: GaussianPacket | ScaledGaussian, x) -> np.ndarray:
    """Pointwise amplitude of a (scaled, flown) Gaussian packet."""
    base = g.base
    u = np.asarray(x, dtype=float) - g.x0  # from the center the base has flown to
    envelope = (np.pi * base.sigma**2) ** -0.25 * np.exp(-(u**2) / (2.0 * base.sigma**2))
    amps = envelope * np.exp(1j * (base.k0 * u + base.phase))
    return amps if g is base else g.coef * amps  # times 1+0j could flip a zero's sign


def sample(g: GaussianPacket | ScaledGaussian, grid: SpatialGrid) -> GridPacket:
    """Sample a (scaled, flown) Gaussian onto a grid."""
    return GridPacket(grid, gaussian_amplitude(g, positions(grid)))


def normalize(p: GridPacket) -> GridPacket:
    """Rescale a grid packet to unit norm."""
    n = math.sqrt(p.norm2())
    if n == 0.0 or not math.isfinite(n):
        raise ValueError("degenerate packet")
    return GridPacket(p.grid, p.amplitudes / n)


def fits_after(p: GridPacket, t: float, c: float, tail_tol: float) -> bool:
    """True if the mass within c*t of the window's right edge is below tail_tol.

    That is exactly the mass a translation by c*t would wrap around.
    """
    _require_flight(t, c)
    if not 0.0 < tail_tol < 1.0:
        raise ValueError("tail_tol must lie in (0, 1)")
    cut = p.grid.x_end - c * t
    # positions ascend, so the samples at or past the cut are a suffix
    start = positions(p.grid).searchsorted(cut, "left")
    mass = float((np.abs(p.amplitudes[start:]) ** 2).sum() * p.grid.dx)
    return mass < tail_tol


@lru_cache(maxsize=1)
def _phases(grid: SpatialGrid, shift: float) -> np.ndarray:
    """exp(-i k shift) per mode, bit for bit; the arms flown to one time share it.

    Modes 0..n//2 are evaluated.  Mode -m has k[-m] == -k[m], so its phase
    is the conjugate of mode m's, unless k * shift is 0 (for shifts 0.0,
    -0.0 or small enough to underflow), where both are 1 + 0j.
    """
    k = wavenumbers(grid)
    if k[1] * shift == 0.0:  # k[1] has the smallest nonzero |k|
        return _read_only(np.exp(-1j * k * shift))
    n, half = grid.n, grid.n // 2 + 1
    phases = np.empty(n, dtype=complex)
    np.exp(-1j * k[:half] * shift, out=phases[:half])
    np.conjugate(phases[n - half : 0 : -1], out=phases[half:])
    return _read_only(phases)


def _spectral_power(p: GridPacket) -> np.ndarray:
    power = np.abs(p.spectrum) ** 2
    if power.sum() == 0.0:
        raise ValueError("degenerate packet")
    return power


def spectral_centroid(p: GridPacket) -> float:
    """Mean angular wavenumber of the packet's power spectrum (its carrier)."""
    power = _spectral_power(p)
    return float((wavenumbers(p.grid) * power).sum() / power.sum())


def negative_wavenumber_fraction(p: GridPacket) -> float:
    """Spectral weight at k < 0; negligible for a right-moving packet."""
    power = _spectral_power(p)
    return float(power[wavenumbers(p.grid) < 0.0].sum() / power.sum())
