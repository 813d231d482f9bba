"""Wave packets on a 1D beam axis: representations, overlaps, free flight.

Conventions used throughout:

* A Gaussian packet with center ``x0``, width ``sigma``, carrier wavenumber
  ``k0`` and global phase ``phase`` has amplitude

      psi(x) = (pi sigma^2)^(-1/4) exp(-(x - x0)^2 / (2 sigma^2))
               * exp(i k0 (x - x0) + i phase)

  so <psi|psi> = 1 exactly.  The carrier is anchored at the center, which
  makes translation act on ``x0`` alone.  With this width convention two
  equal-width packets a distance d apart overlap with magnitude
  exp(-d^2 / (4 sigma^2)).

* Grid packets hold complex samples (units length^-1/2) on a uniform grid;
  inner products are the Riemann sum sum(conj(a) * b) * dx, spectrally
  accurate for packets that vanish at the window edges.

* Propagation is dispersionless at speed c: a rigid translation by c*t,
  applied to grids as a Fourier phase shift.  Every mode picks up a unit
  modulus factor, so propagation is unitary to machine precision.

Packets are treated as one-directional (spectral weight at k > 0 only);
``k0 * sigma >= 4`` keeps the negative-k tail of a Gaussian below ~1e-8.

What does not depend on the flight time is computed once and cached: a
grid's positions and wavenumbers, a grid packet's spectrum, and the phase
factors of the most recent (grid, c*t).  The cache is safe because its
owners are frozen, their arrays are read-only, and equal grids have equal
wavenumbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Union

import numpy as np

__all__ = [
    "DEFAULT_WRAP_TOL",
    "DegeneratePacketError",
    "GaussianPacket",
    "GridPacket",
    "IncompatibleGridsError",
    "Packet",
    "ScaledGaussian",
    "SpatialGrid",
    "WraparoundError",
    "fits_after",
    "gaussian_amplitude",
    "inner_product",
    "negative_wavenumber_fraction",
    "norm2",
    "normalize",
    "propagate",
    "sample",
    "scale",
    "spectral_centroid",
]

# mass allowed to spill past the window edge before propagate refuses
DEFAULT_WRAP_TOL = 1e-9


class DegeneratePacketError(ValueError):
    """Zero-norm packet where a finite norm is required."""


class IncompatibleGridsError(ValueError):
    """Two grid packets that do not live on the same grid."""


class WraparoundError(ValueError):
    """Translation would push probability mass past the window edge."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform 1D grid: ``n`` samples at x_min, x_min + dx, ..."""

    x_min: float
    dx: float
    n: int

    def __post_init__(self) -> None:
        if self.dx <= 0:
            raise ValueError("grid spacing dx must be positive")
        if self.n < 2:
            raise ValueError("grid needs at least 2 samples")

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


@dataclass(frozen=True, eq=False)
class GridPacket:
    """Complex amplitudes sampled on a :class:`SpatialGrid`."""

    grid: SpatialGrid
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (self.grid.n,):
            raise ValueError(
                f"expected {self.grid.n} amplitudes, got shape {amps.shape}"
            )
        object.__setattr__(self, "amplitudes", _read_only(amps))

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Forward FFT of the amplitudes (read-only)."""
        return _read_only(np.fft.fft(self.amplitudes))


@dataclass(frozen=True)
class GaussianPacket:
    """Analytically normalized Gaussian packet (see module docstring)."""

    x0: float
    sigma: float
    k0: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        # The closed forms divide by sigma^2.  `*` gives 0 or inf where
        # `**` would raise OverflowError, which is not a ValueError.
        if not 0.0 < self.sigma * self.sigma < math.inf:
            raise ValueError("sigma * sigma must be a positive finite number")
        if self.k0 <= 0:
            raise ValueError("k0 must be positive (right-moving packet)")
        if self.k0 * self.sigma < 4.0:
            raise ValueError(
                "k0 * sigma must be >= 4 so the negative-wavenumber tail is negligible"
            )


@dataclass(frozen=True)
class ScaledGaussian:
    """A Gaussian packet times a complex coefficient; norm^2 = |coef|^2."""

    coef: complex
    base: GaussianPacket


Packet = Union[GridPacket, GaussianPacket, ScaledGaussian]


def _not_a_packet(p: object) -> TypeError:
    return TypeError(f"not a packet: {type(p).__name__}")


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


def norm2(p: Packet) -> float:
    """Squared norm <p|p>."""
    if isinstance(p, GridPacket):
        return float(np.sum(np.abs(p.amplitudes) ** 2) * p.grid.dx)
    if isinstance(p, GaussianPacket):
        return 1.0
    if isinstance(p, ScaledGaussian):
        return abs(p.coef) ** 2
    raise _not_a_packet(p)


def normalize(p: GridPacket) -> GridPacket:
    """Rescale a grid packet to unit norm."""
    n = math.sqrt(norm2(p))
    if n == 0.0 or not math.isfinite(n):
        raise DegeneratePacketError("degenerate packet")
    return GridPacket(p.grid, p.amplitudes / n)


def scale(p: Packet, coef: complex) -> Packet:
    """Multiply a packet by a complex coefficient."""
    if isinstance(p, GridPacket):
        return GridPacket(p.grid, coef * p.amplitudes)
    if isinstance(p, GaussianPacket):
        return ScaledGaussian(complex(coef), p)
    if isinstance(p, ScaledGaussian):
        return ScaledGaussian(complex(coef) * p.coef, p.base)
    raise _not_a_packet(p)


def _gaussian_overlap(a: GaussianPacket, b: GaussianPacket) -> complex:
    # Standard Gaussian integral, evaluated in the frame centered between
    # the packets: only the separation d enters, so a common translation
    # leaves the value bit-identical (the carriers are center-anchored).
    d = b.x0 - a.x0
    A = 1.0 / (2.0 * a.sigma**2)
    B = 1.0 / (2.0 * b.sigma**2)
    p = A + B
    q = (B - A) * d + 1j * (b.k0 - a.k0)
    c0 = (
        -p * d * d / 4.0
        - 0.5j * (a.k0 + b.k0) * d
        + 1j * (b.phase - a.phase)
    )
    pref = (
        (np.pi * a.sigma**2) ** -0.25
        * (np.pi * b.sigma**2) ** -0.25
        * math.sqrt(np.pi / p)
    )
    return complex(pref * np.exp(q * q / (4.0 * p) + c0))


def _as_gaussian(p: Packet):
    if isinstance(p, GaussianPacket):
        return 1.0 + 0.0j, p
    if isinstance(p, ScaledGaussian):
        return p.coef, p.base
    return None


def inner_product(a: Packet, b: Packet) -> complex:
    """<a|b>, conjugate-linear in the first argument.

    Grid packets must share a grid; Gaussians use the closed form.
    """
    if isinstance(a, GridPacket) and isinstance(b, GridPacket):
        if a.grid != b.grid:
            raise IncompatibleGridsError("incompatible grids")
        return complex(np.vdot(a.amplitudes, b.amplitudes) * a.grid.dx)
    ga = _as_gaussian(a)
    gb = _as_gaussian(b)
    if ga is None or gb is None:
        if ga is None and not isinstance(a, GridPacket):
            raise _not_a_packet(a)
        if gb is None and not isinstance(b, GridPacket):
            raise _not_a_packet(b)
        raise TypeError("cannot mix grid and analytic packets in an inner product")
    (ca, base_a), (cb, base_b) = ga, gb
    return complex(np.conj(ca) * cb * _gaussian_overlap(base_a, base_b))


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


def propagate(p: Packet, t: float, c: float = 1.0, wrap_tol: float = DEFAULT_WRAP_TOL) -> Packet:
    """Free flight for a time t: rigid translation by c*t.

    Grid packets are translated spectrally (each mode k multiplied by
    exp(-i k c t)), exact for band-limited samples.  Raises
    :class:`WraparoundError` if the shifted packet would cross the window
    edge, i.e. if more than ``wrap_tol`` of its mass sits within c*t of it.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if c <= 0:
        raise ValueError("c must be positive")
    if isinstance(p, GaussianPacket):
        return replace(p, x0=p.x0 + c * t)
    if isinstance(p, ScaledGaussian):
        return ScaledGaussian(p.coef, propagate(p.base, t, c))
    if isinstance(p, GridPacket):
        if not fits_after(p, t, c, wrap_tol):
            raise WraparoundError(
                f"wraparound: translation by {c * t:g} pushes the packet past the window edge"
            )
        return GridPacket(p.grid, np.fft.ifft(p.spectrum * _phases(p.grid, c * t)))
    raise _not_a_packet(p)


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
