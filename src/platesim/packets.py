"""Wave packets on a 1D beam axis: the Gaussian representation, overlaps, free flight.

Conventions used throughout:

* A Gaussian packet with center ``x0``, width ``sigma``, carrier wavenumber
  ``k0`` and global phase ``phase`` has amplitude

      psi(x) = (pi sigma^2)^(-1/4) exp(-(x - x0)^2 / (2 sigma^2))
               * exp(i k0 (x - x0) + i phase)

  so <psi|psi> = 1 exactly.  The carrier is anchored at the center, which
  makes translation act on ``x0`` alone.  With this width convention two
  equal-width packets a distance d apart overlap with magnitude
  exp(-d^2 / (4 sigma^2)).

* Propagation is dispersionless at speed c: a rigid translation by c*t.

Packets are treated as one-directional (spectral weight at k > 0 only);
``k0 * sigma >= 4`` keeps the negative-k tail of a Gaussian below ~1e-8.

Packets, like the package's other value types, are frozen records: classes
on the private base ``_Record``, which needs no ``dataclasses`` import.

This module needs only the standard library.  Grid packets live in
:mod:`platesim.sampled` (numpy); the functions here hand them to their
methods.
"""

from __future__ import annotations

import cmath
import math
import sys
from operator import attrgetter
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    from .sampled import GridPacket

__all__ = [
    "DEFAULT_WRAP_TOL", "DegeneratePacketError", "GaussianPacket", "IncompatibleGridsError",
    "Packet", "ScaledGaussian", "WraparoundError", "inner_product", "norm2", "propagate",
    "scale",
]

# mass allowed to spill past the window edge before propagate refuses
DEFAULT_WRAP_TOL = 1e-9


class DegeneratePacketError(ValueError):
    """Zero-norm packet where a finite norm is required."""


class IncompatibleGridsError(ValueError):
    """Two grid packets that do not live on the same grid."""


class WraparoundError(ValueError):
    """Translation would push probability mass past the window edge."""


class _Record:
    """Frozen value record whose fields are the parameters of its ``__init__``.

    A subclass's ``__init__`` validates its arguments and stores each field
    under its parameter name with ``self.__dict__.update``, past the
    refusing ``__setattr__``.  Records of one class compare and hash by
    their field values and print as ``Name(field=value, ...)``.
    """

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        # Fields and class in one C call: a tuple even for one field.
        cls._key = staticmethod(attrgetter(*cls._fields, "__class__"))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class GaussianPacket(_Record):
    """Analytically normalized Gaussian packet (see module docstring)."""

    def __init__(self, x0: float, sigma: float, k0: float, phase: float = 0.0) -> None:
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        # The closed forms divide by sigma^2.  `*` gives 0 or inf where
        # `**` would raise OverflowError, which is not a ValueError.
        if not 0.0 < sigma * sigma < math.inf:
            raise ValueError("sigma * sigma must be a positive finite number")
        if k0 <= 0:
            raise ValueError("k0 must be positive (right-moving packet)")
        if k0 * sigma < 4.0:
            raise ValueError(
                "k0 * sigma must be >= 4 so the negative-wavenumber tail is negligible"
            )
        self.__dict__.update(x0=x0, sigma=sigma, k0=k0, phase=phase)


class ScaledGaussian(_Record):
    """A Gaussian packet times a complex coefficient; norm^2 = |coef|^2."""

    def __init__(self, coef: complex, base: GaussianPacket) -> None:
        self.__dict__.update(coef=coef, base=base)


Packet = Union["GridPacket", GaussianPacket, ScaledGaussian]


def _grid_packet(p: object) -> GridPacket:
    """p itself if it is a grid packet, else TypeError.

    Grid packets exist only once ``sampled`` is imported; this never imports it.
    """
    sampled = sys.modules.get(f"{__package__}.sampled")
    if sampled is None or not isinstance(p, sampled.GridPacket):
        raise TypeError(f"not a packet: {type(p).__name__}")
    return p


def norm2(p: Packet) -> float:
    """Squared norm <p|p>."""
    if isinstance(p, GaussianPacket):
        return 1.0
    if isinstance(p, ScaledGaussian):
        return abs(p.coef) ** 2
    return _grid_packet(p).norm2()


def scale(p: Packet, coef: complex) -> Packet:
    """Multiply a packet by a complex coefficient."""
    if isinstance(p, GaussianPacket):
        return ScaledGaussian(complex(coef), p)
    if isinstance(p, ScaledGaussian):
        return ScaledGaussian(complex(coef) * p.coef, p.base)
    return _grid_packet(p).scaled(coef)


def _gaussian_overlap(a: GaussianPacket, b: GaussianPacket) -> complex:
    # Standard Gaussian integral, evaluated in the frame centered between
    # the packets: only the separation d enters, so a common translation
    # leaves the value bit-identical (the carriers are center-anchored).
    d = b.x0 - a.x0
    A = 1.0 / (2.0 * a.sigma**2)
    B = 1.0 / (2.0 * b.sigma**2)
    p = A + B
    if p == 0.0:  # both 2 sigma^2 overflow; the closed form has no value
        return complex(math.nan, math.nan)
    q = (B - A) * d + 1j * (b.k0 - a.k0)
    c0 = (
        -p * d * d / 4.0
        - 0.5j * (a.k0 + b.k0) * d
        + 1j * (b.phase - a.phase)
    )
    pref = (
        (math.pi * a.sigma**2) ** -0.25
        * (math.pi * b.sigma**2) ** -0.25
        * math.sqrt(math.pi / p)
    )
    try:
        return pref * cmath.exp(q * q / (4.0 * p) + c0)
    except (OverflowError, ValueError):
        # An exponent too large or not finite: no value, like an overflow.
        return complex(math.nan, math.nan)


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
    ga = _as_gaussian(a)
    gb = _as_gaussian(b)
    if ga is None and gb is None:
        return _grid_packet(a).inner(_grid_packet(b))
    if ga is None or gb is None:
        _grid_packet(a if ga is None else b)
        raise TypeError("cannot mix grid and analytic packets in an inner product")
    (ca, base_a), (cb, base_b) = ga, gb
    return ca.conjugate() * cb * _gaussian_overlap(base_a, base_b)


def propagate(p: Packet, t: float, c: float = 1.0) -> Packet:
    """Free flight for a time t: rigid translation by c*t.

    Grid packets are translated spectrally (each mode k multiplied by
    exp(-i k c t)), exact for band-limited samples.  Raises
    :class:`WraparoundError` if the shifted packet would cross the window
    edge, i.e. if more than DEFAULT_WRAP_TOL of its mass sits within c*t of it.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if c <= 0:
        raise ValueError("c must be positive")
    if isinstance(p, GaussianPacket):
        return GaussianPacket(p.x0 + c * t, p.sigma, p.k0, p.phase)
    if isinstance(p, ScaledGaussian):
        return ScaledGaussian(p.coef, propagate(p.base, t, c))
    return _grid_packet(p).flown(t, c)
