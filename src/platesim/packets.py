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

Every packet inherits :class:`Packet`.  The two Gaussian kinds read alike as
``(coef, base, offset)``: a :class:`ScaledGaussian` is its ``base`` times a
coefficient, flown ``offset``, and a bare :class:`GaussianPacket` is
coefficient 1, base itself, offset 0.  They take the closed forms here; any
other packet, such as a grid packet of :mod:`platesim.sampled` (numpy), is
handed to its own methods.  Nothing here imports ``sampled`` or numpy, so a
grid scenario, whose :class:`SpatialGrid` record lives here, loads without it.
"""

from __future__ import annotations

import cmath
import math
from operator import attrgetter, index

__all__ = [
    "DEFAULT_WRAP_TOL", "GaussianPacket", "Packet", "ScaledGaussian", "SpatialGrid",
    "WraparoundError", "inner_product", "norm2", "propagate", "scale",
]

# mass allowed to spill past the window edge before propagate refuses
DEFAULT_WRAP_TOL = 1e-9


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


def _require_finite(**values: complex) -> None:
    """Refuse the first value that is not finite, NaN included: ``NAME must be finite``."""
    for name, value in values.items():
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite")


def _require_positive(**values: float) -> None:
    """Refuse the first value that is not in (0, inf): ``NAME must be positive and finite``."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:  # NaN fails too
            raise ValueError(f"{name} must be positive and finite")


class Packet:
    """Base of every packet record: the Gaussian kinds here, ``sampled.GridPacket``."""


class GaussianPacket(_Record, Packet):
    """Analytically normalized Gaussian packet (see module docstring)."""

    # The arm reading; class attributes, so equality, hashing and repr ignore them.
    coef = 1.0 + 0.0j
    offset = 0.0

    @property
    def base(self) -> GaussianPacket:
        return self

    def __init__(self, x0: float, sigma: float, k0: float, phase: float = 0.0) -> None:
        # The closed forms divide by sigma^2.  `*` gives 0 or inf where
        # `**` would raise OverflowError, which is not a ValueError.
        _require_positive(sigma=sigma, **{"sigma * sigma": sigma * sigma}, k0=k0)
        if k0 * sigma < 4.0:
            raise ValueError(
                "k0 * sigma must be >= 4 so the negative-wavenumber tail is negligible"
            )
        _require_finite(x0=x0, phase=phase)
        self.__dict__.update(x0=x0, sigma=sigma, k0=k0, phase=phase)


class ScaledGaussian(_Record, Packet):
    """A Gaussian packet times a complex coefficient, flown ``offset``; norm^2 = |coef|^2.

    ``offset`` is not checked: a flight that overflows makes it ``inf``."""

    def __init__(self, coef: complex, base: GaussianPacket, offset: float = 0.0) -> None:
        _require_finite(coef=coef)
        if not isinstance(base, GaussianPacket):
            raise TypeError(f"base must be a GaussianPacket, not {type(base).__name__}")
        self.__dict__.update(coef=coef, base=base, offset=offset)

    @property
    def x0(self) -> float:
        """Center after the flight."""
        return self.base.x0 + self.offset


class SpatialGrid(_Record):
    """Uniform 1D grid: ``n`` samples at x_min, x_min + dx, ...; ``sampled`` builds its arrays."""

    def __init__(self, x_min: float, dx: float, n: int) -> None:
        _require_finite(**{"grid origin x_min": x_min})
        _require_positive(**{"grid spacing dx": dx})
        try:
            index(n)
        except TypeError:
            raise TypeError(f"grid size n must be an integer, not {type(n).__name__}") from None
        if n < 2:
            raise ValueError("grid needs at least 2 samples")
        _require_finite(**{"grid window end x_min + n * dx": x_min + n * dx})
        self.__dict__.update(x_min=x_min, dx=dx, n=n)

    @property
    def x_end(self) -> float:
        """Periodic wrap point, one spacing past the last sample."""
        return self.x_min + self.n * self.dx


def _packet(p: object) -> Packet:
    """p itself if it is a packet, else TypeError."""
    if not isinstance(p, Packet):
        raise TypeError(f"not a packet: {type(p).__name__}")
    return p


def norm2(p: Packet) -> float:
    """Squared norm <p|p>; inf where it overflows."""
    if isinstance(p, (GaussianPacket, ScaledGaussian)):
        try:
            return abs(p.coef) ** 2
        except OverflowError:
            return math.inf
    return _packet(p).norm2()


def scale(p: Packet, coef: complex) -> Packet:
    """Multiply a packet by a complex coefficient."""
    _require_finite(coef=coef)
    if isinstance(p, GaussianPacket):
        return ScaledGaussian(complex(coef), p)  # not coef * (1+0j): a zero part keeps its sign
    if isinstance(p, ScaledGaussian):
        return ScaledGaussian(complex(coef) * p.coef, p.base, p.offset)
    return _packet(p).scale(coef)


def _gaussian_overlap(a: GaussianPacket, b: GaussianPacket, flight: float) -> complex:
    # Standard Gaussian integral, evaluated in the frame centered between
    # the packets: only the separation d enters (the carriers are
    # center-anchored).  b has flown ``flight`` farther than a; equal
    # flights, even infinite ones, pass 0.0, which leaves d bit-identical.
    d = b.x0 - a.x0 + flight if flight else b.x0 - a.x0
    A = 1.0 / (2.0 * a.sigma**2)
    B = 1.0 / (2.0 * b.sigma**2)
    p = A + B
    if p == 0.0 or not math.isfinite(d):  # both 2 sigma^2 overflow, or d: no value
        return complex(math.nan, math.nan)
    # The exponent without cancellation: its real part -d^2 A B / p - dk^2 / (4p)
    # is at most 0, its imaginary part -d (k_a B + k_b A) / p weighs each carrier
    # by a share in [0, 1], and 2A/p is exactly 1 for equal widths.
    dk = b.k0 - a.k0
    re = (-p * d * d / 4.0) * ((2.0 * A / p) * (2.0 * B / p)) - dk * dk / (4.0 * p)
    im = -d * (a.k0 * (B / p) + b.k0 * (A / p))
    pref = (
        (math.pi * a.sigma**2) ** -0.25
        * (math.pi * b.sigma**2) ** -0.25
        * math.sqrt(math.pi / p)
    )
    if not math.isfinite(re):
        # A packet so narrow that A, 4p, p d^2 or dk^2 overflows.  The same
        # three parts over h = hypot(sigma_a, sigma_b), where u^2 = B/p and
        # v^2 = A/p, overflow only where the result itself does.
        h = math.hypot(a.sigma, b.sigma)
        u, v = a.sigma / h, b.sigma / h
        t = dk * u * b.sigma  # dk sigma_a sigma_b / h
        re = -0.5 * ((d / h) * (d / h) + t * t)
        im = -d * (a.k0 * u * u + b.k0 * v * v)
        pref = math.sqrt(2.0 * u * v)
    try:
        return pref * cmath.exp(complex(re, im + (b.phase - a.phase)))
    except ValueError:  # an infinite phase, where d k overflows
        return complex(math.nan, math.nan)


def inner_product(a: Packet, b: Packet) -> complex:
    """<a|b>, conjugate-linear in the first argument.

    Grid packets must share a grid; Gaussians use the closed form.
    """
    ga = isinstance(a, (GaussianPacket, ScaledGaussian))
    gb = isinstance(b, (GaussianPacket, ScaledGaussian))
    if not ga and not gb:
        return _packet(a).inner_product(_packet(b))
    if not ga or not gb:
        _packet(b if ga else a)
        raise TypeError("cannot mix grid and analytic packets in an inner product")
    flight = 0.0 if b.offset == a.offset else b.offset - a.offset
    return a.coef.conjugate() * b.coef * _gaussian_overlap(a.base, b.base, flight)


def _require_flight(t: float, c: float) -> None:
    """Refuse a negative flight time t or a speed c that is not positive and finite."""
    if not t >= 0:  # NaN fails too
        raise ValueError("t must be nonnegative")
    _require_positive(c=c)


def propagate(p: Packet, t: float, c: float = 1.0) -> Packet:
    """Free flight for a time t: rigid translation by c*t.

    A Gaussian becomes a :class:`ScaledGaussian` whose offset grows by c*t.
    Grid packets are translated spectrally (each mode k multiplied by
    exp(-i k c t)), exact for band-limited samples.  Raises
    :class:`WraparoundError` if the shifted packet would cross the window
    edge, i.e. if more than DEFAULT_WRAP_TOL of its mass sits within c*t of it.
    """
    _require_flight(t, c)
    if isinstance(p, (GaussianPacket, ScaledGaussian)):
        return ScaledGaussian(p.coef, p.base, p.offset + c * t)
    return _packet(p).propagate(t, c)
