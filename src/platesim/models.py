"""Exact versus plane-wave predictions for the two-detector experiment.

The exact overlap is ``inner_product(alpha, beta)`` of the two candidate
packets, taken once before the plate; unitarity makes every later
evaluation agree with it.
``plane_wave_epsilon`` deliberately reproduces a tempting shortcut: replace
each localized packet by an infinite wave at its carrier frequency, which
tags the two terms of the overlap with phases exp(i*(omega_a - omega_b)*t)
and invites evaluating each term at its own detector's arrival time.  The
shortcut makes the D1 counting rate appear to depend on where D2 sits;
``sweep_d2`` tabulates both predictions against the D2 distance so the
artifact sits next to the constant exact value.

The counting rate itself is a modeling choice, not a derived formula: the
photon is prepared in the equal-weight superposition
(|alpha> + e^{i*phi} |beta>) / normalizer and the D1 rate is the squared
norm of the prepared state's D1-arm component,

    rate = (n_a1 + n_b1 + 2 Re(e^{i phi} x1)) / (2 + 2 Re(e^{i phi} eps)),

the minimal standard-quantum-mechanics functional through which eps enters
a measurable number.  In the plane-wave variant the same formula is fed
the phase-tagged cross terms instead of the true ones.

Only the standard library is used.  The scalar functions and
``sweep_d2`` share one implementation of each formula.  The sweep
computes and checks what no row changes once (the arm-1 term at t1,
e^{i phi}, the rate numerator); each row then costs one cos/sin pair,
one denominator, the degeneracy test and the clamp.  Real columns are
``array('d')``, complex ones lists of ``complex``.  The value types are
frozen records (see :mod:`platesim.packets`).
"""

from __future__ import annotations

import cmath
import math
from array import array

from .optics import BeamSplitter, ExperimentGeometry, TwoArmState, split
from .packets import Packet, _Record, inner_product, norm2

__all__ = [
    "DEGENERACY_TOL", "DegeneratePreparationError", "PlaneWaveModel", "Preparation",
    "SweepResult", "counting_rate_d1", "derive_plane_wave_model", "plane_wave_epsilon",
    "spatial_period", "sweep_d2",
]

DEGENERACY_TOL = 1e-9


class DegeneratePreparationError(ValueError):
    """The prepared superposition has (near-)zero norm."""


class PlaneWaveModel(_Record):
    """Carrier frequencies and t = 0 term amplitudes of the shortcut.

    a1 and a2 are the arm-1 and arm-2 overlap terms at the moment of the
    split; the shortcut evolves each by its own phase factor instead of
    keeping their sum fixed.
    """

    def __init__(self, omega_alpha: float, omega_beta: float, a1: complex, a2: complex) -> None:
        self.__dict__.update(omega_alpha=omega_alpha, omega_beta=omega_beta, a1=a1, a2=a2)

    @property
    def delta_omega(self) -> float:
        return self.omega_alpha - self.omega_beta


class Preparation(_Record):
    """Relative phase of the prepared superposition (|a> + e^{i phi} |b>)/N."""

    def __init__(self, phi: float = 0.0) -> None:
        self.__dict__.update(phi=phi)


def derive_plane_wave_model(
    sa: TwoArmState,
    sb: TwoArmState,
    k_alpha: float,
    k_beta: float,
    c: float = 1.0,
) -> PlaneWaveModel:
    """Read the shortcut's ingredients off two freshly split states.

    Frequencies follow the dispersionless rule omega = c * k; the term
    amplitudes are the per-arm overlaps at the split time.
    """
    return PlaneWaveModel(
        omega_alpha=c * k_alpha,
        omega_beta=c * k_beta,
        a1=inner_product(sa.arm1, sb.arm1),
        a2=inner_product(sa.arm2, sb.arm2),
    )


def _arm_term(a: complex, theta: float) -> complex:
    """One term of the shortcut's overlap, a * exp(i*theta).

    ValueError if theta is infinite.  The complex product keeps the
    operand order the golden CSVs were written with.
    """
    return a * cmath.rect(1.0, theta)


def plane_wave_epsilon(m: PlaneWaveModel, t1: float, t2: float) -> complex:
    """Overlap under the plane-wave shortcut, term-wise at (t1, t2).

    Returns a1*exp(i*d_omega*t1) + a2*exp(i*d_omega*t2).  Evaluating the
    two terms at different times is exactly the step the exact treatment
    forbids; the resulting t2 dependence is the artifact under study.
    """
    d_omega = m.delta_omega
    return _arm_term(m.a1, d_omega * t1) + _arm_term(m.a2, d_omega * t2)


def _require_finite(*values: complex) -> None:
    if not all(map(cmath.isfinite, values)):
        raise ValueError("counting rate of a non-finite input")


def _rate_constants(n_a1: float, n_b1: float, x1: complex, phi: float) -> tuple[float, complex]:
    """The part of the rate that does not depend on eps: the numerator
    n_a1 + n_b1 + 2 Re(e^{i phi} x1) and e^{i phi}, from finite inputs."""
    _require_finite(n_a1, n_b1, x1, phi)
    rot = cmath.exp(1j * phi)
    return n_a1 + n_b1 + 2.0 * (rot * x1).real, rot


def _rate(numerator: float, rot: complex, eps: complex) -> float:
    """numerator / (2 + 2 Re(rot * eps)), clamped to [0, 1]."""
    denom = 2.0 + 2.0 * (rot * eps).real
    if not denom > DEGENERACY_TOL:
        _require_finite(denom)  # NaN or -inf: eps is not finite
        raise DegeneratePreparationError("degenerate preparation")
    # The true value lies in [0, 1] (Cauchy-Schwarz on the cross term);
    # clamp only the roundoff excursions.
    return min(1.0, max(0.0, numerator / denom))


def counting_rate_d1(
    eps: complex, n_a1: float, n_b1: float, x1: complex, prep: Preparation
) -> float:
    """Fraction of prepared photons that fire D1 (the README rate formula).

    n_a1 and n_b1 are the squared norms of the two D1-arm packets and x1
    their overlap; eps normalizes the preparation.  Fed the D2-arm norms
    and overlap instead, it gives the D2 rate; the two sum to 1 when the
    plate is lossless.  Raises ValueError on a non-finite input and
    DegeneratePreparationError on a zero-norm preparation.
    """
    _require_finite(eps)
    return _rate(*_rate_constants(n_a1, n_b1, x1, prep.phi), eps)


def spatial_period(delta_omega: float, c: float = 1.0) -> float:
    """D2-distance period of the shortcut's t2 dependence, 2*pi*c/|d_omega|.

    Infinite when the carriers coincide: the shortcut then collapses onto
    the exact prediction.
    """
    if delta_omega == 0.0:
        return math.inf
    return 2.0 * math.pi * c / abs(delta_omega)


class SweepResult(_Record):
    """Both predictions at each D2 position, one column per field, ordered
    as the requested l2 values.  Real columns are ``array('d')``, complex
    ones lists of ``complex``."""

    def __init__(
        self, l2: array, t2: array, eps_exact: list, eps_plane_wave: list,
        rate_exact: array, rate_plane_wave: array,
    ) -> None:
        self.__dict__.update(
            l2=l2, t2=t2, eps_exact=eps_exact, eps_plane_wave=eps_plane_wave,
            rate_exact=rate_exact, rate_plane_wave=rate_plane_wave,
        )

    def spread(self, field: str) -> float:
        """Largest |difference| between any two rows of the column."""
        values = getattr(self, field)
        if isinstance(values, array):
            # Rounded subtraction is monotone, so max - min is the
            # largest pairwise difference bit for bit.
            return abs(max(values) - min(values))
        return max(abs(a - b) for a in values for b in values)


def sweep_d2(
    alpha: Packet, beta: Packet, bs: BeamSplitter, geom_base: ExperimentGeometry, l2_values,
    prep: Preparation, k_alpha: float, k_beta: float,
) -> SweepResult:
    """Tabulate both predictions while the D2 distance walks l2_values.

    D1 stays at geom_base.l1.  The exact columns are constant by
    construction; the plane-wave columns pick up the spurious t2 = l2/c
    dependence.
    """
    l2 = array("d", l2_values)
    if not l2:
        raise ValueError("l2_values must be a nonempty sequence")
    if any(value <= 0.0 for value in l2):
        raise ValueError("detector distances must be positive")

    sa = split(alpha, bs)
    sb = split(beta, bs)
    c = geom_base.c
    model = derive_plane_wave_model(sa, sb, k_alpha, k_beta, c)
    n_a1 = norm2(sa.arm1)
    n_b1 = norm2(sb.arm1)

    eps = inner_product(alpha, beta)
    rate_exact = counting_rate_d1(eps, n_a1, n_b1, model.a1, prep)

    # The row-invariant terms, computed and checked once: the arm-1 term
    # at t1, which is also the plane-wave rate's x1, and that rate's
    # numerator and e^{i phi}.  A row whose eps is not finite still
    # raises, in _arm_term or in _rate.
    d_omega, a2 = model.delta_omega, model.a2
    x1_pw = _arm_term(model.a1, d_omega * (geom_base.l1 / c))
    numerator_pw, rot = _rate_constants(n_a1, n_b1, x1_pw, prep.phi)
    _require_finite(a2)
    t2 = array("d", [value / c for value in l2])
    eps_pw = [x1_pw + _arm_term(a2, d_omega * t) for t in t2]
    rate_pw = array("d", [_rate(numerator_pw, rot, e) for e in eps_pw])
    n = len(l2)
    return SweepResult(l2, t2, [eps] * n, eps_pw, array("d", [rate_exact]) * n, rate_pw)
