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
``sweep_d2`` share one implementation of the rate; the shortcut's terms
are each one product a * e^{i theta}, with the one d_omega of
``carrier_detuning``.  The sweep computes and checks what no row changes
once (the arm-1 term at t1, e^{i phi}, the rate numerator, the largest
row phase); each row then costs one cos/sin pair, one denominator, the
degeneracy and range tests and the clamp.  Every ``SweepResult`` column
is an ``array('d')``, a complex value split into ``_re`` and ``_im``
columns in the CSV's order.  The value types are frozen records (see
:mod:`platesim.packets`).
"""

from __future__ import annotations

import cmath
import math
from array import array
from operator import attrgetter

from .optics import UNITARITY_TOL, BeamSplitter, ExperimentGeometry, TwoArmState, split
from .packets import Packet, _Record, _require_finite, _require_positive, inner_product, norm2

__all__ = [
    "DEGENERACY_TOL", "DegeneratePreparationError", "PlaneWaveModel", "Preparation",
    "SweepResult", "carrier_detuning", "counting_rate_d1", "derive_plane_wave_model",
    "plane_wave_epsilon", "spatial_period", "sweep_d2",
]

DEGENERACY_TOL = 1e-9


class DegeneratePreparationError(ValueError):
    """The prepared superposition has (near-)zero norm."""


class PlaneWaveModel(_Record):
    """What the shortcut reads: ``carrier_detuning``'s delta_omega, and the
    arm-1 and arm-2 overlap terms a1 and a2 at the split, which it evolves
    by their own phase factors instead of keeping their sum fixed."""

    def __init__(self, delta_omega: float, a1: complex, a2: complex) -> None:
        _require_finite(delta_omega=delta_omega, a1=a1, a2=a2)
        self.__dict__.update(delta_omega=delta_omega, a1=a1, a2=a2)


class Preparation(_Record):
    """Relative phase of the prepared superposition (|a> + e^{i phi} |b>)/N."""

    def __init__(self, phi: float = 0.0) -> None:
        _require_finite(phi=phi)
        self.__dict__.update(phi=phi)


def derive_plane_wave_model(
    sa: TwoArmState, sb: TwoArmState, k_alpha: float, k_beta: float, c: float = 1.0
) -> PlaneWaveModel:
    """Read the shortcut's ingredients off two freshly split states.

    Frequencies follow the dispersionless rule omega = c * k; the term
    amplitudes are the per-arm overlaps at the split time; ``carrier_detuning``
    refuses the carriers and c.
    """
    return PlaneWaveModel(
        delta_omega=carrier_detuning(k_alpha, k_beta, c),
        a1=inner_product(sa.arm1, sb.arm1),
        a2=inner_product(sa.arm2, sb.arm2),
    )


def plane_wave_epsilon(m: PlaneWaveModel, t1: float, t2: float) -> complex:
    """Overlap under the plane-wave shortcut, term-wise at (t1, t2).

    Returns a1*exp(i*d_omega*t1) + a2*exp(i*d_omega*t2).  Evaluating the
    two terms at different times is exactly the step the exact treatment
    forbids; the resulting t2 dependence is the artifact under study.
    """
    _require_finite(t1=t1, t2=t2)
    theta1, theta2 = m.delta_omega * t1, m.delta_omega * t2
    _require_finite(**{
        "plane-wave phase delta_omega * t1": theta1, "plane-wave phase delta_omega * t2": theta2,
    })
    return m.a1 * cmath.rect(1.0, theta1) + m.a2 * cmath.rect(1.0, theta2)


def _rate_constants(n_a1: float, n_b1: float, x1: complex, phi: float) -> tuple[float, complex]:
    """The part of the rate that does not depend on eps: the numerator
    n_a1 + n_b1 + 2 Re(e^{i phi} x1), which must be finite, and e^{i phi}."""
    _require_finite(n_a1=n_a1, n_b1=n_b1, x1=x1)  # Preparation refuses a non-finite phi
    rot = cmath.exp(1j * phi)
    numerator = n_a1 + n_b1 + 2.0 * (rot * x1).real
    _require_finite(**{"n_a1 + n_b1 + 2 Re(e^{i phi} x1)": numerator})
    return numerator, rot


def _rate(numerator: float, rot: complex, eps: complex) -> float:
    """numerator / (2 + 2 Re(rot * eps)), clamped to [0, 1]; the denominator
    must be finite and above DEGENERACY_TOL, the numerator in [0, denom]
    up to 8 * UNITARITY_TOL."""
    denom = 2.0 + 2.0 * (rot * eps).real
    if not DEGENERACY_TOL < denom < math.inf:
        _require_finite(eps=eps)  # a non-finite eps gives a NaN or infinite denom
        _require_finite(**{"2 + 2 Re(e^{i phi} eps)": denom})  # finite eps, overflowed sum
        raise DegeneratePreparationError("degenerate preparation")
    # Normalized packets on one plate whose |r|^2 + |t|^2 - 1 is d keep
    # the numerator in [0, denom + 4d] (Cauchy-Schwarz on the cross
    # term); the band is twice that, and only roundoff is clamped.
    if not -8.0 * UNITARITY_TOL <= numerator <= denom + 8.0 * UNITARITY_TOL:
        raise ValueError(
            "numerator n_a1 + n_b1 + 2 Re(e^{i phi} x1) outside [0, 2 + 2 Re(e^{i phi} eps)]"
        )
    return min(1.0, max(0.0, numerator / denom))


def counting_rate_d1(
    eps: complex, n_a1: float, n_b1: float, x1: complex, prep: Preparation
) -> float:
    """Fraction of prepared photons that fire D1 (the README rate formula).

    n_a1 and n_b1 are the squared norms of the two D1-arm packets and x1
    their overlap; eps normalizes the preparation.  Fed the D2-arm norms
    and overlap instead, it gives the D2 rate; the two sum to 1 when the
    plate is lossless.  Raises ValueError on an input, the numerator or the
    denominator that is not finite, ValueError on a numerator outside
    [0, denominator] by more than 8 * UNITARITY_TOL (which normalized
    packets on one plate never give), and DegeneratePreparationError on a
    zero-norm preparation.
    """
    return _rate(*_rate_constants(n_a1, n_b1, x1, prep.phi), eps)


def carrier_detuning(k_alpha: float, k_beta: float, c: float) -> float:
    """The shortcut's d_omega = omega_alpha - omega_beta with omega = c * k, for every
    caller; ``c * (k_alpha - k_beta)`` rounds otherwise and can be nonzero where this is 0.
    c must be positive and finite, and both frequencies finite."""
    _require_positive(c=c)
    _require_finite(**{"c * k_alpha": c * k_alpha, "c * k_beta": c * k_beta})
    return c * k_alpha - c * k_beta


def spatial_period(delta_omega: float, c: float = 1.0) -> float:
    """D2-distance period of the shortcut's t2 dependence, 2*pi*c/|d_omega|.

    Infinite when the carriers coincide: the shortcut then collapses onto
    the exact prediction.  delta_omega must be finite, c positive and finite.
    """
    _require_finite(delta_omega=delta_omega)
    _require_positive(c=c)
    if delta_omega == 0.0:
        return math.inf
    return 2.0 * math.pi * c / abs(delta_omega)


class SweepResult(_Record):
    """Both predictions at each D2 position: eight ``array('d')`` columns in
    the CSV's column order, each ordered as the requested l2 values."""

    def __init__(
        self, l2: array, t2: array, eps_exact_re: array, eps_exact_im: array,
        eps_plane_wave_re: array, eps_plane_wave_im: array, rate_exact: array,
        rate_plane_wave: array,
    ) -> None:
        self.__dict__.update(
            l2=l2, t2=t2, eps_exact_re=eps_exact_re, eps_exact_im=eps_exact_im,
            eps_plane_wave_re=eps_plane_wave_re, eps_plane_wave_im=eps_plane_wave_im,
            rate_exact=rate_exact, rate_plane_wave=rate_plane_wave,
        )

    def spread(self, field: str) -> float:
        """Largest |difference| between any two rows of a column."""
        values = getattr(self, field)
        # Rounded subtraction is monotone, so max - min is the largest
        # pairwise difference bit for bit.
        return abs(max(values) - min(values))


def sweep_d2(
    alpha: Packet, beta: Packet, bs: BeamSplitter, geom_base: ExperimentGeometry, l2_values,
    prep: Preparation, k_alpha: float, k_beta: float,
) -> SweepResult:
    """Tabulate both predictions while the D2 distance walks l2_values.

    D1 stays at geom_base.l1.  The exact columns are constant by
    construction; the plane-wave columns pick up the spurious t2 = l2/c
    dependence.  A vanishing exact denominator raises
    DegeneratePreparationError("degenerate preparation"); a vanishing
    shortcut denominator names the shortcut and the first such row's l2.
    """
    l2 = array("d", l2_values)
    if not l2:
        raise ValueError("l2_values must be a nonempty sequence")
    # the first value not in (0, inf), NaN included, or 1.0 when all pass
    _require_positive(l2_values=next((v for v in l2 if not 0.0 < v < math.inf), 1.0))

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
    # numerator and e^{i phi}.  Every t2 lies in [0, inf] and rounded
    # multiplication is monotone, so the largest t2's phase bounds every
    # row's, NaN (0 * inf) included.  A row whose eps is not finite
    # still raises, in _rate.
    d_omega, a2 = model.delta_omega, model.a2
    theta1 = d_omega * (geom_base.l1 / c)
    _require_finite(**{"plane-wave phase (c * k_alpha - c * k_beta) * l1 / c": theta1})
    x1_pw = model.a1 * cmath.rect(1.0, theta1)
    numerator_pw, rot = _rate_constants(n_a1, n_b1, x1_pw, prep.phi)
    t2 = array("d", (value / c for value in l2))
    _require_finite(**{"plane-wave phase (c * k_alpha - c * k_beta) * l2 / c": d_omega * max(t2)})
    eps_pw = [x1_pw + a2 * cmath.rect(1.0, d_omega * t) for t in t2]
    rate_pw = array("d")
    try:
        rate_pw.extend(_rate(numerator_pw, rot, e) for e in eps_pw)
    except DegeneratePreparationError:
        # The shortcut's own denominator vanished.  extend keeps the rows
        # before the refused one, so the length indexes it.
        raise DegeneratePreparationError(
            f"degenerate preparation under the plane-wave shortcut at l2 = {l2[len(rate_pw)]:g}"
        ) from None
    eps_pw_re = array("d", map(attrgetter("real"), eps_pw))
    eps_pw_im = array("d", map(attrgetter("imag"), eps_pw))
    del eps_pw  # freed before the constant columns are built
    exact = (array("d", [value]) * len(l2) for value in (eps.real, eps.imag, rate_exact))
    exact_re, exact_im, exact_rate = exact
    return SweepResult(l2, t2, exact_re, exact_im, eps_pw_re, eps_pw_im, exact_rate, rate_pw)
