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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .optics import BeamSplitter, ExperimentGeometry, TwoArmState, split
from .packets import Packet, inner_product, norm2

__all__ = [
    "DEGENERACY_TOL",
    "DegeneratePreparationError",
    "PlaneWaveModel",
    "Preparation",
    "SweepResult",
    "counting_rate_d1",
    "derive_plane_wave_model",
    "plane_wave_epsilon",
    "spatial_period",
    "sweep_d2",
]

DEGENERACY_TOL = 1e-9


class DegeneratePreparationError(ValueError):
    """The prepared superposition has (near-)zero norm."""


@dataclass(frozen=True)
class PlaneWaveModel:
    """Carrier frequencies and t = 0 term amplitudes of the shortcut.

    a1 and a2 are the arm-1 and arm-2 overlap terms at the moment of the
    split; the shortcut evolves each by its own phase factor instead of
    keeping their sum fixed.
    """

    omega_alpha: float
    omega_beta: float
    a1: complex
    a2: complex

    @property
    def delta_omega(self) -> float:
        return self.omega_alpha - self.omega_beta


@dataclass(frozen=True)
class Preparation:
    """Relative phase of the prepared superposition (|a> + e^{i phi} |b>)/N."""

    phi: float = 0.0


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


def _times_phase(a: complex, theta):
    """Real and imaginary parts of a * exp(i*theta).

    Written as real arithmetic in the operand order of CPython's complex
    product: numpy's complex multiply differs from it in the last bit,
    which the 17-digit CSV would show.
    """
    cos, sin = np.cos(theta), np.sin(theta)
    return a.real * cos - a.imag * sin, a.real * sin + a.imag * cos


def plane_wave_epsilon(m: PlaneWaveModel, t1, t2):
    """Overlap under the plane-wave shortcut, term-wise at (t1, t2).

    Returns a1*exp(i*d_omega*t1) + a2*exp(i*d_omega*t2).  Evaluating the
    two terms at different times is exactly the step the exact treatment
    forbids; the resulting t2 dependence is the artifact under study.
    Times may be floats, giving a complex, or arrays, giving a complex128
    array whose elements equal the float calls bit for bit.
    """
    d_omega = m.delta_omega
    re1, im1 = _times_phase(complex(m.a1), d_omega * np.asarray(t1, dtype=float))
    re2, im2 = _times_phase(complex(m.a2), d_omega * np.asarray(t2, dtype=float))
    re, im = re1 + re2, im1 + im2
    if np.ndim(re) == 0:
        return complex(re, im)
    eps = np.empty(np.shape(re), dtype=complex)
    eps.real, eps.imag = re, im
    return eps


def counting_rate_d1(eps, n_a1: float, n_b1: float, x1, prep: Preparation):
    """Fraction of prepared photons that fire D1 (the README rate formula).

    n_a1 and n_b1 are the squared norms of the two D1-arm packets and x1
    their overlap; eps normalizes the preparation.  Fed the D2-arm norms
    and overlap instead, it gives the D2 rate; the two sum to 1 when the
    plate is lossless.  eps and x1 may be complex arrays, which give an
    array of rates.  Raises ValueError on a non-finite input and
    DegeneratePreparationError on a zero-norm preparation.
    """
    phi = prep.phi
    rot = cmath.exp(1j * phi)
    x_re, x_im = np.real(x1), np.imag(x1)
    eps_re, eps_im = np.real(eps), np.imag(eps)
    parts = (n_a1, n_b1, phi, x_re, x_im, eps_re, eps_im)
    if not all(np.isfinite(v).all() for v in parts):
        raise ValueError("counting rate of a non-finite input")
    denom = 2.0 + 2.0 * (rot.real * eps_re - rot.imag * eps_im)
    if np.any(denom <= DEGENERACY_TOL):
        raise DegeneratePreparationError("degenerate preparation")
    raw = (n_a1 + n_b1 + 2.0 * (rot.real * x_re - rot.imag * x_im)) / denom
    # The true value lies in [0, 1] (Cauchy-Schwarz on the cross term);
    # clamp only the roundoff excursions, as min(1, max(0, raw)) would.
    rate = np.where(raw > 0.0, raw, 0.0)
    rate = np.where(rate < 1.0, rate, 1.0)
    return float(rate) if rate.ndim == 0 else rate


def spatial_period(delta_omega: float, c: float = 1.0) -> float:
    """D2-distance period of the shortcut's t2 dependence, 2*pi*c/|d_omega|.

    Infinite when the carriers coincide: the shortcut then collapses onto
    the exact prediction.
    """
    if delta_omega == 0.0:
        return math.inf
    return 2.0 * math.pi * c / abs(delta_omega)


# Complex spread compares row blocks against the whole column; this many
# differences per block bounds its memory.
_SPREAD_BLOCK = 1 << 20


@dataclass(frozen=True)
class SweepResult:
    """Both predictions at each D2 position, one array per column, ordered
    as the requested l2 values."""

    l2: np.ndarray
    t2: np.ndarray
    eps_exact: np.ndarray
    eps_plane_wave: np.ndarray
    rate_exact: np.ndarray
    rate_plane_wave: np.ndarray

    def spread(self, field: str) -> float:
        """Largest |difference| between any two rows of the column."""
        values = getattr(self, field)
        if not np.iscomplexobj(values):
            # Rounded subtraction is monotone, so max - min is the
            # largest pairwise difference bit for bit.
            return abs(float(values.max() - values.min()))
        step = max(1, _SPREAD_BLOCK // values.size)
        return float(
            np.max([
                np.abs(values[i : i + step, None] - values[None, :]).max()
                for i in range(0, values.size, step)
            ])
        )


def sweep_d2(
    alpha: Packet,
    beta: Packet,
    bs: BeamSplitter,
    geom_base: ExperimentGeometry,
    l2_values,
    prep: Preparation,
    k_alpha: float,
    k_beta: float,
) -> SweepResult:
    """Tabulate both predictions while the D2 distance walks l2_values.

    D1 stays at geom_base.l1.  The exact columns are constant by
    construction; the plane-wave columns pick up the spurious t2 = l2/c
    dependence.  All rows are computed in one pass over the array of t2.
    """
    l2 = np.array(l2_values, dtype=float)
    if l2.ndim != 1 or l2.size == 0:
        raise ValueError("l2_values must be a nonempty sequence")
    if np.any(l2 <= 0.0):
        raise ValueError("detector distances must be positive")

    sa = split(alpha, bs)
    sb = split(beta, bs)
    model = derive_plane_wave_model(sa, sb, k_alpha, k_beta, geom_base.c)
    n_a1 = norm2(sa.arm1)
    n_b1 = norm2(sb.arm1)

    eps = inner_product(alpha, beta)
    rate_exact = counting_rate_d1(eps, n_a1, n_b1, model.a1, prep)

    t1 = geom_base.l1 / geom_base.c
    t2 = l2 / geom_base.c
    x1_pw = model.a1 * cmath.exp(1j * model.delta_omega * t1)
    eps_pw = plane_wave_epsilon(model, t1, t2)
    return SweepResult(
        l2=l2,
        t2=t2,
        eps_exact=np.full(l2.size, eps),
        eps_plane_wave=eps_pw,
        rate_exact=np.full(l2.size, rate_exact),
        rate_plane_wave=counting_rate_d1(eps_pw, n_a1, n_b1, x1_pw, prep),
    )
