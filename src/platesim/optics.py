"""Partially reflecting plate: splitting, two-arm states, overlap identities.

A normalized packet hitting the plate splits into an amplitude-r copy on
the plate->D1 axis and an amplitude-t copy on the plate->D2 axis.  Both
arms reuse the incoming coordinate, relabeled with the plate at the
origin; the split is instantaneous and pointlike.  Because the plate is
unitary (|r|^2 + |t|^2 = 1) and free flight is a translation, the overlap
of two such states equals the overlap of the inputs and does not change
with time; the operations here expose that identity directly.
"""

from __future__ import annotations

import math

from .packets import Packet, _Record, _require_positive, inner_product, propagate, scale

__all__ = [
    "UNITARITY_TOL", "BeamSplitter", "ExperimentGeometry", "TwoArmState", "balanced_splitter",
    "overlap_at_time", "overlap_post", "split",
]

UNITARITY_TOL = 1e-9


class BeamSplitter(_Record):
    """Plate amplitudes: r reflected toward D1, t transmitted toward D2."""

    def __init__(self, r: complex, t: complex) -> None:
        self.__dict__.update(r=r, t=t)
        defect = self.unitarity_defect()
        # Written so that a NaN defect is refused too.
        if not defect <= UNITARITY_TOL:
            raise ValueError(f"non-unitary plate: |r|^2 + |t|^2 off by {defect:.3g}")

    def unitarity_defect(self) -> float:
        # Products, not abs(z) ** 2, which raises OverflowError for a huge
        # amplitude: the defect is then inf and __init__ refuses it.
        r, t = self.r, self.t
        squares = r.real * r.real + r.imag * r.imag + t.real * t.real + t.imag * t.imag
        return abs(squares - 1.0)


def balanced_splitter() -> BeamSplitter:
    """Symmetric lossless 50/50 plate, (r, t) = (1, i) / sqrt(2)."""
    s = math.sqrt(0.5)
    return BeamSplitter(complex(s), 1j * s)


class TwoArmState(_Record):
    """Packets on the plate->D1 and plate->D2 axes right after the split."""

    def __init__(self, arm1: Packet, arm2: Packet) -> None:
        self.__dict__.update(arm1=arm1, arm2=arm2)


def split(p: Packet, bs: BeamSplitter) -> TwoArmState:
    """Split a normalized packet on the plate into its two arm packets."""
    return TwoArmState(arm1=scale(p, bs.r), arm2=scale(p, bs.t))


def overlap_post(sa: TwoArmState, sb: TwoArmState) -> complex:
    """Overlap of two post-plate states: <a1|b1> + <a2|b2>."""
    return inner_product(sa.arm1, sb.arm1) + inner_product(sa.arm2, sb.arm2)


def overlap_at_time(sa: TwoArmState, sb: TwoArmState, t: float, c: float = 1.0) -> complex:
    """overlap_post after evolving all four arm packets to time t.

    Propagation is unitary, so for any admissible t this equals
    overlap_post(sa, sb) up to roundoff.  Each arm flies freely along its
    own axis, pairwise: the arm-1 pair is flown and overlapped before the
    arm-2 pair, summed as in overlap_post, so at most two flown arms live.
    """
    arm1 = inner_product(propagate(sa.arm1, t, c), propagate(sb.arm1, t, c))
    return arm1 + inner_product(propagate(sa.arm2, t, c), propagate(sb.arm2, t, c))


class ExperimentGeometry(_Record):
    """Distances from the plate to D1 and D2, and the propagation speed."""

    def __init__(self, l1: float, l2: float, c: float = 1.0) -> None:
        _require_positive(l1=l1, l2=l2, c=c)
        self.__dict__.update(l1=l1, l2=l2, c=c)

