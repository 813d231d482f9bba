"""The plate and the two arms: the unitarity check and its refusals, the norm a
split keeps, a fully reflecting plate, flight of both arms, and the geometry's
refusals.  That splitting keeps the overlap is acceptance criterion 2 and
``test_properties.py::test_split_keeps_the_{gaussian,grid}_overlap``; that flight
keeps it is criterion 1 and ``test_flight.py``."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import random_gaussian, random_splitter
from platesim import (
    ExperimentGeometry,
    GaussianPacket,
    balanced_splitter,
    inner_product,
    propagate,
    split,
)
from platesim.optics import BeamSplitter
from platesim.packets import norm2


def test_balanced_splitter_is_unitary():
    bs = balanced_splitter()
    assert bs.unitarity_defect() < 1e-15
    assert abs(bs.r) == pytest.approx(abs(bs.t), abs=1e-15)


def _defect_message(defect: str) -> str:
    return rf"^non-unitary plate: \|r\|\^2 \+ \|t\|\^2 off by {defect}$"


def test_unitarity_defect_value():
    with pytest.raises(ValueError, match=_defect_message("0.15")):
        BeamSplitter(r=0.7, t=0.6)


def test_nan_plate_rejected():
    # A NaN plate has a NaN defect, which no comparison with the
    # tolerance may let through.
    for r, t in [(math.nan, 0.0), (1.0, 1j * math.nan)]:
        with pytest.raises(ValueError, match=_defect_message("nan")):
            BeamSplitter(r=r, t=t)


def test_oversized_amplitude_plate_rejected():
    # |t|^2 or |r|^2 past the double range: the defect is inf, not an
    # OverflowError from squaring.
    for r, t in [(0.0, 1e155j), (complex(1e308, 1e308), 0.0)]:
        with pytest.raises(ValueError, match=_defect_message("inf")):
            BeamSplitter(r=r, t=t)


def test_split_preserves_total_norm():
    rng = np.random.default_rng(21)
    for _ in range(10):
        state = split(random_gaussian(rng), random_splitter(rng))
        assert norm2(state.arm1) + norm2(state.arm2) == pytest.approx(1.0, abs=1e-12)


def test_fully_reflecting_plate_passes_packet_to_arm1():
    g = GaussianPacket(x0=0.0, sigma=1.0, k0=10.0)
    state = split(g, BeamSplitter(r=1.0, t=0.0))
    assert inner_product(state.arm1, g) == pytest.approx(1.0 + 0.0j, abs=1e-14)
    assert norm2(state.arm2) == 0.0


def test_propagate_moves_both_arms():
    g = GaussianPacket(x0=0.0, sigma=1.0, k0=10.0)
    state = split(g, balanced_splitter())
    arm1, arm2 = (propagate(arm, 5.0, c=2.0) for arm in (state.arm1, state.arm2))
    assert arm1.x0 == 10.0
    assert arm2.x0 == 10.0
    assert norm2(arm1) + norm2(arm2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(l1=0.0, l2=1.0),
        dict(l1=1.0, l2=-2.0),
        dict(l1=1.0, l2=1.0, c=0.0),
        dict(l1=math.nan, l2=1.0),
        dict(l1=1.0, l2=math.nan),
        dict(l1=1.0, l2=1.0, c=math.nan),
        dict(l1=math.nan, l2=1.0, c=math.nan),
        dict(l1=math.inf, l2=1.0),
        dict(l1=1.0, l2=math.inf),
        dict(l1=1.0, l2=1.0, c=math.inf),
    ],
)
def test_geometry_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        ExperimentGeometry(**kwargs)
