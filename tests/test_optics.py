"""The plate and the two arms: a balanced plate's unitarity, the norm a split
keeps, a fully reflecting plate and flight of both arms.  The plate's and the
geometry's refusals are rows of ``REFUSALS`` in ``test_argument_checks.py``.
That splitting keeps the overlap is acceptance criterion 2 and
``test_properties.py::test_split_keeps_the_{gaussian,grid}_overlap``; that flight
keeps it is criterion 1 and ``test_flight.py``."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import random_gaussian, random_splitter
from platesim import (
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
