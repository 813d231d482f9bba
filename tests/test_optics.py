"""Plate splitting and the overlap identities it preserves."""

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
    normalize,
    overlap_at_time,
    propagate,
    sample,
    split,
)
from platesim.optics import BeamSplitter, NonUnitaryPlateError, overlap_post
from platesim.packets import norm2


def test_balanced_splitter_is_unitary():
    bs = balanced_splitter()
    assert bs.unitarity_defect() < 1e-15
    assert abs(bs.r) == pytest.approx(abs(bs.t), abs=1e-15)


def _defect_message(defect: str) -> str:
    return rf"^non-unitary plate: \|r\|\^2 \+ \|t\|\^2 off by {defect}$"


def test_unitarity_defect_value():
    with pytest.raises(NonUnitaryPlateError, match=_defect_message("0.15")):
        BeamSplitter(r=0.7, t=0.6)


def test_split_rejects_lossy_plate():
    g = GaussianPacket(x0=0.0, sigma=1.0, k0=10.0)
    with pytest.raises(NonUnitaryPlateError, match="non-unitary plate"):
        split(g, BeamSplitter(r=0.7, t=0.6))


def test_nan_plate_rejected():
    # A NaN plate has a NaN defect, which no comparison with the
    # tolerance may let through.
    for r, t in [(math.nan, 0.0), (1.0, 1j * math.nan)]:
        with pytest.raises(NonUnitaryPlateError, match=_defect_message("nan")):
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


def test_overlap_post_equals_pre_analytic():
    rng = np.random.default_rng(22)
    for _ in range(25):
        a, b = random_gaussian(rng), random_gaussian(rng)
        bs = random_splitter(rng)
        pre = inner_product(a, b)
        post = overlap_post(split(a, bs), split(b, bs))
        assert abs(post - pre) < 1e-12


def test_overlap_post_equals_pre_grid(wide_grid):
    rng = np.random.default_rng(23)
    a = normalize(sample(random_gaussian(rng), wide_grid))
    b = normalize(sample(random_gaussian(rng), wide_grid))
    bs = random_splitter(rng)
    pre = inner_product(a, b)
    post = overlap_post(split(a, bs), split(b, bs))
    assert abs(post - pre) < 1e-8


def test_overlap_constant_in_time():
    rng = np.random.default_rng(24)
    a, b = random_gaussian(rng), random_gaussian(rng)
    bs = random_splitter(rng)
    sa, sb = split(a, bs), split(b, bs)
    at_zero = overlap_post(sa, sb)
    for t in (0.0, 0.5, 3.0, 17.0, 120.0):
        assert abs(overlap_at_time(sa, sb, t) - at_zero) < 1e-12


def test_propagate_moves_both_arms():
    g = GaussianPacket(x0=0.0, sigma=1.0, k0=10.0)
    state = split(g, balanced_splitter())
    arm1, arm2 = (propagate(arm, 5.0, c=2.0) for arm in (state.arm1, state.arm2))
    assert arm1.base.x0 == 10.0
    assert arm2.base.x0 == 10.0
    assert norm2(arm1) + norm2(arm2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(l1=0.0, l2=1.0),
        dict(l1=1.0, l2=-2.0),
        dict(l1=1.0, l2=1.0, c=0.0),
    ],
)
def test_geometry_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        ExperimentGeometry(**kwargs)
