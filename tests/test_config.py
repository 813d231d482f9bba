"""Scenario parsing: the defaults, and the loads that no run of ``simulate``
shows (the size ceilings, the narrow packets, an explicit splitter's sign, a
Gaussian run's phases and grid section).  Two refusals are read here: alpha's
carrier frequency, the one killer of a mutant outside the contract, and a file
that is not UTF-8, since a contract case's config is text.  Every other loader
refusal is a contract case, a row of ``tools/cli_parity.py::_refusals()``."""

from __future__ import annotations

import copy
import json
import math

import pytest

from conftest import DEFAULT_SCENARIO, GRID_SCENARIO, assert_overlap_is_exact
from platesim import (
    InvariantError,
    SchemaError,
    balanced_splitter,
    inner_product,
    load_config,
    parse_config,
)
from platesim.config import MAX_GRID_N, MAX_N_POINTS

GRID = GRID_SCENARIO["grid"]


def _scenario(**overrides):
    raw = copy.deepcopy(DEFAULT_SCENARIO)
    raw.update(copy.deepcopy(overrides))
    return raw


def test_minimal_config_gets_defaults():
    cfg = parse_config(DEFAULT_SCENARIO)
    assert cfg.c == 1.0
    assert cfg.preparation_phi == 0.0
    assert cfg.splitter == balanced_splitter()
    assert cfg.n_points == 200
    assert cfg.l1 == 1.0
    assert cfg.l2_min == 1.0
    # default sweep spans two periods of the plane-wave artifact
    assert cfg.l2_max == pytest.approx(1.0 + 2.0 * 2.0 * math.pi / 0.8)
    assert cfg.grid is None
    assert len(cfg.l2_values()) == 200
    assert cfg.invariance_tol == 1e-12
    assert parse_config(_scenario(representation="grid", grid=GRID)).invariance_tol == 1e-8


# The contract's carrier_frequency[*] and carrier_frequency_beta[*] pin both
# refusals; alpha's stays here too, as the one killer of the mutant
# flight_rule_carrier_alpha_dropped outside the contract.
@pytest.mark.parametrize("overrides, name", [({"geometry": {"c": 1e308}}, "packet_alpha")])
def test_non_finite_carrier_frequency_rejected(overrides, name):
    match = f"geometry.c: carrier frequency c \\* {name}.k0"
    with pytest.raises(InvariantError, match=match):
        parse_config(_scenario(**overrides))


# A packet so narrow that 4 * (1/(2 sigma^2)) and dk^2 overflow: the loader
# once refused its finite overlap, about 2.3e-99, as "not finite".
NARROW = {"x0": 0.0, "sigma": 1e-154, "k0": 1e155}
WIDE = {"x0": 0.5, "sigma": 1.2, "k0": 12.8}


@pytest.mark.parametrize(
    "alpha, beta", [(NARROW, WIDE), (WIDE, NARROW)], ids=["narrow-alpha", "narrow-beta"]
)
def test_narrow_packet_loads_with_the_exact_overlap(alpha, beta):
    # an explicit l2_max: the default span, two periods of a carrier near
    # 1e155, rounds away
    cfg = parse_config(_scenario(packet_alpha=alpha, packet_beta=beta, geometry={"l2_max": 2.0}))
    a, b = cfg.packet_alpha, cfg.packet_beta
    assert_overlap_is_exact(inner_product(a, b), a, b)


# A grid samples k0 * (x - x0) + phase, so a huge phase rounds the carrier
# away and the contract's grid_phase* cases are refused; the Gaussian closed
# form takes any finite phase.
@pytest.mark.parametrize("packet", ["packet_alpha", "packet_beta"])
@pytest.mark.parametrize("phase", [2.0**20 + 1.0, -1.5e308])
def test_gaussian_takes_a_phase_that_a_grid_refuses(packet, phase):
    raw = _scenario(grid=GRID)
    raw[packet]["phase"] = phase
    assert parse_config(raw).grid is None


@pytest.mark.parametrize("phase", [2**20, -(2**20)])
def test_grid_phase_of_two_to_the_twenty_loads(phase):
    raw = _scenario(representation="grid", grid=GRID)
    raw["packet_beta"]["phase"] = phase
    assert parse_config(raw).packet_beta.phase == phase


def _sized(section: str, key: str, value: int) -> dict:
    raw = _scenario(representation="grid", grid=GRID, geometry={})
    raw[section][key] = value
    return raw


SIZES = [("geometry", "n_points", MAX_N_POINTS), ("grid", "n", MAX_GRID_N)]


# the contract's n_points_* and grid_n_* cases are refused above the ceiling
@pytest.mark.parametrize("section, key, ceiling", SIZES)
def test_size_ceiling_loads(section, key, ceiling):
    assert parse_config(_sized(section, key, ceiling))  # nothing is allocated


@pytest.mark.parametrize(
    "alpha",
    [{"x0": 0.0, "sigma": 1e-150, "k0": 1e151}, {"x0": 0.0, "sigma": 1.0, "k0": 1e308}],
)
def test_explicit_single_point_range_loads_where_the_default_span_vanishes(alpha):
    # Two periods of the plane-wave artifact are below the spacing of doubles
    # at l2_min, so the contract's vanishing_default_span* cases are refused.
    geometry = {"l2_min": 1.0, "l2_max": 1.0}
    cfg = parse_config(_scenario(packet_alpha=alpha, geometry=geometry))
    assert cfg.l2_max == cfg.l2_min


def test_tolerances_override():
    tolerances = {"analytic_tol": 1e-10, "grid_tol": 1e-6}
    assert parse_config(_scenario(tolerances=tolerances)).invariance_tol == 1e-10
    grid = parse_config(_scenario(representation="grid", grid=GRID, tolerances=tolerances))
    assert grid.invariance_tol == 1e-6


# A Gaussian run samples on no grid: its grid section is read field by field
# (the contract's nonpositive_grid_spacing_gaussian* cases are refused), but the
# window and spacing rules, which hold only for a grid run, are not applied.
def test_gaussian_scenario_reads_but_does_not_sample_its_grid_section():
    small = {"x_min": -2.0, "dx": 0.0625, "n": 64}  # clips both packets
    cfg = parse_config(_scenario(grid=small, tolerances={"analytic_tol": 1e-10}))
    assert cfg.grid is None
    assert cfg.invariance_tol == 1e-10


def test_explicit_splitter_accepted():
    s = math.sqrt(0.5)
    cfg = parse_config(
        _scenario(splitter={"r_re": s, "r_im": 0.0, "t_re": 0.0, "t_im": -s})
    )
    assert cfg.splitter.t == complex(0.0, -s)


# A contract case's config is text, so bytes that are not UTF-8 are read here;
# the contract's not_json, long_integer and deep_nesting cases are the others.
@pytest.mark.parametrize("data", [b'{"representation": "\xff"}'], ids=["not-utf8"])
def test_load_config_unreadable_json(tmp_path, data):
    path = tmp_path / "scenario.json"
    path.write_bytes(data)
    with pytest.raises(SchemaError, match="^not valid JSON: "):
        load_config(path)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(DEFAULT_SCENARIO), encoding="utf-8")
    assert load_config(path) == parse_config(DEFAULT_SCENARIO)
