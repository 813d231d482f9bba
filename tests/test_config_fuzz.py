"""Loader and command-line fuzzing: whatever JSON value arrives,
``parse_config`` either returns a ScenarioConfig or raises ConfigError
(exit 3 or 4 in the CLI), never another exception; and ``simulate`` run
on a perturbed committed scenario, through the ``simulate`` fixture, exits
with a documented code, its streams following the rule for that code, and
writes only finite numbers when it exits 0."""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cli_parity import INVARIANCE, SWEEP, make_case  # noqa: E402
from platesim import ConfigError, parse_config  # noqa: E402
from platesim.config import ScenarioConfig  # noqa: E402

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SCENARIOS = {
    path.name: json.loads(path.read_text(encoding="utf-8"))
    for path in sorted(SCENARIO_DIR.glob("*.json"))
}

# Every scalar the loader reads, as (section, key); section "" is the top level.
PACKET_KEYS = ("x0", "sigma", "k0", "phase")
FIELDS = [
    *(("packet_alpha", key) for key in PACKET_KEYS),
    *(("packet_beta", key) for key in PACKET_KEYS),
    *(("splitter", key) for key in ("r_re", "r_im", "t_re", "t_im")),
    *(("geometry", key) for key in ("l1", "l2_min", "l2_max", "n_points", "c")),
    ("", "preparation_phi"),
    *(("grid", key) for key in ("x_min", "dx", "n")),
    *(("tolerances", key) for key in ("analytic_tol", "grid_tol")),
]
# Drawn objects use the loader's keys too, so they get past the unknown-key check.
KEYS = sorted({key for _, key in FIELDS} | {section for section, _ in FIELDS if section})

# Values near the edges of the double range, where products, squares and
# sums of accepted inputs overflow or underflow.
EDGES = [1e155, -1e155, 1e154, 1e-154, 1e-150, 1e151, 1e308, -1e308, 5e-324, 0.0, -0.0]
numbers = st.one_of(
    st.integers(),
    st.integers(min_value=10**308, max_value=10**400),
    st.integers(min_value=-(10**400), max_value=-(10**308)),
    st.floats(),  # NaN and the infinities included
    st.sampled_from(EDGES),
    st.sampled_from(EDGES).map(lambda x: 1.5 * x),
)
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=6) | st.sampled_from(["grid"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=6), children, max_size=8),
    max_leaves=20,
)


SIZES = {("geometry", "n_points"), ("grid", "n")}


@st.composite
def perturbed_scenarios(draw, sizes=numbers):
    """A committed scenario with 1 to 3 of its scalars set to drawn numbers,
    the two sizes to numbers drawn from ``sizes``."""
    raw = copy.deepcopy(draw(st.sampled_from(list(SCENARIOS.values()))))
    fields = draw(st.lists(st.sampled_from(FIELDS), min_size=1, max_size=3, unique=True))
    for section, key in fields:
        value = draw(sizes if (section, key) in SIZES else numbers)
        (raw.setdefault(section, {}) if section else raw)[key] = value
    return raw


def _parses_or_refuses(raw) -> None:
    try:
        cfg = parse_config(raw)
    except ConfigError:
        return
    assert isinstance(cfg, ScenarioConfig)


@settings(max_examples=300)
@given(json_values)
def test_any_json_value_parses_or_is_refused(raw):
    _parses_or_refuses(raw)


@settings(max_examples=500)
@given(perturbed_scenarios())
def test_perturbed_committed_scenarios_parse_or_are_refused(raw):
    _parses_or_refuses(raw)


# A run's cost grows with the sizes, so they are drawn small here: any
# accepted size runs the same code.
SMALL_SIZES = st.one_of(st.integers(-2, 40), st.sampled_from(EDGES))
COMMANDS = (SWEEP, [*INVARIANCE, "0,5,25"])
# The sampled carrier of a phase this large rounds away; the loader refuses it.
HUGE_GRID_PHASE = copy.deepcopy(SCENARIOS["grid.json"])
HUGE_GRID_PHASE["packet_beta"]["phase"] = -1.5e308
HUGE_GRID_PHASE["geometry"]["l2_max"] = 1e308
# The loader passes the nominal carriers' plane-wave phases; the sampled
# centroids' d_omega * l2_max / c overflows, which realizing refuses.
SAMPLED_PHASE_OVERFLOW = copy.deepcopy(SCENARIOS["grid.json"])
SAMPLED_PHASE_OVERFLOW["packet_alpha"]["k0"] = 6
SAMPLED_PHASE_OVERFLOW["packet_beta"]["k0"] = 7
SAMPLED_PHASE_OVERFLOW["geometry"]["l2_max"] = 1.7976931348623157e308


@settings(max_examples=500, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(perturbed_scenarios(sizes=SMALL_SIZES))
@example(HUGE_GRID_PHASE)
@example(SAMPLED_PHASE_OVERFLOW)
def test_perturbed_committed_scenarios_run_or_exit_documented(simulate, raw):
    for argv in COMMANDS:
        record, out = simulate(make_case("drawn", None, argv, raw))  # any documented exit
        if record["exit"] == 0:
            rows = out.decode().splitlines()[1:]
            assert all(math.isfinite(float(v)) for row in rows for v in row.split(",")), argv
