"""Scenario parsing: defaults, schema rejection, invariant rejection."""

from __future__ import annotations

import ast
import json
import math
from pathlib import Path

import pytest

from platesim import (
    InvariantError,
    SchemaError,
    balanced_splitter,
    load_config,
    parse_config,
)
from platesim.config import MAX_GRID_N, MAX_N_POINTS

CONFIG_PY = Path(__file__).resolve().parents[1] / "src" / "platesim" / "config.py"

MINIMAL = {
    "packet_alpha": {"x0": 0.0, "sigma": 1.0, "k0": 12.0},
    "packet_beta": {"x0": 0.0, "sigma": 1.0, "k0": 12.8},
}


def _scenario(**overrides):
    raw = json.loads(json.dumps(MINIMAL))
    raw.update(overrides)
    return raw


def test_minimal_config_gets_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.representation == "gaussian"
    assert cfg.c == 1.0
    assert cfg.preparation_phi == 0.0
    assert cfg.splitter == balanced_splitter()
    assert cfg.n_points == 200
    assert cfg.l1 == 1.0
    assert cfg.l2_min == 1.0
    # default sweep spans two periods of the plane-wave artifact
    assert cfg.l2_max == pytest.approx(1.0 + 2.0 * 2.0 * math.pi / 0.8)
    assert cfg.analytic_tol == 1e-12
    assert cfg.grid_tol == 1e-8
    assert cfg.grid is None
    assert len(cfg.l2_values()) == 200
    assert cfg.invariance_tol() == 1e-12


def test_degenerate_carriers_fall_back_to_fixed_span():
    raw = _scenario()
    raw["packet_beta"]["k0"] = 12.0
    cfg = parse_config(raw)
    assert cfg.l2_max == pytest.approx(cfg.l2_min + 10.0)


def test_unknown_top_level_key_rejected():
    with pytest.raises(SchemaError, match="bogus"):
        parse_config(_scenario(bogus=1))


def test_unknown_nested_key_rejected():
    with pytest.raises(SchemaError, match="geometry.tilt"):
        parse_config(_scenario(geometry={"tilt": 0.4}))


def test_missing_packet_rejected():
    raw = _scenario()
    del raw["packet_beta"]
    with pytest.raises(SchemaError, match="packet_beta"):
        parse_config(raw)


def test_missing_packet_field_rejected():
    raw = _scenario()
    del raw["packet_alpha"]["sigma"]
    with pytest.raises(SchemaError, match="packet_alpha.sigma"):
        parse_config(raw)


def test_wrong_type_rejected():
    raw = _scenario()
    raw["packet_alpha"]["sigma"] = "wide"
    with pytest.raises(SchemaError, match="packet_alpha.sigma"):
        parse_config(raw)


def test_bool_is_not_a_number():
    raw = _scenario()
    raw["packet_alpha"]["x0"] = True
    with pytest.raises(SchemaError, match="packet_alpha.x0"):
        parse_config(raw)


def test_non_object_config_rejected():
    with pytest.raises(SchemaError):
        parse_config([1, 2, 3])


def test_unknown_representation_rejected():
    with pytest.raises(SchemaError, match="representation"):
        parse_config(_scenario(representation="matrix"))


def test_lossy_splitter_rejected():
    bad = {"r_re": 0.7, "r_im": 0.0, "t_re": 0.6, "t_im": 0.0}  # budget 0.85
    with pytest.raises(InvariantError, match="splitter"):
        parse_config(_scenario(splitter=bad))


def test_nonpositive_sigma_rejected():
    raw = _scenario()
    raw["packet_alpha"]["sigma"] = -1.0
    with pytest.raises(InvariantError, match="packet_alpha"):
        parse_config(raw)


@pytest.mark.parametrize("packet", ["packet_alpha", "packet_beta"])
@pytest.mark.parametrize("sigma, k0", [(1e-300, 1e301), (1e200, 12.0)])
def test_sigma_whose_square_is_not_finite_rejected(packet, sigma, k0):
    raw = _scenario(**{packet: {"x0": 0.0, "sigma": sigma, "k0": k0}})
    with pytest.raises(InvariantError, match=f"{packet}: sigma \\* sigma"):
        parse_config(raw)


def test_slow_carrier_rejected():
    raw = _scenario()
    raw["packet_alpha"]["k0"] = 2.0  # k0 * sigma < 4
    with pytest.raises(InvariantError, match="packet_alpha"):
        parse_config(raw)


def test_inverted_sweep_range_rejected():
    with pytest.raises(InvariantError, match="geometry.l2_max"):
        parse_config(_scenario(geometry={"l2_min": 5.0, "l2_max": 2.0}))


@pytest.mark.parametrize(
    "geometry, length",
    [
        ({"c": 1e-320}, "l1"),
        ({"c": 1e-300, "l1": 1e10}, "l1"),
        ({"c": 1e-300, "l1": 1e-10, "l2_min": 1e10, "l2_max": 2e10}, "l2_min"),
        ({"c": 1e-10, "l2_max": 1e300}, "l2_max"),
    ],
)
def test_non_finite_flight_time_rejected(geometry, length):
    with pytest.raises(InvariantError, match=f"geometry.c: flight time {length} / c"):
        parse_config(_scenario(geometry=geometry))


@pytest.mark.parametrize(
    "overrides, name",
    [
        ({"geometry": {"c": 1e308}}, "packet_alpha"),
        (
            {
                "geometry": {"c": 1e10},
                "packet_beta": {"x0": 0.0, "sigma": 1.0, "k0": 1e300},
            },
            "packet_beta",
        ),
    ],
)
def test_non_finite_carrier_frequency_rejected(overrides, name):
    match = f"geometry.c: carrier frequency c \\* {name}.k0"
    with pytest.raises(InvariantError, match=match):
        parse_config(_scenario(**overrides))


@pytest.mark.parametrize("length", ["l1", "l2_max"])
def test_non_finite_plane_wave_phase_rejected(length):
    # Every flight time and carrier is finite, but d_omega * l / c is not.
    raw = _scenario(geometry={length: 1e308})
    raw["packet_beta"]["k0"] = 100.0
    match = f"geometry.{length}: plane-wave phase d_omega \\* {length} / c"
    with pytest.raises(InvariantError, match=match):
        parse_config(raw)


# Non-finite closed forms: a packet so narrow that 4 * (1/(2 sigma^2)) is
# inf, centers so far apart that their separation is inf, and two packets
# so wide that both 1/(2 sigma^2) are 0.
NARROW = {"x0": 0.0, "sigma": 1e-154, "k0": 1e155}


@pytest.mark.parametrize(
    "alpha, beta, narrower",
    [
        (NARROW, MINIMAL["packet_beta"], "packet_alpha"),
        (MINIMAL["packet_alpha"], NARROW, "packet_beta"),
        (
            {"x0": -1e308, "sigma": 1.0, "k0": 12.0},
            {"x0": 1e308, "sigma": 1.0, "k0": 12.8},
            "packet_alpha",
        ),
        (
            {"x0": 0.0, "sigma": 1e154, "k0": 1.0},
            {"x0": 0.0, "sigma": 1e154, "k0": 1.1},
            "packet_alpha",
        ),
    ],
    ids=["narrow-alpha", "narrow-beta", "far-apart", "both-wide"],
)
def test_non_finite_closed_form_overlap_rejected(alpha, beta, narrower):
    match = f"^{narrower}: closed-form overlap <packet_alpha\\|packet_beta> is not finite$"
    with pytest.raises(InvariantError, match=match):
        parse_config(_scenario(packet_alpha=alpha, packet_beta=beta))


def test_phase_difference_beyond_double_range_rejected():
    # Each phase is finite, their difference is not: the closed form's
    # exponent has no value.
    raw = _scenario()
    raw["packet_alpha"]["phase"] = 1e308
    raw["packet_beta"]["phase"] = -1e308
    match = "^packet_beta.phase: phase difference .* is not finite$"
    with pytest.raises(InvariantError, match=match):
        parse_config(raw)


GRID = {"x_min": -40.0, "dx": 0.0625, "n": 4096}


# A grid samples k0 * (x - x0) + phase, so a huge phase rounds the carrier
# away; the Gaussian closed form takes any finite phase.
@pytest.mark.parametrize("packet", ["packet_alpha", "packet_beta"])
@pytest.mark.parametrize("phase", [2.0**20 + 1.0, -1.5e308])
def test_grid_phase_above_two_to_the_twenty_rejected(packet, phase):
    raw = _scenario(representation="grid", grid=GRID)
    raw[packet]["phase"] = phase
    with pytest.raises(InvariantError, match=f"^{packet}.phase: must be at most 1048576 "):
        parse_config(raw)
    raw["representation"] = "gaussian"
    assert parse_config(raw).representation == "gaussian"


@pytest.mark.parametrize("phase", [2**20, -(2**20)])
def test_grid_phase_of_two_to_the_twenty_loads(phase):
    raw = _scenario(representation="grid", grid=GRID)
    raw["packet_beta"]["phase"] = phase
    assert parse_config(raw).packet_beta.phase == phase


# The loader checks the nominal carriers (d_omega = -1.0); a grid run
# uses the sampled spectral centroids, whose d_omega * l2_max / c overflows.
def test_grid_realization_rechecks_the_sampled_carriers(tmp_path):
    raw = _scenario(representation="grid", grid=GRID)
    raw["packet_alpha"]["k0"] = 6.0
    raw["packet_beta"]["k0"] = 7.0
    raw["geometry"] = {"l2_max": 1.7976931348623157e308}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    cfg = load_config(path)
    with pytest.raises(InvariantError, match="plane-wave phase d_omega") as info:
        cfg.realize_packets()
    assert info.value.key_path == "geometry.l2_max"


def _sized(section: str, key: str, value: int) -> dict:
    grid = {"x_min": -40.0, "dx": 0.0625, "n": 4096}
    raw = _scenario(representation="grid", grid=grid, geometry={})
    raw[section][key] = value
    return raw


SIZES = [("geometry", "n_points", MAX_N_POINTS), ("grid", "n", MAX_GRID_N)]


@pytest.mark.parametrize("section, key, ceiling", SIZES)
def test_size_ceiling_is_refused_just_above(section, key, ceiling):
    assert parse_config(_sized(section, key, ceiling))  # nothing is allocated
    for value in (ceiling + 1, 10**12, 2**40):
        with pytest.raises(InvariantError, match=f"^{section}.{key}: must be at most {ceiling} "):
            parse_config(_sized(section, key, value))


@pytest.mark.parametrize(
    "alpha",
    [{"x0": 0.0, "sigma": 1e-150, "k0": 1e151}, {"x0": 0.0, "sigma": 1.0, "k0": 1e308}],
)
def test_vanishing_default_sweep_span_rejected(alpha):
    # Two periods of the plane-wave artifact are below the spacing of
    # doubles at l2_min, so every default sweep row would have l2 = l2_min.
    with pytest.raises(InvariantError, match="^geometry.l2_max: .*set geometry.l2_max$"):
        parse_config(_scenario(packet_alpha=alpha))
    # An explicit single-point range stays valid.
    geometry = {"l2_min": 1.0, "l2_max": 1.0}
    cfg = parse_config(_scenario(packet_alpha=alpha, geometry=geometry))
    assert cfg.l2_max == cfg.l2_min


# Scenarios that break two rules: the loader reports the earlier one, so
# the order of the rules decides the stderr line and the key path.
ORDER_BETA = {"x0": 0.5, "sigma": 1.2, "k0": 12.8}
NYQUIST_GRID = {"x_min": -40.0, "dx": 0.5, "n": 512}  # resolves k up to 2 pi


@pytest.mark.parametrize(
    "overrides, key_path, message",
    [
        (
            {"geometry": {"c": 1e-320, "l2_min": 5.0, "l2_max": 1.0}},
            "geometry.l2_max",
            "must be >= l2_min",
        ),
        (
            {"packet_alpha": NARROW, "geometry": {"c": 1e-320}},
            "geometry.c",
            "flight time l1 / c is not finite",
        ),
        (
            {
                "representation": "grid",
                "grid": NYQUIST_GRID,
                "packet_alpha": {"x0": -39.0, "sigma": 1.0, "k0": 12.0},
            },
            "grid",
            "packet support [-47, -31] (x0 +/- 8 sigma) does not fit the grid window [-40, 216]",
        ),
        (
            {
                "representation": "grid",
                "grid": NYQUIST_GRID,
                "packet_beta": {"x0": 210.0, "sigma": 1.2, "k0": 12.8},
            },
            "grid",
            "carrier needs wavenumbers up to 16 but the grid resolves only 6.28319; decrease dx",
        ),
    ],
    ids=[
        "inverted-range-before-flight-time",
        "flight-time-before-closed-form",
        "alpha-support-before-alpha-nyquist",
        "alpha-nyquist-before-beta-support",
    ],
)
def test_first_broken_rule_in_check_order_is_reported(overrides, key_path, message):
    raw = _scenario(packet_beta=ORDER_BETA)
    raw.update(overrides)
    with pytest.raises(InvariantError) as info:
        parse_config(raw)
    assert (info.value.key_path, str(info.value)) == (key_path, f"{key_path}: {message}")


@pytest.mark.parametrize("section, key", [("packet_alpha", "x0"), ("grid", "n")])
@pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["1e400", "-1e400"])
def test_integer_beyond_double_range_rejected(section, key, value):
    raw = _scenario(
        representation="grid", grid={"x_min": -40.0, "dx": 0.0625, "n": 4096}
    )
    raw[section][key] = value
    match = f"^{section}.{key}: expected a finite number$"
    with pytest.raises(SchemaError, match=match):
        parse_config(raw)


@pytest.mark.parametrize(
    "splitter",
    [
        {"r_re": 0.0, "r_im": 0.0, "t_re": 0.0, "t_im": 1e155},
        {"r_re": 1e308, "r_im": 1e308, "t_re": 0.0, "t_im": 0.0},
    ],
)
def test_oversized_plate_amplitude_rejected(splitter):
    match = "^splitter: non-unitary plate: .* off by inf$"
    with pytest.raises(InvariantError, match=match):
        parse_config(_scenario(splitter=splitter))


@pytest.mark.parametrize(
    "geometry",
    [
        {"l1": 0.0},
        {"l2_min": -1.0},
        {"c": 0.0},
        {"n_points": 0},
    ],
)
def test_nonpositive_geometry_rejected(geometry):
    with pytest.raises(InvariantError):
        parse_config(_scenario(geometry=geometry))


def test_n_points_must_be_integer():
    with pytest.raises(SchemaError, match="geometry.n_points"):
        parse_config(_scenario(geometry={"n_points": 2.5}))


def test_grid_section_required_for_grid_representation():
    with pytest.raises(SchemaError, match="grid"):
        parse_config(_scenario(representation="grid"))


def test_grid_representation_parses():
    cfg = parse_config(
        _scenario(
            representation="grid", grid={"x_min": -40.0, "dx": 0.0625, "n": 4096}
        )
    )
    assert cfg.grid is not None
    assert cfg.grid.n == 4096
    assert cfg.invariance_tol() == cfg.grid_tol


def test_grid_window_must_hold_packets():
    with pytest.raises(InvariantError, match="does not fit"):
        parse_config(
            _scenario(
                representation="grid", grid={"x_min": -2.0, "dx": 0.0625, "n": 64}
            )
        )


def test_grid_spacing_must_resolve_carrier():
    with pytest.raises(InvariantError, match="decrease dx"):
        parse_config(
            _scenario(
                representation="grid", grid={"x_min": -40.0, "dx": 0.5, "n": 512}
            )
        )


def test_grid_invariants_checked():
    with pytest.raises(InvariantError, match="grid"):
        parse_config(
            _scenario(
                representation="grid", grid={"x_min": -40.0, "dx": -1.0, "n": 4096}
            )
        )


def test_tolerances_override():
    cfg = parse_config(_scenario(tolerances={"analytic_tol": 1e-10, "grid_tol": 1e-6}))
    assert cfg.analytic_tol == 1e-10
    assert cfg.grid_tol == 1e-6


def test_nonpositive_tolerance_rejected():
    with pytest.raises(InvariantError, match="tolerances.grid_tol"):
        parse_config(_scenario(tolerances={"grid_tol": 0.0}))


def test_n_points_one_yields_single_value():
    cfg = parse_config(_scenario(geometry={"n_points": 1}))
    assert list(cfg.l2_values()) == [cfg.l2_min]


def test_explicit_splitter_accepted():
    s = math.sqrt(0.5)
    cfg = parse_config(
        _scenario(splitter={"r_re": s, "r_im": 0.0, "t_re": 0.0, "t_im": -s})
    )
    assert cfg.splitter.t == complex(0.0, -s)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "nope.json")


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError, match="JSON"):
        load_config(path)


@pytest.mark.parametrize(
    "data",
    [
        b'{"packet_alpha": {"x0": 1' + b"0" * 5000 + b"}}",  # past int's digit limit
        b"[" * 100_000,  # nested past the recursion limit
        b'{"representation": "\xff"}',  # not UTF-8
    ],
    ids=["long-integer", "deep-nesting", "not-utf8"],
)
def test_load_config_unreadable_json(tmp_path, data):
    path = tmp_path / "scenario.json"
    path.write_bytes(data)
    with pytest.raises(SchemaError, match="^not valid JSON: "):
        load_config(path)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(MINIMAL), encoding="utf-8")
    assert load_config(path) == parse_config(MINIMAL)


def _invariant_raise_sites(node: ast.AST, functions: tuple = ()):
    """The top-level function around each ``raise InvariantError`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = (*functions, child.name) if isinstance(child, ast.FunctionDef) else functions
        if isinstance(child, ast.Raise):
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(exc, ast.Name) and exc.id == "InvariantError":
                yield inner[0] if inner else "<module>"
        yield from _invariant_raise_sites(child, inner)


def test_invariant_errors_are_raised_in_two_places():
    # A record constructor's ValueError, converted by the section reader,
    # and the first rule row that does not hold; every other refusal is a row.
    tree = ast.parse(CONFIG_PY.read_text(encoding="utf-8"))
    assert sorted(_invariant_raise_sites(tree)) == ["_refuse_first", "_section"]
