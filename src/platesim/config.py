"""Scenario files: JSON schema, defaults, and load-time validation.

A scenario pins everything a run needs: the two candidate packets, the
plate amplitudes, detector geometry, the preparation phase, and (for the
sampled representation) the grid plus the invariance tolerances.  Keys
are rejected when unknown and validated in place; diagnostics carry the
dotted key path (``geometry.l2_max``) of the offending entry.

Two failure flavors map to distinct exit codes downstream: SchemaError
for structural problems (wrong type, missing or unknown key) and
InvariantError for well-formed values that violate a physical constraint
(non-unitary plate, inverted sweep range, packet that does not fit the
grid window).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .models import spatial_period
from .optics import BeamSplitter, balanced_splitter
from .packets import GaussianPacket, SpatialGrid

__all__ = [
    "ConfigError",
    "InvariantError",
    "ScenarioConfig",
    "SchemaError",
    "load_config",
    "parse_config",
]

REPRESENTATIONS = ("gaussian", "grid")

DEFAULT_L1 = 1.0
DEFAULT_L2_MIN = 1.0
DEFAULT_N_POINTS = 200
DEFAULT_C = 1.0
DEFAULT_ANALYTIC_TOL = 1e-12
DEFAULT_GRID_TOL = 1e-8
# Sweep span when the carriers coincide and no period exists to double.
FALLBACK_L2_SPAN = 10.0


class ConfigError(ValueError):
    """Invalid scenario file; ``key_path`` names the offending entry."""

    def __init__(self, key_path: str, message: str) -> None:
        self.key_path = key_path
        super().__init__(f"{key_path}: {message}" if key_path else message)


class SchemaError(ConfigError):
    """Structurally malformed scenario (type, missing key, unknown key)."""


class InvariantError(ConfigError):
    """Well-formed value that violates a physical constraint."""


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated scenario, defaults applied."""

    representation: str
    packet_alpha: GaussianPacket
    packet_beta: GaussianPacket
    splitter: BeamSplitter
    l1: float
    l2_min: float
    l2_max: float
    n_points: int
    c: float
    preparation_phi: float
    grid: SpatialGrid | None
    analytic_tol: float
    grid_tol: float

    def l2_values(self) -> np.ndarray:
        return np.linspace(self.l2_min, self.l2_max, self.n_points)

    def invariance_tol(self) -> float:
        """Deviation budget for the time-invariance report."""
        return self.grid_tol if self.representation == "grid" else self.analytic_tol


def _join(prefix: str, key: str) -> str:
    return f"{prefix}.{key}" if prefix else key


def _as_mapping(value: Any, key_path: str) -> Mapping[str, Any]:
    if not isinstance(value, dict):
        raise SchemaError(key_path, "expected an object")
    return value


def _check_keys(m: Mapping[str, Any], key_path: str, allowed: tuple[str, ...]) -> None:
    for key in m:
        if key not in allowed:
            raise SchemaError(_join(key_path, key), "unknown key")


def _as_float(value: Any, key_path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(key_path, "expected a number")
    out = float(value)
    if not math.isfinite(out):
        raise SchemaError(key_path, "expected a finite number")
    return out


def _as_int(value: Any, key_path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(key_path, "expected an integer")
    return value


def _get_float(m: Mapping[str, Any], key_path: str, key: str, default: float) -> float:
    if key not in m:
        return default
    return _as_float(m[key], _join(key_path, key))


def _require(m: Mapping[str, Any], key_path: str, key: str) -> Any:
    if key not in m:
        raise SchemaError(_join(key_path, key), "missing required key")
    return m[key]


def _positive(value: float, key_path: str) -> float:
    if value <= 0.0:
        raise InvariantError(key_path, "must be positive")
    return value


def _parse_packet(value: Any, key_path: str) -> GaussianPacket:
    m = _as_mapping(value, key_path)
    _check_keys(m, key_path, ("x0", "sigma", "k0", "phase"))
    x0 = _as_float(_require(m, key_path, "x0"), _join(key_path, "x0"))
    sigma = _as_float(_require(m, key_path, "sigma"), _join(key_path, "sigma"))
    k0 = _as_float(_require(m, key_path, "k0"), _join(key_path, "k0"))
    phase = _get_float(m, key_path, "phase", 0.0)
    try:
        return GaussianPacket(x0=x0, sigma=sigma, k0=k0, phase=phase)
    except ValueError as exc:
        raise InvariantError(key_path, str(exc)) from exc


def _parse_splitter(value: Any, key_path: str) -> BeamSplitter:
    m = _as_mapping(value, key_path)
    _check_keys(m, key_path, ("r_re", "r_im", "t_re", "t_im"))
    parts = {
        key: _as_float(_require(m, key_path, key), _join(key_path, key))
        for key in ("r_re", "r_im", "t_re", "t_im")
    }
    try:
        return BeamSplitter(
            r=complex(parts["r_re"], parts["r_im"]),
            t=complex(parts["t_re"], parts["t_im"]),
        )
    except ValueError as exc:
        raise InvariantError(key_path, str(exc)) from exc


def _parse_grid(value: Any, key_path: str) -> SpatialGrid:
    m = _as_mapping(value, key_path)
    _check_keys(m, key_path, ("x_min", "dx", "n"))
    x_min = _as_float(_require(m, key_path, "x_min"), _join(key_path, "x_min"))
    dx = _as_float(_require(m, key_path, "dx"), _join(key_path, "dx"))
    n = _as_int(_require(m, key_path, "n"), _join(key_path, "n"))
    try:
        return SpatialGrid(x_min=x_min, dx=dx, n=n)
    except ValueError as exc:
        raise InvariantError(key_path, str(exc)) from exc


def _check_grid_fit(grid: SpatialGrid, packet: GaussianPacket, key_path: str) -> None:
    """The sampled representation must hold the packet without clipping
    (8 sigma of room on both sides) or aliasing its carrier."""
    lo = packet.x0 - 8.0 * packet.sigma
    hi = packet.x0 + 8.0 * packet.sigma
    if lo < grid.x_min or hi > grid.x_end:
        raise InvariantError(
            key_path,
            f"packet support [{lo:g}, {hi:g}] (x0 +/- 8 sigma) does not fit "
            f"the grid window [{grid.x_min:g}, {grid.x_end:g}]",
        )
    k_max = math.pi / grid.dx
    k_need = packet.k0 + 4.0 / packet.sigma
    if k_need > k_max:
        raise InvariantError(
            key_path,
            f"carrier needs wavenumbers up to {k_need:g} but the grid "
            f"resolves only {k_max:g}; decrease dx",
        )


_TOP_KEYS = (
    "representation",
    "packet_alpha",
    "packet_beta",
    "splitter",
    "geometry",
    "preparation_phi",
    "grid",
    "tolerances",
)

_GEOMETRY_KEYS = ("l1", "l2_min", "l2_max", "n_points", "c")


def parse_config(raw: Any) -> ScenarioConfig:
    """Validate an already-parsed scenario object and apply defaults."""
    top = _as_mapping(raw, "")
    _check_keys(top, "", _TOP_KEYS)

    representation = top.get("representation", "gaussian")
    if representation not in REPRESENTATIONS:
        raise SchemaError(
            "representation", f"expected one of {REPRESENTATIONS}, got {representation!r}"
        )

    packet_alpha = _parse_packet(_require(top, "", "packet_alpha"), "packet_alpha")
    packet_beta = _parse_packet(_require(top, "", "packet_beta"), "packet_beta")

    if "splitter" in top:
        splitter = _parse_splitter(top["splitter"], "splitter")
    else:
        splitter = balanced_splitter()

    geometry = _as_mapping(top.get("geometry", {}), "geometry")
    _check_keys(geometry, "geometry", _GEOMETRY_KEYS)
    c = _positive(_get_float(geometry, "geometry", "c", DEFAULT_C), "geometry.c")
    # Both carriers are positive, so finite c * k0 also bounds c * (k0_a - k0_b).
    for name, packet in (("packet_alpha", packet_alpha), ("packet_beta", packet_beta)):
        if not math.isfinite(c * packet.k0):
            raise InvariantError(
                "geometry.c", f"carrier frequency c * {name}.k0 is not finite"
            )
    l1 = _positive(_get_float(geometry, "geometry", "l1", DEFAULT_L1), "geometry.l1")
    l2_min = _positive(
        _get_float(geometry, "geometry", "l2_min", DEFAULT_L2_MIN), "geometry.l2_min"
    )
    if "l2_max" in geometry:
        l2_max = _as_float(geometry["l2_max"], "geometry.l2_max")
    else:
        # Default sweep: two full periods of the plane-wave artifact.
        period = spatial_period(c * (packet_alpha.k0 - packet_beta.k0), c)
        span = FALLBACK_L2_SPAN if math.isinf(period) else 2.0 * period
        l2_max = l2_min + span
    _positive(l2_max, "geometry.l2_max")
    if l2_min > l2_max:
        raise InvariantError("geometry.l2_max", "must be >= l2_min")
    for name, length in (("l1", l1), ("l2_min", l2_min), ("l2_max", l2_max)):
        if not math.isfinite(length / c):
            raise InvariantError("geometry.c", f"flight time {name} / c is not finite")
    # The sweep's plane-wave phases are d_omega * l / c for l in [l1, l2_max].
    d_omega = c * packet_alpha.k0 - c * packet_beta.k0
    for name, length in (("l1", l1), ("l2_max", l2_max)):
        if not math.isfinite(d_omega * (length / c)):
            raise InvariantError(
                f"geometry.{name}", f"plane-wave phase d_omega * {name} / c is not finite"
            )
    if "n_points" in geometry:
        n_points = _as_int(geometry["n_points"], "geometry.n_points")
    else:
        n_points = DEFAULT_N_POINTS
    if n_points < 1:
        raise InvariantError("geometry.n_points", "must be >= 1")

    preparation_phi = _get_float(top, "", "preparation_phi", 0.0)

    tolerances = _as_mapping(top.get("tolerances", {}), "tolerances")
    _check_keys(tolerances, "tolerances", ("analytic_tol", "grid_tol"))
    analytic_tol = _positive(
        _get_float(tolerances, "tolerances", "analytic_tol", DEFAULT_ANALYTIC_TOL),
        "tolerances.analytic_tol",
    )
    grid_tol = _positive(
        _get_float(tolerances, "tolerances", "grid_tol", DEFAULT_GRID_TOL),
        "tolerances.grid_tol",
    )

    grid: SpatialGrid | None = None
    if "grid" in top:
        grid = _parse_grid(top["grid"], "grid")
    if representation == "grid":
        if grid is None:
            raise SchemaError("grid", "required when representation is 'grid'")
        _check_grid_fit(grid, packet_alpha, "grid")
        _check_grid_fit(grid, packet_beta, "grid")

    return ScenarioConfig(
        representation=representation,
        packet_alpha=packet_alpha,
        packet_beta=packet_beta,
        splitter=splitter,
        l1=l1,
        l2_min=l2_min,
        l2_max=l2_max,
        n_points=n_points,
        c=c,
        preparation_phi=preparation_phi,
        grid=grid,
        analytic_tol=analytic_tol,
        grid_tol=grid_tol,
    )


def load_config(path: str | Path) -> ScenarioConfig:
    """Read and validate a scenario file.

    Raises FileNotFoundError for a missing file, SchemaError for
    malformed JSON or structure, InvariantError for constraint
    violations.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("", f"not valid JSON: {exc}") from exc
    return parse_config(raw)
