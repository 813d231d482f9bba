"""Scenario files: JSON schema, defaults, and load-time validation.

A scenario pins everything a run needs: the two candidate packets, the
plate amplitudes, detector geometry, the preparation phase, and (for the
sampled representation) the grid plus the invariance tolerances.  Keys
are rejected when unknown and validated in place; diagnostics carry the
dotted key path (``geometry.l2_max``) of the offending entry.

Two failure flavors map to distinct exit codes downstream: SchemaError
for structural problems (wrong type, missing or unknown key) and
InvariantError for well-formed values that violate a physical constraint
(non-unitary plate, inverted sweep range, a size above its memory ceiling,
packet that does not fit the grid window).  Loading needs only the
standard library, also for a grid scenario: numpy is first imported when
``ScenarioConfig.realize_packets`` samples the packets onto the grid.
"""

from __future__ import annotations

import cmath
import json
import math
from array import array
from pathlib import Path
from typing import Any, Callable, Mapping

from .models import spatial_period
from .optics import BeamSplitter, balanced_splitter
from .packets import GaussianPacket, Packet, SpatialGrid, _Record, inner_product

__all__ = [
    "ConfigError", "InvariantError", "ScenarioConfig", "SchemaError", "load_config",
    "parse_config",
]

REPRESENTATIONS = ("gaussian", "grid")

# Sweep span when the carriers coincide and no period exists to double.
FALLBACK_L2_SPAN = 10.0

# Size ceilings: each size may take half of a 1 GiB peak, so a grid sweep
# at both stays under it.  Per-unit costs are twice what test_memory.py
# measures, rounded up to a power of 2: about 95 bytes a sweep row (it
# bounds run_sweep at 147 at 200k rows) and about 340 bytes a grid sample
# (it bounds runs on the committed grid at GRID_SAMPLE_BYTES / 2).
SWEEP_ROW_BYTES = 256
GRID_SAMPLE_BYTES = 1024
MAX_N_POINTS = 2**29 // SWEEP_ROW_BYTES  # 2,097,152 rows
MAX_GRID_N = 2**29 // GRID_SAMPLE_BYTES  # 524,288 samples

# A grid samples k0 * (x - x0) + phase, which keeps the carrier to 2**-32
# rad up to this |phase| and loses it far above.  A larger phase is refused:
# reduced modulo 2 pi it would give another overlap than the closed form.
MAX_GRID_PHASE = 2**20


class ConfigError(ValueError):
    """Invalid scenario file; ``key_path`` names the offending entry."""

    def __init__(self, key_path: str, message: str) -> None:
        self.key_path = key_path
        super().__init__(f"{key_path}: {message}" if key_path else message)


class SchemaError(ConfigError):
    """Structurally malformed scenario (type, missing key, unknown key)."""


class InvariantError(ConfigError):
    """Well-formed value that violates a physical constraint."""


class ScenarioConfig(_Record):
    """A fully validated scenario, defaults applied."""

    def __init__(
        self, representation: str, packet_alpha: GaussianPacket, packet_beta: GaussianPacket,
        splitter: BeamSplitter, l1: float, l2_min: float, l2_max: float, n_points: int,
        c: float, preparation_phi: float, grid: SpatialGrid | None, analytic_tol: float,
        grid_tol: float,
    ) -> None:
        self.__dict__.update(
            representation=representation, packet_alpha=packet_alpha, packet_beta=packet_beta,
            splitter=splitter, l1=l1, l2_min=l2_min, l2_max=l2_max, n_points=n_points, c=c,
            preparation_phi=preparation_phi, grid=grid, analytic_tol=analytic_tol,
            grid_tol=grid_tol,
        )

    def l2_values(self) -> array:
        """``numpy.linspace(l2_min, l2_max, n_points)``, bit for bit."""
        start, stop, n = self.l2_min, self.l2_max, self.n_points
        div, delta = n - 1, stop - start
        if div <= 0:  # no step: n is 0 or 1
            return array("d", [0.0 * delta + start]) * n
        step = delta / div
        # Where the step underflows to 0, numpy divides before multiplying.
        values = array("d", ((i * step if step else i / div * delta) + start for i in range(n)))
        values[-1] = stop
        return values

    def invariance_tol(self) -> float:
        """Deviation budget for the time-invariance report."""
        return self.grid_tol if self.representation == "grid" else self.analytic_tol

    def realize_packets(self) -> tuple[Packet, Packet, float, float]:
        """Realize the two candidate packets in the configured representation.

        Returns (alpha, beta, k_alpha, k_beta); sampled packets are
        renormalized on the grid and report their carrier via the spectral
        centroid, which is checked as parse_config checks the nominal k0.
        Loading never calls this, so it pays no grid sampling.
        """
        alpha, beta = self.packet_alpha, self.packet_beta
        if self.representation == "grid":
            assert self.grid is not None  # parse_config enforces this
            from .sampled import normalize, sample, spectral_centroid

            alpha = normalize(sample(alpha, self.grid))
            beta = normalize(sample(beta, self.grid))
            k_alpha, k_beta = spectral_centroid(alpha), spectral_centroid(beta)
            _check_flight(self.c, self.l1, self.l2_min, self.l2_max, k_alpha, k_beta)
            return alpha, beta, k_alpha, k_beta
        return alpha, beta, alpha.k0, beta.k0


def _join(prefix: str, key: str) -> str:
    return f"{prefix}.{key}" if prefix else key


def _as_float(value: Any, key_path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(key_path, "expected a number")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the double range
        out = math.inf
    if not math.isfinite(out):
        raise SchemaError(key_path, "expected a finite number")
    return out


def _as_int(value: Any, key_path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(key_path, "expected an integer")
    _as_float(value, key_path)  # refuses an integer beyond the double range
    return value


def _positive(read: Callable, ceiling: float = math.inf) -> Callable:
    """``read``, then refuse a value that is not positive or above ``ceiling``."""

    def read_positive(value: Any, key_path: str) -> Any:
        out = read(value, key_path)
        if out <= 0:
            raise InvariantError(key_path, "must be positive")
        if out > ceiling:
            raise InvariantError(key_path, f"must be at most {ceiling} (1 GiB memory budget)")
        return out

    return read_positive


def _as_representation(value: Any, key_path: str) -> str:
    if value not in REPRESENTATIONS:
        raise SchemaError(key_path, f"expected one of {REPRESENTATIONS}, got {value!r}")
    return value


_REQUIRED = object()  # the default of a key that must be present


def _section(fields: Mapping[str, tuple], build: Callable = dict) -> Callable:
    """Reader of an object through a field table ``{key: (reader, default)}``.

    Unknown keys are refused.  A missing key is refused if its default is
    _REQUIRED, is None if its default is None, and otherwise takes its
    default, read like a given value.  The values go to ``build`` as
    keywords; a ValueError from ``build`` becomes InvariantError at the
    object's key path.
    """

    def read(value: Any, key_path: str) -> Any:
        if not isinstance(value, dict):
            raise SchemaError(key_path, "expected an object")
        for key in value:
            if key not in fields:
                raise SchemaError(_join(key_path, key), "unknown key")
        kwargs = {}
        for key, (reader, default) in fields.items():
            path = _join(key_path, key)
            if key in value:
                kwargs[key] = reader(value[key], path)
            elif default is _REQUIRED:
                raise SchemaError(path, "missing required key")
            else:
                kwargs[key] = None if default is None else reader(default, path)
        try:
            return build(**kwargs)
        except ValueError as exc:
            raise InvariantError(key_path, str(exc)) from exc

    return read


_POSITIVE_FLOAT = _positive(_as_float)
_PACKET = _section(
    {
        "x0": (_as_float, _REQUIRED),
        "sigma": (_as_float, _REQUIRED),
        "k0": (_as_float, _REQUIRED),
        "phase": (_as_float, 0.0),
    },
    GaussianPacket,
)
_SPLITTER = _section(
    {key: (_as_float, _REQUIRED) for key in ("r_re", "r_im", "t_re", "t_im")},
    lambda r_re, r_im, t_re, t_im: BeamSplitter(complex(r_re, r_im), complex(t_re, t_im)),
)
_GEOMETRY = _section(
    {
        "l1": (_POSITIVE_FLOAT, 1.0),
        "l2_min": (_POSITIVE_FLOAT, 1.0),
        "l2_max": (_POSITIVE_FLOAT, None),  # None: derived in parse_config
        "n_points": (_positive(_as_int, MAX_N_POINTS), 200),
        "c": (_POSITIVE_FLOAT, 1.0),
    }
)
_GRID = _section(
    {
        "x_min": (_as_float, _REQUIRED),
        "dx": (_as_float, _REQUIRED),
        "n": (_positive(_as_int, MAX_GRID_N), _REQUIRED),
    },
    SpatialGrid,
)
_TOLERANCES = _section(
    {"analytic_tol": (_POSITIVE_FLOAT, 1e-12), "grid_tol": (_POSITIVE_FLOAT, 1e-8)}
)
_SCENARIO = _section(
    {
        "representation": (_as_representation, "gaussian"),
        "packet_alpha": (_PACKET, _REQUIRED),
        "packet_beta": (_PACKET, _REQUIRED),
        "splitter": (_SPLITTER, None),
        "geometry": (_GEOMETRY, {}),
        "preparation_phi": (_as_float, 0.0),
        "grid": (_GRID, None),
        "tolerances": (_TOLERANCES, {}),
    }
)


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


def _check_flight(
    c: float, l1: float, l2_min: float, l2_max: float, k_alpha: float, k_beta: float
) -> None:
    """Refuse a run whose carrier frequencies c * k, flight times l / c or
    plane-wave phases d_omega * l / c for l in [l1, l2_max] are not finite.
    For positive carriers, finite c * k_alpha and c * k_beta also bound
    d_omega, their difference.  Messages say k0 also for a sampled centroid."""
    d_omega = c * k_alpha - c * k_beta
    t1, t2 = l1 / c, l2_max / c
    for key_path, message, value in (
        ("geometry.c", "carrier frequency c * packet_alpha.k0 is not finite", c * k_alpha),
        ("geometry.c", "carrier frequency c * packet_beta.k0 is not finite", c * k_beta),
        ("geometry.c", "flight time l1 / c is not finite", t1),
        ("geometry.c", "flight time l2_min / c is not finite", l2_min / c),
        ("geometry.c", "flight time l2_max / c is not finite", t2),
        ("geometry.l1", "plane-wave phase d_omega * l1 / c is not finite", d_omega * t1),
        ("geometry.l2_max", "plane-wave phase d_omega * l2_max / c is not finite", d_omega * t2),
    ):
        if not math.isfinite(value):
            raise InvariantError(key_path, message)


def parse_config(raw: Any) -> ScenarioConfig:
    """Validate an already-parsed scenario object and apply defaults."""
    top = _SCENARIO(raw, "")
    alpha, beta, geometry = top["packet_alpha"], top["packet_beta"], top["geometry"]
    c, l1, l2_min, l2_max = (geometry[key] for key in ("c", "l1", "l2_min", "l2_max"))
    default_l2_max = l2_max is None
    if default_l2_max:
        # Default sweep: two full periods of the plane-wave artifact.
        period = spatial_period(c * (alpha.k0 - beta.k0), c)
        span = FALLBACK_L2_SPAN if math.isinf(period) else 2.0 * period
        l2_max = geometry["l2_max"] = l2_min + span
    elif l2_min > l2_max:
        raise InvariantError("geometry.l2_max", "must be >= l2_min")

    _check_flight(c, l1, l2_min, l2_max, alpha.k0, beta.k0)
    # The other derived numbers a run needs, as (key path, message, holds),
    # in check order.
    ok = cmath.isfinite
    narrower = "packet_alpha" if alpha.sigma <= beta.sigma else "packet_beta"
    gaussian = top["representation"] == "gaussian"
    for key_path, message, holds in (
        (
            "packet_beta.phase",
            "phase difference packet_beta.phase - packet_alpha.phase is not finite",
            not gaussian or ok(beta.phase - alpha.phase),
        ),
        *(
            (f"{key}.phase", f"must be at most {MAX_GRID_PHASE} in magnitude on a grid",
             gaussian or abs(packet.phase) <= MAX_GRID_PHASE)
            for key, packet in (("packet_alpha", alpha), ("packet_beta", beta))
        ),
        (
            narrower,
            "closed-form overlap <packet_alpha|packet_beta> is not finite",
            not gaussian or ok(inner_product(alpha, beta)),
        ),
        (
            "geometry.l2_max",
            "default l2_min + 2 * period rounds to l2_min; set geometry.l2_max",
            not default_l2_max or l2_max > l2_min,
        ),
    ):
        if not holds:
            raise InvariantError(key_path, message)

    grid = top["grid"]
    if not gaussian:
        if grid is None:
            raise SchemaError("grid", "required when representation is 'grid'")
        _check_grid_fit(grid, alpha, "grid")
        _check_grid_fit(grid, beta, "grid")

    return ScenarioConfig(
        representation=top["representation"], packet_alpha=alpha, packet_beta=beta,
        splitter=top["splitter"] or balanced_splitter(), preparation_phi=top["preparation_phi"],
        grid=grid, **geometry, **top["tolerances"],
    )


def load_config(path: str | Path) -> ScenarioConfig:
    """Read and validate a scenario file.

    Raises OSError for a file that cannot be read (FileNotFoundError
    if missing), SchemaError for malformed JSON or structure,
    InvariantError for constraint violations.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        # Bad JSON, bytes that are not UTF-8, an integer longer than
        # Python's digit limit, or nesting deeper than the recursion limit.
        raise SchemaError("", f"not valid JSON: {exc}") from exc
    return parse_config(raw)
