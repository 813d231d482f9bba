"""Each of the library's refusals, and where each of its rules is spelled.
The library's rule for numeric arguments is a Hypothesis property in
``test_properties.py``, so that this module runs without Hypothesis.

A table: ``REFUSALS`` holds each documented refusal that only the library
raises, one row an id, ``(call, exception class, whole message)``, and one
test checks the exact class and the whole message of every row; a row's
comment says what the refusal prevents.  The loader's refusals are the contract
cases of ``tools/cli_parity.py::_refusals()`` instead.
A lint: ``ONE_PLACE`` maps each rule the library spells in one place to a
matcher of AST nodes and the (module, top-level function) pairs that may
hold a match.  Over ``src/platesim/*.py``, the matches must sit in exactly
those functions, each defined once.  The rules: a ``must be finite`` or
``must be positive`` refusal, spelled only in the two helpers of
:mod:`platesim.packets`; the carrier detuning, a difference of two carriers
scaled by ``c`` or of two frequencies, spelled only in ``carrier_detuning``
(``c * (k_alpha - k_beta)`` rounds otherwise than the rows'
``c * k_alpha - c * k_beta``); and ``raise InvariantError``, spelled only in
the loader's section reader and rule loop.  Allowing a new helper is one row.
"""

from __future__ import annotations

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import WIDE_GRID
from platesim import (
    DegeneratePreparationError,
    ExperimentGeometry,
    GaussianPacket,
    Preparation,
    SpatialGrid,
    balanced_splitter,
    derive_plane_wave_model,
    plane_wave_epsilon,
    propagate,
    split,
    sweep_d2,
)
from platesim.models import PlaneWaveModel, carrier_detuning, counting_rate_d1, spatial_period
from platesim.optics import BeamSplitter, TwoArmState
from platesim.packets import ScaledGaussian, WraparoundError, inner_product, norm2, scale
from platesim.sampled import GridPacket, fits_after, normalize, sample, spectral_centroid

SRC = Path(__file__).resolve().parents[1] / "src" / "platesim"

# Packets, states, a model and a grid that the refusals below read.
ALPHA = GaussianPacket(0.0, 1.0, 12.0)
BETA = GaussianPacket(0.0, 1.0, 12.8)
SA, SB = split(ALPHA, balanced_splitter()), split(BETA, balanced_splitter())
MODEL = derive_plane_wave_model(SA, SB, ALPHA.k0, BETA.k0)
G = GaussianPacket(0.0, 1.0, 10.0)
GRID_G = sample(G, WIDE_GRID)
FLYING = normalize(GRID_G)
SMALL = normalize(sample(ALPHA, SpatialGrid(-12.0, 1.0 / 16.0, 384)))  # window [-12, 12]
ZERO = GridPacket(WIDE_GRID, np.zeros(WIDE_GRID.n, dtype=complex))
FLIPPED = GaussianPacket(0.0, 1.0, 10.0, phase=math.pi)  # <G|FLIPPED> = -1
SG, SF = split(G, balanced_splitter()), split(FLIPPED, balanced_splitter())
GEOM = ExperimentGeometry(1.0, 1.0)


def _sweep(l2_values, geom=GEOM, k_beta=12.8):
    return sweep_d2(ALPHA, BETA, balanced_splitter(), geom, l2_values, Preparation(), 12.0, k_beta)


SIGMA = "sigma must be positive and finite"
K0 = "k0 must be positive and finite"
SQUARE = "sigma * sigma must be positive and finite"
ORIGIN = "grid origin x_min must be finite"
SPACING = "grid spacing dx must be positive and finite"
T_SIGN = "t must be nonnegative"
C_SIGN = "c must be positive and finite"
NUMERATOR = "n_a1 + n_b1 + 2 Re(e^{i phi} x1) must be finite"
DENOMINATOR = "2 + 2 Re(e^{i phi} eps) must be finite"
NUMERATOR_RANGE = (
    "numerator n_a1 + n_b1 + 2 Re(e^{i phi} x1) outside [0, 2 + 2 Re(e^{i phi} eps)]"
)
ROW_PHASE = "plane-wave phase (c * k_alpha - c * k_beta) * l2 / c must be finite"
L2_VALUES = "l2_values must be positive and finite"
PLATE = "non-unitary plate: |r|^2 + |t|^2 off by "


# a two-arm state is a record, but not a packet
NOT_PACKETS = {"float": 1.0, "complex": 0.5 - 2j, "two-arm-state": TwoArmState(G, G)}
PACKET_CALLS = {
    "norm2": norm2,
    "scale": lambda p: scale(p, 0.5j),
    "propagate": lambda p: propagate(p, 1.0),
    "inner-product-first": lambda p: inner_product(p, G),
    "inner-product-second": lambda p: inner_product(G, p),
    "inner-product-first-grid": lambda p: inner_product(p, GRID_G),
    "inner-product-second-grid": lambda p: inner_product(GRID_G, p),
}

# id: (call, exception class, whole message)
REFUSALS = {
    # packets.GaussianPacket
    "gaussian-sigma-0": (lambda: GaussianPacket(0.0, 0.0, 8.0), ValueError, SIGMA),
    "gaussian-sigma-negative": (lambda: GaussianPacket(0.0, -1.0, 8.0), ValueError, SIGMA),
    "gaussian-k0-0": (lambda: GaussianPacket(0.0, 1.0, 0.0), ValueError, K0),
    "gaussian-k0-negative": (lambda: GaussianPacket(0.0, 1.0, -3.0), ValueError, K0),
    "gaussian-k0-nan": (lambda: GaussianPacket(0.0, 1.0, math.nan), ValueError, K0),
    "gaussian-slow-carrier": (
        lambda: GaussianPacket(0.0, 1.0, 3.9), ValueError,
        "k0 * sigma must be >= 4 so the negative-wavenumber tail is negligible",
    ),
    # sigma * sigma underflows to 0, or overflows
    "gaussian-square-underflow": (lambda: GaussianPacket(0.0, 1e-300, 1e301), ValueError, SQUARE),
    "gaussian-square-overflow": (lambda: GaussianPacket(0.0, 1e200, 12.0), ValueError, SQUARE),
    # Built, these would overlap to nan+nanj.
    "gaussian-x0-nan": (lambda: GaussianPacket(math.nan, 1.0, 12.0), ValueError,
                        "x0 must be finite"),
    "gaussian-x0-minus-inf": (lambda: GaussianPacket(-math.inf, 1.0, 12.0), ValueError,
                              "x0 must be finite"),
    "gaussian-phase-inf": (lambda: GaussianPacket(0.0, 1.0, 12.0, math.inf), ValueError,
                           "phase must be finite"),
    "gaussian-phase-nan": (lambda: GaussianPacket(0.0, 1.0, 12.0, math.nan), ValueError,
                           "phase must be finite"),
    # packets.ScaledGaussian: a NaN coefficient overlapped to nan+nanj, and a base
    # that is no Gaussian failed later with an AttributeError
    "scaled-gaussian-coef-nan": (lambda: ScaledGaussian(complex("nan"), G), ValueError,
                                 "coef must be finite"),
    "scaled-gaussian-base-str": (lambda: ScaledGaussian(1.0, "x"), TypeError,
                                 "base must be a GaussianPacket, not str"),
    # scale of a scaled Gaussian: each factor finite, the product not
    "scale-coef-overflow": (lambda: scale(scale(G, 1e200), 1e200), ValueError,
                            "coef must be finite"),
    # packets.SpatialGrid
    "grid-dx-0": (lambda: SpatialGrid(0.0, 0.0, 8), ValueError, SPACING),
    "grid-dx-nan": (lambda: SpatialGrid(-1.0, math.nan, 8), ValueError, SPACING),
    "grid-dx-inf": (lambda: SpatialGrid(0.0, math.inf, 8), ValueError, SPACING),
    "grid-n-1": (lambda: SpatialGrid(0.0, 0.1, 1), ValueError, "grid needs at least 2 samples"),
    "grid-x-min-nan": (lambda: SpatialGrid(math.nan, 0.1, 8), ValueError, ORIGIN),
    "grid-x-min-inf": (lambda: SpatialGrid(math.inf, 0.1, 8), ValueError, ORIGIN),
    "grid-n-float": (lambda: SpatialGrid(0.0, 0.1, 8.5), TypeError,
                     "grid size n must be an integer, not float"),
    "grid-n-str": (lambda: SpatialGrid(0.0, 0.1, "8"), TypeError,
                   "grid size n must be an integer, not str"),
    # a spacing whose n steps overflow the window's end
    "grid-window-end": (lambda: SpatialGrid(0.0, 1e308, 8), ValueError,
                        "grid window end x_min + n * dx must be finite"),
    # sampled.GridPacket
    "grid-packet-shape": (lambda: GridPacket(WIDE_GRID, np.zeros(WIDE_GRID.n - 1, dtype=complex)),
                          ValueError, "expected 4096 amplitudes, got shape (4095,)"),
    # flown, one NaN amplitude would make every amplitude NaN
    "grid-packet-nan-amplitude": (
        lambda: GridPacket(WIDE_GRID, np.where(np.arange(WIDE_GRID.n) == 40, math.nan, 1.0 + 0j)),
        ValueError, "amplitudes must be finite",
    ),
    "normalize-zero": (lambda: normalize(ZERO), ValueError, "degenerate packet"),
    "spectral-centroid-zero": (lambda: spectral_centroid(ZERO), ValueError, "degenerate packet"),
    # packets.inner_product, norm2, scale and propagate
    **{
        f"{call}-{kind}": (lambda f=f, p=p: f(p), TypeError, f"not a packet: {type(p).__name__}")
        for call, f in PACKET_CALLS.items() for kind, p in NOT_PACKETS.items()
    },
    "inner-product-mixed": (lambda: inner_product(G, GRID_G), TypeError,
                            "cannot mix grid and analytic packets in an inner product"),
    "inner-product-mixed-grid-first": (lambda: inner_product(GRID_G, G), TypeError,
                                       "cannot mix grid and analytic packets in an inner product"),
    "inner-product-incompatible-grids": (
        lambda: inner_product(GRID_G, sample(G, SpatialGrid(-40.0, 1.0 / 16.0, 2048))),
        ValueError, "incompatible grids",
    ),
    # NaN fails the sign checks too, on either kind of packet
    "propagate-gaussian-t-negative": (lambda: propagate(G, -1.0), ValueError, T_SIGN),
    "propagate-gaussian-t-nan": (lambda: propagate(G, math.nan), ValueError, T_SIGN),
    "propagate-gaussian-c-0": (lambda: propagate(G, 1.0, c=0.0), ValueError, C_SIGN),
    "propagate-gaussian-c-nan": (lambda: propagate(G, 1.0, c=math.nan), ValueError, C_SIGN),
    "propagate-grid-t-negative": (lambda: propagate(FLYING, -1.0), ValueError, T_SIGN),
    "propagate-grid-t-nan": (lambda: propagate(FLYING, math.nan), ValueError, T_SIGN),
    "propagate-grid-c-0": (lambda: propagate(FLYING, 1.0, c=0.0), ValueError, C_SIGN),
    "propagate-grid-c-nan": (lambda: propagate(FLYING, 1.0, c=math.nan), ValueError, C_SIGN),
    "propagate-wraparound": (
        lambda: propagate(SMALL, 30.0), WraparoundError,
        "t = 30: wraparound: translation by 30 pushes the packet past the window edge",
    ),
    "propagate-wraparound-names-the-time": (
        lambda: propagate(SMALL, 15.0, c=2.0), WraparoundError,
        "t = 15: wraparound: translation by 30 pushes the packet past the window edge",
    ),
    # sampled.fits_after: NaN fails every comparison, so an unguarded check
    # would call the packet a fit
    "fits-after-tail-tol-0": (lambda: fits_after(FLYING, 1.0, 1.0, 0.0), ValueError,
                              "tail_tol must lie in (0, 1)"),
    "fits-after-t-nan": (lambda: fits_after(FLYING, math.nan, 1.0, 1e-9), ValueError, T_SIGN),
    "fits-after-t-negative": (lambda: fits_after(FLYING, -1.0, 1.0, 1e-9), ValueError, T_SIGN),
    "fits-after-c-nan": (lambda: fits_after(FLYING, 1.0, math.nan, 1e-9), ValueError, C_SIGN),
    "fits-after-c-0": (lambda: fits_after(FLYING, 1.0, 0.0, 1e-9), ValueError, C_SIGN),
    # optics.BeamSplitter: a NaN plate has a NaN defect, which no comparison
    # with the tolerance may let through; |t|^2 or |r|^2 past the double range
    # makes the defect inf, not an OverflowError from squaring
    "plate-lossy": (lambda: BeamSplitter(0.7, 0.6), ValueError, PLATE + "0.15"),
    "plate-nan-r": (lambda: BeamSplitter(math.nan, 0.0), ValueError, PLATE + "nan"),
    "plate-nan-t": (lambda: BeamSplitter(1.0, 1j * math.nan), ValueError, PLATE + "nan"),
    "plate-huge-t": (lambda: BeamSplitter(0.0, 1e155j), ValueError, PLATE + "inf"),
    "plate-huge-r": (lambda: BeamSplitter(complex(1e308, 1e308), 0.0), ValueError,
                     PLATE + "inf"),
    # optics.ExperimentGeometry: a length or speed that is not positive and finite
    **{
        f"geometry-{name}-{value}": (
            lambda kwargs={"l1": 1.0, "l2": 1.0, name: value}: ExperimentGeometry(**kwargs),
            ValueError, f"{name} must be positive and finite",
        )
        for name, values in [
            ("l1", (0.0, math.nan, math.inf)), ("l2", (-2.0, math.nan, math.inf)),
            ("c", (0.0, math.nan, math.inf)),
        ]
        for value in values
    },
    "geometry-l1-and-c-nan": (lambda: ExperimentGeometry(math.nan, 1.0, math.nan), ValueError,
                              "l1 must be positive and finite"),  # the first that fails
    # models.counting_rate_d1
    "rate-degenerate": (lambda: counting_rate_d1(-1.0 + 0j, 0.5, 0.5, -0.5, Preparation()),
                        DegeneratePreparationError, "degenerate preparation"),
    # end to end: beta is alpha with a pi phase flip, so eps = -1 at phi = 0
    "rate-degenerate-flipped-phase": (
        lambda: counting_rate_d1(inner_product(G, FLIPPED), norm2(SG.arm1), norm2(SF.arm1),
                                 inner_product(SG.arm1, SF.arm1), Preparation()),
        DegeneratePreparationError, "degenerate preparation",
    ),
    # min(1, max(0, nan)) would report NaN as a rate of 0
    "rate-eps-nan": (lambda: counting_rate_d1(complex(math.nan, 0.0), 0.5, 0.5, 0.5,
                                              Preparation()), ValueError, "eps must be finite"),
    "rate-eps-nan-imaginary": (lambda: counting_rate_d1(complex(0.5, math.nan), 0.5, 0.5, 0.5,
                                                        Preparation()),
                               ValueError, "eps must be finite"),
    "rate-x1-inf": (lambda: counting_rate_d1(0.5, 0.5, 0.5, complex(0.0, math.inf),
                                             Preparation()), ValueError, "x1 must be finite"),
    "rate-phi-nan": (lambda: counting_rate_d1(0.5, 0.5, 0.5, 0.5, Preparation(math.nan)),
                     ValueError, "phi must be finite"),
    # Finite inputs far outside normalized packets: an overflowed numerator
    # would be clamped to 1.0, a denominator of +inf give 0.0, and one of -inf
    # read as a degenerate preparation.
    "rate-x1-overflow": (lambda: counting_rate_d1(0.85, 0.5, 0.5, 1e308, Preparation()),
                         ValueError, NUMERATOR),
    "rate-norms-overflow": (lambda: counting_rate_d1(0.85, 1e308, 1e308, 0.4, Preparation()),
                            ValueError, NUMERATOR),
    "rate-eps-plus-inf": (lambda: counting_rate_d1(1e308, 0.5, 0.5, 0.4, Preparation()),
                          ValueError, DENOMINATOR),
    "rate-eps-minus-inf": (lambda: counting_rate_d1(-1e308, 0.5, 0.5, 0.4, Preparation()),
                           ValueError, DENOMINATOR),
    # Finite sums no normalized packets give: clamping would report them as a
    # rate of exactly 1.0 or 0.0.
    "rate-huge-norm": (lambda: counting_rate_d1(0.85, 1e308, 0.5, 0.4, Preparation()),
                       ValueError, NUMERATOR_RANGE),
    "rate-norm-above-one": (lambda: counting_rate_d1(0.85, 5.0, 0.5, 0.43, Preparation()),
                            ValueError, NUMERATOR_RANGE),
    "rate-numerator-above-denominator": (
        lambda: counting_rate_d1(-0.9, 0.5, 0.5, 0.5, Preparation()), ValueError, NUMERATOR_RANGE
    ),
    "rate-negative-numerator": (lambda: counting_rate_d1(0.85, 0.5, 0.5, -0.9, Preparation()),
                                ValueError, NUMERATOR_RANGE),
    # models.sweep_d2: l2 / c overflows, so the row's phase d_omega * t2 is NaN
    # (equal carriers) or infinite; its rate must not be clamped to 0 and
    # written, whether the row comes last or first.
    **{
        f"sweep-row-phase-{name}": (
            lambda k_beta=k_beta, l2=l2: _sweep(l2, ExperimentGeometry(1.0, 1.0, 1e-300), k_beta),
            ValueError, ROW_PHASE,
        )
        for name, k_beta, l2 in [
            ("nan", 12.0, [1.0, 1e10]), ("inf", 12.8, [1.0, 1e10]),
            ("nan-first", 12.0, [1e10, 1.0]), ("inf-first", 12.8, [1e10, 1.0]),
        ]
    },
    "sweep-l2-empty": (lambda: _sweep([]), ValueError, "l2_values must be a nonempty sequence"),
    "sweep-l2-negative": (lambda: _sweep([1.0, -2.0]), ValueError, L2_VALUES),
    # NaN passes the sign check and inf is positive: without their own check
    # both fail later under another name.
    "sweep-l2-nan": (lambda: _sweep([math.nan]), ValueError, L2_VALUES),
    "sweep-l2-inf": (lambda: _sweep([math.inf]), ValueError, L2_VALUES),
    "sweep-l2-nan-inside": (lambda: _sweep([1.0, math.nan, 2.0]), ValueError, L2_VALUES),
    # models.plane_wave_epsilon and the shortcut's records: built or returned,
    # each would make the shortcut's overlap nan+nanj, or its period NaN or negative
    "plane-wave-t2-nan": (lambda: plane_wave_epsilon(MODEL, 1.0, math.nan), ValueError,
                          "t2 must be finite"),
    "plane-wave-t2-inf": (lambda: plane_wave_epsilon(MODEL, 1.0, math.inf), ValueError,
                          "t2 must be finite"),
    "plane-wave-t1-nan": (lambda: plane_wave_epsilon(MODEL, math.nan, 1.0), ValueError,
                          "t1 must be finite"),
    "plane-wave-t1-phase": (
        lambda: plane_wave_epsilon(PlaneWaveModel(1e308, 0.5, 0.5j), 10.0, 1.0), ValueError,
        "plane-wave phase delta_omega * t1 must be finite",
    ),
    "plane-wave-t2-phase": (
        lambda: plane_wave_epsilon(PlaneWaveModel(9e307, 0.5, 0.5j), 1.0, 10.0), ValueError,
        "plane-wave phase delta_omega * t2 must be finite",
    ),
    "model-nan-omega": (lambda: PlaneWaveModel(math.nan, 0.5, 0.5j), ValueError,
                        "delta_omega must be finite"),
    "model-infinite-a2": (lambda: PlaneWaveModel(-0.8, 0.5, complex(0.0, math.inf)), ValueError,
                          "a2 must be finite"),
    "preparation-infinite-phi": (lambda: Preparation(math.inf), ValueError, "phi must be finite"),
    "period-nan-omega": (lambda: spatial_period(math.nan), ValueError,
                         "delta_omega must be finite"),
    "period-negative-speed": (lambda: spatial_period(1.0, -1.0), ValueError, C_SIGN),
    # models.carrier_detuning, which derive_plane_wave_model leaves its carriers
    # and c to; a negative c gave 0.8 and c = 0 gave 0
    "detuning-nan-carrier": (lambda: carrier_detuning(math.nan, 1.0, 1.0), ValueError,
                             "c * k_alpha must be finite"),
    "detuning-negative-speed": (lambda: carrier_detuning(12.0, 12.8, -1.0), ValueError, C_SIGN),
    **{
        f"derive-model-{name}": (
            lambda args=args: derive_plane_wave_model(SA, SB, *args), ValueError, message
        )
        for name, args, message in [
            ("k-alpha-nan", (math.nan, 12.8, 1.0), "c * k_alpha must be finite"),
            ("k-beta-inf", (12.0, math.inf, 1.0), "c * k_beta must be finite"),
            ("c-nan", (12.0, 12.8, math.nan), C_SIGN),
            ("c-0", (12.0, 12.8, 0.0), C_SIGN),
            ("c-k-alpha-overflow", (1e308, 12.8, 10.0), "c * k_alpha must be finite"),
            # each product finite, their difference not
            ("delta-omega-overflow", (1e308, -1e308, 1.0), "delta_omega must be finite"),
        ]
    },
}


@pytest.mark.parametrize("refusal", REFUSALS)
def test_each_refusal_raises_its_class_and_whole_message(refusal):
    call, cls, message = REFUSALS[refusal]
    with pytest.raises(Exception) as info:
        call()
    assert (type(info.value), str(info.value)) == (cls, message)


CARRIERS = {"k0", "k_alpha", "k_beta", "omega_alpha", "omega_beta"}
FREQUENCY = {"c", "omega_alpha", "omega_beta"}


def _reads(node: ast.AST, names: set[str]) -> bool:
    """Whether a variable or attribute in ``names`` is read under ``node``."""
    return any(getattr(sub, "id", getattr(sub, "attr", None)) in names for sub in ast.walk(node))


def _is_carrier_detuning(node: ast.AST) -> bool:
    # c * (k_alpha - k_beta) and c * k_alpha - c * k_beta alike; the
    # closed-form overlap's k0 difference carries no c.
    return isinstance(node, ast.BinOp) and _reads(node, FREQUENCY) and any(
        isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Sub)
        and _reads(sub.left, CARRIERS) and _reads(sub.right, CARRIERS)
        for sub in ast.walk(node)
    )


def _raises(pattern: str):
    """Matcher of a ``raise`` statement whose source text matches ``pattern``."""
    return lambda node: isinstance(node, ast.Raise) and bool(re.match(pattern, ast.unparse(node)))


# rule: (matcher, the (module, top-level function) pairs where a match may sit)
ONE_PLACE = {
    "finite_and_positive_refusals": (
        _raises(r"raise ValueError\(.*must be (finite|positive)"),
        {("packets.py", "_require_finite"), ("packets.py", "_require_positive")},
    ),
    "carrier_detuning": (_is_carrier_detuning, {("models.py", "carrier_detuning")}),
    "invariant_errors": (
        # a record constructor's ValueError, converted by the section reader,
        # and the first rule row that does not hold; every other refusal is a row
        _raises(r"raise InvariantError\b"),
        {("config.py", "_section"), ("config.py", "_refuse_first")},
    ),
}
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


@pytest.mark.parametrize("rule", ONE_PLACE)
def test_each_rule_is_spelled_in_its_one_place(rule):
    matches, allowed = ONE_PLACE[rule]
    sites = {
        (module, getattr(top, "name", "<module>"))
        for module, tree in TREES.items()
        for top in tree.body
        for node in ast.walk(top)
        if matches(node)
    }
    assert sites == allowed
    names = {name for _, name in allowed}
    defined = [
        (module, node.name)
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in names
    ]
    assert sorted(defined) == sorted(allowed)
