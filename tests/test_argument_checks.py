"""The library's rule for numeric arguments, checked two ways.

A property: every library entry point that takes numbers, called with one
of them replaced by a finite, infinite, NaN or ill-typed value, raises a
ValueError that names that argument, raises a TypeError with a message, or
returns finite numbers.  Two documented outcomes stand apart: the rate's
DegeneratePreparationError, and a Gaussian flown to an infinite offset.
A lint: outside the two helpers of
:mod:`platesim.packets`, the library spells no ``must be finite`` or
``must be positive`` refusal.
Another: outside the body of ``carrier_detuning``, the library spells no
carrier detuning, a difference of two carriers scaled by ``c`` or of two
frequencies; ``c * (k_alpha - k_beta)`` rounds otherwise than the rows'
``c * k_alpha - c * k_beta``.
"""

from __future__ import annotations

import ast
import cmath
import math
import re
from array import array
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from platesim import (  # noqa: E402
    DegeneratePreparationError,
    ExperimentGeometry,
    GaussianPacket,
    Preparation,
    SpatialGrid,
    balanced_splitter,
    derive_plane_wave_model,
    overlap_at_time,
    plane_wave_epsilon,
    propagate,
    split,
    sweep_d2,
)
from platesim.models import PlaneWaveModel, counting_rate_d1  # noqa: E402
from platesim.packets import _Record, scale  # noqa: E402
from platesim.sampled import fits_after, normalize, sample  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src" / "platesim"

ALPHA = GaussianPacket(0.0, 1.0, 12.0)
BETA = GaussianPacket(0.0, 1.0, 12.8)
SA, SB = split(ALPHA, balanced_splitter()), split(BETA, balanced_splitter())
MODEL = derive_plane_wave_model(SA, SB, ALPHA.k0, BETA.k0)

# Each entry point with arguments that it accepts.  Numbers and the list
# l2_values are the drawn arguments; a drawn l2 replaces the list's last value.
ENTRY_POINTS = {
    "GaussianPacket": (GaussianPacket, dict(x0=0.0, sigma=1.0, k0=12.0, phase=0.0)),
    "SpatialGrid": (SpatialGrid, dict(x_min=-8.0, dx=0.125, n=128)),
    "ExperimentGeometry": (ExperimentGeometry, dict(l1=1.0, l2=2.0, c=1.0)),
    "Preparation": (Preparation, dict(phi=0.0)),
    "PlaneWaveModel": (PlaneWaveModel, dict(delta_omega=-0.8, a1=0.4 + 0j, a2=0.45j)),
    "propagate": (propagate, dict(p=ALPHA, t=1.0, c=1.0)),
    "scale": (scale, dict(p=ALPHA, coef=0.5 + 0.5j)),
    "fits_after": (
        fits_after,
        dict(
            p=normalize(sample(ALPHA, SpatialGrid(-8.0, 0.125, 128))), t=1.0, c=1.0,
            tail_tol=1e-9,
        ),
    ),
    "overlap_at_time": (overlap_at_time, dict(sa=SA, sb=SB, t=1.0, c=1.0)),
    "derive_plane_wave_model": (
        derive_plane_wave_model, dict(sa=SA, sb=SB, k_alpha=12.0, k_beta=12.8, c=1.0)
    ),
    "plane_wave_epsilon": (plane_wave_epsilon, dict(m=MODEL, t1=1.0, t2=2.0)),
    "counting_rate_d1": (
        counting_rate_d1,
        dict(eps=0.85 + 0j, n_a1=0.5, n_b1=0.5, x1=0.43 + 0j, prep=Preparation()),
    ),
    "sweep_d2": (
        sweep_d2,
        dict(
            alpha=ALPHA, beta=BETA, bs=balanced_splitter(),
            geom_base=ExperimentGeometry(1.0, 1.0), l2_values=[1.0, 2.0], prep=Preparation(),
            k_alpha=12.0, k_beta=12.8,
        ),
    ),
}
CASES = [
    (entry, arg)
    for entry, (_, kwargs) in ENTRY_POINTS.items()
    for arg, value in kwargs.items()
    if isinstance(value, (int, float, complex, list))
]

values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.inf, -math.inf, math.nan, "1.0", None]),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
)


def _numbers(value):
    """Every number in a result, through records and sequences."""
    if isinstance(value, _Record):
        for name in value._fields:
            yield from _numbers(getattr(value, name))
    elif isinstance(value, (list, tuple, array, np.ndarray)):
        for item in value:
            yield from _numbers(item)
    else:
        yield value


@settings(max_examples=1000)
@given(st.sampled_from(CASES), values)
def test_numeric_arguments_are_refused_by_name_or_give_finite_numbers(case, value):
    entry, arg = case
    call, kwargs = ENTRY_POINTS[entry]
    kwargs = dict(kwargs, **{arg: [*kwargs[arg][:-1], value] if arg == "l2_values" else value})
    try:
        result = call(**kwargs)
    except DegeneratePreparationError:
        # A rate denominator 2 + 2 Re(e^{i phi} eps) at or below zero: the
        # refusal the command line maps to exit 6, worded for it.
        assert (entry, arg) == ("counting_rate_d1", "eps"), (value, kwargs)
        return
    except ValueError as exc:
        assert re.search(rf"\b{re.escape(arg)}\b", str(exc)), (entry, arg, value, str(exc))
        return
    except TypeError as exc:
        assert str(exc), (entry, arg, value)
        return
    if entry == "propagate" and math.isinf(kwargs["c"] * kwargs["t"]):
        # The README's one exception: a Gaussian flown so far that its
        # offset c * t overflows to inf; its coefficient and base stay finite.
        assert result.offset == math.inf
        result = (result.coef, result.base)
    assert all(map(cmath.isfinite, _numbers(result))), (entry, arg, value, result)


HELPERS = ("_require_finite", "_require_positive")
RULE_WORDS = ("must be finite", "must be positive")


def _text(node: ast.AST) -> str:
    """The literal text of a message, ``{}`` for each formatted field."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            _text(part) if isinstance(part, ast.Constant) else "{}" for part in node.values
        )
    return ""


def _spelled_checks(tree: ast.AST, function: str = ""):
    """(function, message) of every ``raise ValueError(...)`` under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _spelled_checks(node, node.name)
            continue
        if (
            isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name)
            and node.exc.func.id == "ValueError"
        ):
            yield function, " ".join(_text(arg) for arg in node.exc.args)
        yield from _spelled_checks(node, function)


def test_finite_and_positive_refusals_are_spelled_only_in_the_helpers():
    spelled, defined = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [
            (path.name, node.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in HELPERS
        ]
        spelled += [
            (path.name, function, message)
            for function, message in _spelled_checks(tree)
            if any(word in message for word in RULE_WORDS)
            and function not in HELPERS
        ]
    assert spelled == []
    assert sorted(defined) == [("packets.py", name) for name in HELPERS]


CARRIERS = {"k0", "k_alpha", "k_beta", "omega_alpha", "omega_beta"}
FREQUENCY = {"c", "omega_alpha", "omega_beta"}


def _names(node: ast.AST) -> set[str]:
    """Every variable and attribute name read under ``node``."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def _is_carrier_difference(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and bool(_names(node.left) & CARRIERS)
        and bool(_names(node.right) & CARRIERS)
    )


def test_the_carrier_detuning_is_spelled_only_in_its_helper():
    spelled, defined = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helpers = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "carrier_detuning"
        ]
        defined += [path.name for _ in helpers]
        own = {id(sub) for helper in helpers for sub in ast.walk(helper)}
        # c * (k_alpha - k_beta) and c * k_alpha - c * k_beta alike; the
        # closed-form overlap's k0 difference carries no c.
        spelled |= {
            (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.BinOp)
            and id(node) not in own
            and _names(node) & FREQUENCY
            and any(map(_is_carrier_difference, ast.walk(node)))
        }
    assert sorted(spelled) == []
    assert defined == ["models.py"]
