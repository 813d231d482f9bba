"""The library's rule for numeric arguments, and where each of its rules is spelled.

A property: every library entry point that takes numbers, called with one
of them replaced by a finite, infinite, NaN or ill-typed value, raises a
ValueError that names that argument, raises a TypeError with a message, or
returns finite numbers.  Two documented outcomes stand apart: the rate's
DegeneratePreparationError, and a Gaussian flown to an infinite offset.
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
