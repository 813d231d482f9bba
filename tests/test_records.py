"""The package's value types are frozen records: construction by position
or keyword with the documented defaults, no field assignment or deletion,
equality and hashing by value (by identity for grid packets), and a
``Name(field=value, ...)`` repr."""

from __future__ import annotations

from array import array

import pytest

from platesim.config import ScenarioConfig
from platesim.models import PlaneWaveModel, Preparation, SweepResult
from platesim.optics import BeamSplitter, ExperimentGeometry, TwoArmState
from platesim.packets import GaussianPacket, ScaledGaussian, SpatialGrid
from platesim.sampled import GridPacket

G = GaussianPacket(0.5, 1.0, 12.0)
G_REPR = "GaussianPacket(x0=0.5, sigma=1.0, k0=12.0, phase=0.0)"
PLATE = BeamSplitter(1.0, 0j)
GRID = SpatialGrid(-1.0, 0.5, 2)
GRID_REPR = "SpatialGrid(x_min=-1.0, dx=0.5, n=2)"


def _column(*values):
    return array("d", values)


# (class, field names, field values, how many trailing values are defaults, repr)
CASES = [
    (GaussianPacket, ("x0", "sigma", "k0", "phase"), (0.5, 1.0, 12.0, 0.0), 1, G_REPR),
    (
        ScaledGaussian, ("coef", "base", "offset"), (0.5j, G, 0.0), 1,
        f"ScaledGaussian(coef=0.5j, base={G_REPR}, offset=0.0)",
    ),
    (BeamSplitter, ("r", "t"), (1.0, 0j), 0, "BeamSplitter(r=1.0, t=0j)"),
    (TwoArmState, ("arm1", "arm2"), (G, G), 0, f"TwoArmState(arm1={G_REPR}, arm2={G_REPR})"),
    (
        ExperimentGeometry, ("l1", "l2", "c"), (1.0, 2.0, 1.0), 1,
        "ExperimentGeometry(l1=1.0, l2=2.0, c=1.0)",
    ),
    (
        PlaneWaveModel, ("delta_omega", "a1", "a2"), (-0.8, 0.5 + 0j, 0.5j), 0,
        "PlaneWaveModel(delta_omega=-0.8, a1=(0.5+0j), a2=0.5j)",
    ),
    (Preparation, ("phi",), (0.0,), 1, "Preparation(phi=0.0)"),
    (
        SweepResult,
        ("l2", "t2", "eps_exact", "eps_plane_wave", "rate_exact", "rate_plane_wave"),
        (_column(1.0), _column(1.0), [1 + 0j], [0.5j], _column(0.5), _column(0.25)),
        0,
        "SweepResult(l2=array('d', [1.0]), t2=array('d', [1.0]), eps_exact=[(1+0j)], "
        "eps_plane_wave=[0.5j], rate_exact=array('d', [0.5]), "
        "rate_plane_wave=array('d', [0.25]))",
    ),
    (
        ScenarioConfig,
        (
            "packet_alpha", "packet_beta", "splitter", "l1", "l2_min", "l2_max", "n_points",
            "c", "preparation_phi", "grid", "invariance_tol",
        ),
        (G, G, PLATE, 1.0, 1.0, 2.0, 3, 1.0, 0.0, None, 1e-12),
        0,
        f"ScenarioConfig(packet_alpha={G_REPR}, "
        f"packet_beta={G_REPR}, splitter=BeamSplitter(r=1.0, t=0j), l1=1.0, l2_min=1.0, "
        "l2_max=2.0, n_points=3, c=1.0, preparation_phi=0.0, grid=None, "
        "invariance_tol=1e-12)",
    ),
    (SpatialGrid, ("x_min", "dx", "n"), (-1.0, 0.5, 2), 0, GRID_REPR),
    (
        GridPacket, ("grid", "amplitudes"), (GRID, [1, 0.5j]), 0,
        f"GridPacket(grid={GRID_REPR}, amplitudes=array([1.+0.j , 0.+0.5j]))",
    ),
]


@pytest.mark.parametrize(
    "cls, names, values, defaults, text", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_record_semantics(cls, names, values, defaults, text):
    positional = cls(*values)
    keyword = cls(**dict(zip(names, values)))
    required = cls(*values[: len(values) - defaults])
    assert repr(positional) == repr(keyword) == repr(required) == text

    for name in names:
        with pytest.raises(AttributeError):
            setattr(positional, name, values[0])
        with pytest.raises(AttributeError):
            delattr(positional, name)
    assert repr(positional) == text

    if cls is GridPacket:
        # Equal samples, distinct packets: identity, as numpy arrays have no
        # single truth value to compare by.
        assert positional == positional and positional != keyword
        assert len({positional, keyword}) == 2
        return
    assert positional == keyword == required
    assert not positional != keyword
    if cls is SweepResult:  # its columns are mutable sequences
        with pytest.raises(TypeError):
            hash(positional)
    else:
        assert hash(positional) == hash(keyword) == hash(required)


def test_records_of_different_values_or_classes_differ():
    assert GaussianPacket(0.5, 1.0, 12.0) != GaussianPacket(0.5, 1.0, 12.0, 1.0)
    assert SpatialGrid(-1.0, 0.5, 2) != SpatialGrid(-1.0, 0.25, 2)
    assert TwoArmState(G, G) != (G, G)
    assert Preparation(0.0) != ExperimentGeometry(1.0, 1.0, 1.0)
