"""The names ``platesim`` re-exports at its top level.

The top level is the README example, what the benchmark reads as
``platesim.<name>``, and the errors the command line maps to exit codes.
Dropping one of these fails here rather than deep inside the benchmark.
"""

from __future__ import annotations

import platesim

README_LIBRARY = {
    "GaussianPacket",
    "balanced_splitter",
    "derive_plane_wave_model",
    "inner_product",
    "overlap_at_time",
    "plane_wave_epsilon",
    "split",
}
BENCHMARK = {
    "ExperimentGeometry",
    "Preparation",
    "SpatialGrid",
    "fits_after",
    "inner_product",
    "load_config",
    "normalize",
    "overlap_at_time",
    "parse_config",
    "propagate",
    "sample",
    "spectral_centroid",
    "split",
    "sweep_d2",
}
# ConfigError is the common base of the loader's two errors (exits 3 and 4).
ERRORS = {
    "ConfigError",
    "DegeneratePreparationError",
    "InvariantError",
    "SchemaError",
    "WraparoundError",
}


def test_all_is_exactly_the_used_surface():
    expected = README_LIBRARY | BENCHMARK | ERRORS | {"__version__"}
    assert len(expected) == 24
    assert sorted(platesim.__all__) == sorted(expected)
    assert len(platesim.__all__) == len(set(platesim.__all__))


def test_every_name_resolves_and_star_import_works():
    for name in platesim.__all__:
        assert getattr(platesim, name) is not None
    namespace: dict = {}
    exec("from platesim import *", namespace)
    assert set(platesim.__all__) <= set(namespace)
