"""Single-photon packets on a partially reflecting plate.

The library computes the overlap of two candidate wave packets exactly
(a constant of the motion) and under the plane-wave shortcut (which
falsely depends on the detector positions), and exposes the contrast
through a sweep-and-export command line.

The top level holds the names of the README example, the scenario
loader, the building blocks of a run, and the errors the command line
maps to exit codes.  Everything else lives in its submodule:
``packets``, ``sampled``, ``optics``, ``models``, ``config`` and ``cli``.
Only ``sampled`` (the grid representation) imports numpy, and its four
names here load it on first use; so do a ``SpatialGrid``'s positions and
wavenumbers.
"""

__version__ = "0.1.0"

from .config import ConfigError, InvariantError, SchemaError, load_config, parse_config
from .models import (
    DegeneratePreparationError, Preparation, derive_plane_wave_model, plane_wave_epsilon, sweep_d2,
)
from .optics import ExperimentGeometry, balanced_splitter, overlap_at_time, split
from .packets import GaussianPacket, SpatialGrid, WraparoundError, inner_product, propagate

_SAMPLED = ("fits_after", "normalize", "sample", "spectral_centroid")


def __getattr__(name: str):
    if name in _SAMPLED:
        from . import sampled

        return getattr(sampled, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__", "ConfigError", "DegeneratePreparationError", "ExperimentGeometry",
    "GaussianPacket", "InvariantError", "Preparation", "SchemaError", "SpatialGrid",
    "WraparoundError", "balanced_splitter", "derive_plane_wave_model", "fits_after",
    "inner_product", "load_config", "normalize", "overlap_at_time", "parse_config",
    "plane_wave_epsilon", "propagate", "sample", "spectral_centroid", "split",
    "sweep_d2",
]
