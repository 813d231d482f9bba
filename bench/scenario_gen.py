"""Seeded scenario generator for the benchmark workloads.

Every draw stays inside what the scenario loader accepts, with margin:

* ``k0 * sigma >= 7`` (the loader needs >= 4);
* the two carriers differ by at least 0.3, so the plane-wave artifact
  has a finite period and the default sweep range exists;
* ``|eps| <= 0.99``, so no preparation is degenerate;
* on a grid, each packet's ``x0 +/- 8 sigma`` support fits the window
  and ``k0 + 4/sigma`` stays far below the Nyquist wavenumber;
* invariance times stay below the wraparound limit: after flying
  ``c * t`` every packet still ends 8 sigma short of the window edge.

The same seed gives the same scenario and times.
"""

from __future__ import annotations

import math
import random

GRID = {"x_min": -40.0, "dx": 0.0625, "n": 4096}
# Room kept between a packet's far edge and the window edge, in sigmas.
EDGE_SIGMAS = 8.0


def _packet(rng: random.Random, x0: float, k0: float) -> dict:
    return {
        "x0": x0,
        "sigma": rng.uniform(0.8, 1.5),
        "k0": k0,
        "phase": rng.uniform(0.0, 2.0 * math.pi),
    }


def scenario(seed: int, n_points: int = 200, grid: bool = False) -> dict:
    """A random valid scenario: Gaussian, or sampled on ``GRID``."""
    rng = random.Random(seed)
    x0 = rng.uniform(-1.0, 1.0)
    k0 = rng.uniform(10.0, 14.0)
    detune = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.2)
    theta = rng.uniform(0.2, 1.37)
    r_arg = rng.uniform(0.0, 2.0 * math.pi)
    t_arg = rng.uniform(0.0, 2.0 * math.pi)
    out = {
        "representation": "grid" if grid else "gaussian",
        "packet_alpha": _packet(rng, x0, k0),
        "packet_beta": _packet(rng, x0 + rng.uniform(-1.0, 1.0), k0 + detune),
        "splitter": {
            "r_re": math.cos(theta) * math.cos(r_arg),
            "r_im": math.cos(theta) * math.sin(r_arg),
            "t_re": math.sin(theta) * math.cos(t_arg),
            "t_im": math.sin(theta) * math.sin(t_arg),
        },
        "geometry": {
            "l1": rng.uniform(0.5, 2.0),
            "l2_min": rng.uniform(0.5, 2.0),
            "n_points": n_points,
            "c": rng.uniform(0.5, 2.0),
        },
        "preparation_phi": rng.uniform(0.0, 2.0 * math.pi),
    }
    if grid:
        out["grid"] = dict(GRID)
    return out


def max_flight_time(scn: dict) -> float:
    """Longest time every packet can fly before nearing the window edge."""
    x_end = GRID["x_min"] + GRID["n"] * GRID["dx"]
    reach = max(
        p["x0"] + EDGE_SIGMAS * p["sigma"]
        for p in (scn["packet_alpha"], scn["packet_beta"])
    )
    return (x_end - reach) / scn["geometry"]["c"]


def invariance_times(seed: int, scn: dict, count: int) -> list[float]:
    """``count`` sorted times starting at 0, all below the wraparound limit."""
    rng = random.Random(seed ^ 0x5EED)
    t_max = 0.9 * max_flight_time(scn)
    rest = sorted(round(rng.uniform(0.0, t_max), 6) for _ in range(count - 1))
    return [0.0] + rest
