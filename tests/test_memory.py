"""Sweep memory stays linear in the row count with a small constant.

Peaks are traced with ``tracemalloc``, which sees numpy's array buffers.
A pairwise ``spread`` would need an n x n matrix: 8 TB at a million rows.
"""

from __future__ import annotations

import contextlib
import io
import tracemalloc

from platesim import ExperimentGeometry, Preparation, parse_config, sweep_d2
from platesim.cli import run_sweep

SCENARIO = {
    "packet_alpha": {"x0": 0.0, "sigma": 1.0, "k0": 12.0},
    "packet_beta": {"x0": 0.0, "sigma": 1.0, "k0": 12.8},
}

MB = 2**20


def _traced_peak(fn) -> float:
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


def _config(n_points: int):
    return parse_config({**SCENARIO, "geometry": {"n_points": n_points}})


def test_sweep_and_summary_spreads_at_a_million_rows():
    cfg = _config(10**6)
    geom = ExperimentGeometry(l1=cfg.l1, l2=cfg.l2_min, c=cfg.c)

    def sweep_and_spreads():
        result = sweep_d2(
            cfg.packet_alpha, cfg.packet_beta, cfg.splitter, geom, cfg.l2_values(),
            Preparation(phi=cfg.preparation_phi), cfg.packet_alpha.k0, cfg.packet_beta.k0,
        )
        result.spread("rate_exact")
        result.spread("rate_plane_wave")

    assert _traced_peak(sweep_and_spreads) < 200 * MB


def test_run_sweep_peak_at_200k_rows(tmp_path):
    # Measured 18.5 MB (x86-64 Linux, Python 3.11.7, numpy 2.4.6): the
    # sweep's columns and temporaries, about 92 bytes a row.  The CSV
    # writer adds a fixed 2.5 MB, one block of WRITE_BLOCK_ROWS rows,
    # whatever the row count.  The bound leaves 50% headroom.
    cfg = _config(200_000)
    out = tmp_path / "sweep.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        peak = _traced_peak(lambda: run_sweep(cfg, out))
    assert peak < 28 * MB
