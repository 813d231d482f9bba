"""Memory stays linear in the row count with a small constant.

Peaks are traced with ``tracemalloc``, which sees numpy's array buffers.
A pairwise ``spread`` would need an n x n matrix: 8 TB at a million rows.
An invariance cache that kept one phase array per time would grow by
64 KB a time on the committed grid.
"""

from __future__ import annotations

import contextlib
import io
import tracemalloc
from pathlib import Path

import numpy as np

from platesim import ExperimentGeometry, Preparation, load_config, parse_config, sweep_d2
from platesim.cli import run_invariance_report, run_sweep
from platesim.config import GRID_SAMPLE_BYTES

GRID_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "grid.json"

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
    # Measured 18.2 MB (x86-64 Linux, Python 3.11.7): l2_values() and the
    # sweep's array('d') and complex-list columns, about 89 bytes a row.
    # The CSV writer adds at most 1.1 MB, one block of WRITE_BLOCK_ROWS
    # rows, whatever the row count.  The bound leaves 50% headroom.
    cfg = _config(200_000)
    out = tmp_path / "sweep.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        peak = _traced_peak(lambda: run_sweep(cfg, out))
    assert peak < 28 * MB


def test_run_invariance_peak_grows_only_with_the_output(tmp_path):
    # Measured 1.2-1.3 MB at 200 times and 1.75 MB at 2000 (x86-64 Linux,
    # Python 3.11.7, numpy 2.4.6): the per-time lists and columns, about
    # 300 bytes a time.  One cached 64 KB phase array per time would add
    # 1800 x 64 KB = 113 MB.  Both runs load the scenario afresh, so each
    # pays once for the grid's arrays and the arms' spectra.
    def peak(count: int) -> float:
        cfg = load_config(GRID_SCENARIO)
        # all below the wraparound limit, about t = 205 at c = 1
        times = np.linspace(0.0, 150.0, count).tolist()
        out = tmp_path / f"inv{count}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            return _traced_peak(lambda: run_invariance_report(cfg, times, out))

    assert peak(2000) - peak(200) < 2 * MB


def test_grid_runs_fit_the_loader_budget_per_sample(tmp_path):
    # config.MAX_GRID_N allows GRID_SAMPLE_BYTES a sample, twice this
    # bound.  Measured about 340 bytes for invariance and 160 for a sweep
    # (x86-64 Linux, Python 3.11.7, numpy 2.4.6); fixed costs are counted
    # too, so larger grids cost less a sample.
    runs = {
        "invariance": lambda cfg, out: run_invariance_report(cfg, [0.0, 30.0, 60.0], out),
        "sweep": run_sweep,
    }
    for name, run in runs.items():
        cfg = load_config(GRID_SCENARIO)
        out = tmp_path / f"{name}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            peak = _traced_peak(lambda: run(cfg, out))
        assert peak / cfg.grid.n < GRID_SAMPLE_BYTES / 2, name
