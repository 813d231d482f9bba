"""Memory stays linear in the row count with a small constant.

Peaks are traced with ``tracemalloc``, which sees numpy's array buffers.
A pairwise ``spread`` would need an n x n matrix: 320 GB at the 200k rows
whose sweep, spreads and CSV writer are held to ``SWEEP_ROW_BYTES / 2`` a row.
An invariance cache that kept one phase array per time would grow by
64 KB a time on the committed grid.
"""

from __future__ import annotations

import contextlib
import io
import tracemalloc
from array import array
from pathlib import Path

import numpy as np
import numpy.fft  # noqa: F401  loaded here, so that no traced peak counts loading it
import platesim.sampled  # noqa: F401  likewise

from conftest import DEFAULT_SCENARIO
from platesim import load_config, parse_config
from platesim.cli import SWEEP_HEADER, _write_csv, run_invariance_report, run_sweep
from platesim.config import GRID_SAMPLE_BYTES, SWEEP_ROW_BYTES
from platesim.optics import overlap_at_time, split

GRID_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "grid.json"

KiB = 2**10
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


def _invariance_peak(tmp_path: Path, count: int) -> float:
    """Traced peak of a grid invariance run at ``count`` times, from a fresh load."""
    cfg = load_config(GRID_SCENARIO)
    # all below the wraparound limit, about t = 205 at c = 1
    times = np.linspace(0.0, 150.0, count).tolist()
    out = tmp_path / f"inv{count}.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        return _traced_peak(lambda: run_invariance_report(cfg, times, out))


def test_run_sweep_peak_at_200k_rows(tmp_path):
    # config.MAX_N_POINTS allows SWEEP_ROW_BYTES a row, twice this bound.
    # Measured 17.2 MiB, 90.4 bytes a row (x86-64 Linux, Python 3.11.7):
    # l2_values(), the sweep's eight array('d') columns, and the shortcut's
    # complex values, freed before the three exact columns are built
    # (kept alive, they measured 114.4 bytes a row).  The CSV writer
    # streams its rows and holds one formatted line, whatever the row count.
    cfg = parse_config({**DEFAULT_SCENARIO, "geometry": {"n_points": 200_000}})
    out = tmp_path / "sweep.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        peak = _traced_peak(lambda: run_sweep(cfg, out))
    assert peak / cfg.n_points < SWEEP_ROW_BYTES / 2


def _sweep_columns(n: int) -> list[array]:
    """n rows shaped as run_sweep's: five varying columns, and the three exact ones constant."""
    rows = range(n)
    return [
        array("d", (i / 3.0 for i in rows)), array("d", (i / 7.0 for i in rows)),
        array("d", [0.5]) * n, array("d", [-0.25]) * n,
        array("d", (1.0 / (i + 1) for i in rows)), array("d", (-1.0 / (i + 3) for i in rows)),
        array("d", [0.75]) * n, array("d", (1.0 / (i + 7) for i in rows)),
    ]


def test_csv_writer_holds_one_line_at_a_time(tmp_path):
    # Measured 26.8 KiB at both 2,000 and 20,000 sweep-shaped rows, the
    # columns built before the traced call (x86-64 Linux, Python 3.11.7):
    # one formatted line and the file's buffer.  Finding the constant
    # columns compares each column's bits in place and allocates nothing a
    # row.  Formatting the rows in blocks of 4096 before each write
    # measured 2153 KiB.
    peaks = {}
    for n in (2_000, 20_000):
        out, columns = tmp_path / f"rows{n}.csv", _sweep_columns(n)
        peaks[n] = _traced_peak(lambda: _write_csv(out, SWEEP_HEADER, columns))
        assert out.read_bytes().count(b"\n") == n + 1
    assert peaks[20_000] < 256 * KiB
    assert peaks[20_000] - peaks[2_000] < 8 * KiB


def test_run_invariance_peak_grows_only_with_the_output(tmp_path):
    # Measured 0.70 to 0.77 MiB at 200 times and 0.77 MiB at 2000 (x86-64
    # Linux, Python 3.11.7, numpy 2.4.6): the flights' arrays set the peak,
    # and the per-time overlaps and columns add about 40 bytes a time.  One
    # cached 64 KB phase array per time would add 1800 x 64 KB = 113 MB.
    # Both runs load the scenario afresh, so each pays once for the grid's
    # arrays and the arms' spectra.
    assert _invariance_peak(tmp_path, 2000) - _invariance_peak(tmp_path, 200) < 2 * MB


def test_run_invariance_frees_the_realized_packets(tmp_path):
    # Measured 0.77 MiB at 200 times (x86-64 Linux, Python 3.11.7, numpy
    # 2.4.6).  Caching each arm's sample power and transforming out of
    # place measured 0.95 MiB; keeping alpha, beta and their spectra through
    # every flight, and flying all four arms before overlapping any, 1.33 MiB.
    assert _invariance_peak(tmp_path, 200) < 0.85 * MB


def test_overlap_at_time_keeps_at_most_two_flown_arms():
    # A warmed call at a new time holds the new phases, one flown arm, and
    # the next arm's product, transformed in place: measured 3.0 arrays of
    # n complex samples.  An out-of-place transform holds one more: 4.0.
    # Flying all four arms before overlapping any holds two more flown arms
    # alive: measured 6.0.
    cfg = load_config(GRID_SCENARIO)
    alpha, beta, _, _ = cfg.realize_packets()
    sa, sb = split(alpha, cfg.splitter), split(beta, cfg.splitter)
    overlap_at_time(sa, sb, 10.0, cfg.c)  # caches each arm's spectrum
    peak = _traced_peak(lambda: overlap_at_time(sa, sb, 20.0, cfg.c))
    assert peak < 3.5 * cfg.grid.n * np.dtype(complex).itemsize


def test_grid_runs_fit_the_loader_budget_per_sample(tmp_path):
    # config.MAX_GRID_N allows GRID_SAMPLE_BYTES a sample, twice this
    # bound.  Measured about 194 bytes for invariance and 162 for a sweep
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
