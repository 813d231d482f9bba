"""Command-line front end: scenario in, CSV + summary out.

Two subcommands share a scenario file.  ``sweep`` walks the D2 distance
across the configured range and exports both overlap predictions and
both counting rates per row; ``invariance`` re-evaluates the exact
overlap at user-chosen times and reports the deviation from its value at
the moment of the split.  All numbers are written with 17 significant
digits so the CSV round-trips doubles exactly; summaries use 6.

Exit codes: 0 success; 2 missing or unreadable config file, or an ``argparse``
usage error; 3 schema error; 4 invariant violation; 5 unwritable output; 6
degenerate preparation; 7 invariance deviation above tolerance; 8 grid
wraparound.
"""

from __future__ import annotations

import argparse
import math
import sys
from array import array
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import Sequence

from . import __version__
from .config import InvariantError, ScenarioConfig, SchemaError, load_config
from .models import (
    DegeneratePreparationError, Preparation, carrier_detuning, spatial_period, sweep_d2,
)
from .optics import ExperimentGeometry, overlap_post, overlap_at_time, split
from .packets import WraparoundError

__all__ = ["build_parser", "main", "run_invariance_report", "run_sweep"]

SWEEP_HEADER = (
    "l2", "t2", "eps_exact_re", "eps_exact_im", "eps_wss_re", "eps_wss_im", "rate_exact",
    "rate_wss",
)

INVARIANCE_HEADER = ("t", "eps_re", "eps_im", "abs_dev_from_t0")


def _parse_times(text: str) -> tuple[float, ...]:
    try:
        times = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None
    for t in times:
        if not math.isfinite(t) or t < 0.0:
            raise argparse.ArgumentTypeError("times must be finite and nonnegative")
    return times


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description=(
            "Single photon on a partially reflecting plate: compare the exact "
            "packet-overlap prediction with the plane-wave shortcut."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep", help="sweep the D2 distance and export both predictions as CSV"
    )
    sweep.add_argument("--config", required=True, help="scenario file (JSON)")
    sweep.add_argument("--out", required=True, help="output CSV path")

    inv = sub.add_parser(
        "invariance",
        help="evaluate the overlap at several times against its value at the split",
    )
    inv.add_argument("--config", required=True, help="scenario file (JSON)")
    inv.add_argument(
        "--times",
        required=True,
        type=_parse_times,
        help="comma-separated evaluation times, e.g. 0,5,10",
    )
    inv.add_argument("--out", required=True, help="output CSV path")
    return parser


def _write_csv(out: Path, header: Sequence[str], columns: Sequence[array]) -> None:
    """Write the header, then one LF-terminated line per row of the
    ``array('d')`` columns, given in header order.  Values carry 17
    significant digits, so every double round-trips exactly, and are locale
    independent.  A column whose values all carry its first value's bits
    is formatted once, into the line template; the others per row."""
    # Compared as 64-bit integers, 0.0 and -0.0 differ and a NaN equals itself.
    constant = [b[1:] == b[:-1] for b in (memoryview(c).cast("B").cast("Q") for c in columns)]
    line = ",".join("%.17g" % c[0] if k else "%.17g" for c, k in zip(columns, constant)) + "\n"
    varying = [c for c, k in zip(columns, constant) if not k]
    # with every column constant there is nothing to zip, but still a row each
    rows = zip(*varying) if varying else repeat((), len(columns[0]))
    with out.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in rows)


def run_sweep(cfg: ScenarioConfig, out: Path) -> int:
    """Write the D2 sweep CSV and print its headline numbers."""
    alpha, beta, k_alpha, k_beta = cfg.realize_packets()
    geom = ExperimentGeometry(l1=cfg.l1, l2=cfg.l2_min, c=cfg.c)
    prep = Preparation(phi=cfg.preparation_phi)
    result = sweep_d2(alpha, beta, cfg.splitter, geom, cfg.l2_values(), prep, k_alpha, k_beta)
    _write_csv(out, SWEEP_HEADER, [getattr(result, name) for name in result._fields])

    period = spatial_period(carrier_detuning(k_alpha, k_beta, cfg.c), cfg.c)
    print(f"eps_exact_re: {result.eps_exact_re[0]:.6g}")
    print(f"eps_exact_im: {result.eps_exact_im[0]:.6g}")
    print(f"max |d rate_exact|: {result.spread('rate_exact'):.6g}")
    print(f"max |d rate_wss|: {result.spread('rate_plane_wave'):.6g}")
    print(f"spatial period: {period:.6g}")
    return 0


def run_invariance_report(cfg: ScenarioConfig, times: Sequence[float], out: Path) -> int:
    """Write the per-time overlap CSV; 0 if every deviation fits the
    configured tolerance, 7 otherwise."""
    # Only the arms are kept: alpha, beta and their spectra are freed before flight.
    sa, sb = (split(p, cfg.splitter) for p in cfg.realize_packets()[:2])
    baseline = overlap_post(sa, sb)

    eps = [overlap_at_time(sa, sb, t, cfg.c) for t in times]
    devs = array("d", (abs(eps_t - baseline) for eps_t in eps))
    parts = (array("d", map(attrgetter("real"), eps)), array("d", map(attrgetter("imag"), eps)))
    _write_csv(out, INVARIANCE_HEADER, [array("d", times), *parts, devs])

    # The largest deviation, or NaN if any is NaN (max alone drops a NaN
    # that follows a finite value); the test is written so that NaN fails.
    max_dev = max(devs, key=lambda dev: (math.isnan(dev), dev))
    tol = cfg.invariance_tol
    print(f"max |dev from t0|: {max_dev:.6g}")
    print(f"tolerance: {tol:.6g}")
    if not max_dev <= tol:
        print("invariance: FAIL", file=sys.stderr)
        return 7
    print("invariance: ok")
    return 0


def _fail(code: int, message: str) -> int:
    """Print ``error: message`` to stderr and return the exit code."""
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    # A scenario exits 3 or 4 whether loading or realizing its packets refuses it.
    try:
        try:
            cfg = load_config(args.config)
        except FileNotFoundError:
            return _fail(2, f"config file not found: {args.config}")
        except OSError as exc:  # a directory, or a file we may not read
            return _fail(2, f"cannot read config file: {exc}")
        if args.command == "sweep":
            return run_sweep(cfg, Path(args.out))
        return run_invariance_report(cfg, args.times, Path(args.out))
    except SchemaError as exc:
        return _fail(3, f"schema: {exc}")
    except InvariantError as exc:
        return _fail(4, f"invariant: {exc}")
    except OSError as exc:
        return _fail(5, f"cannot write output: {exc}")
    except DegeneratePreparationError as exc:
        return _fail(6, f"preparation_phi: {exc}")
    except WraparoundError as exc:
        return _fail(8, str(exc))


if __name__ == "__main__":
    sys.exit(main())
