"""Command-line front end: scenario in, CSV + summary out.

Two subcommands share a scenario file.  ``sweep`` walks the D2 distance
across the configured range and exports both overlap predictions and
both counting rates per row; ``invariance`` re-evaluates the exact
overlap at user-chosen times and reports the deviation from its value at
the moment of the split.  All numbers are written with 17 significant
digits so the CSV round-trips doubles exactly; summaries use 6.

Exit codes: 0 success; 2 missing or unreadable config file; 3 schema error; 4
invariant violation; 5 unwritable output; 6 degenerate preparation; 7
invariance deviation above tolerance; 8 grid wraparound.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import islice
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import __version__
from .config import InvariantError, ScenarioConfig, SchemaError, load_config
from .models import DegeneratePreparationError, Preparation, spatial_period, sweep_d2
from .optics import ExperimentGeometry, overlap_post, overlap_at_time, split
from .packets import WraparoundError

__all__ = ["build_parser", "main", "run_invariance_report", "run_sweep"]

SWEEP_HEADER = (
    "l2", "t2", "eps_exact_re", "eps_exact_im", "eps_wss_re", "eps_wss_im", "rate_exact",
    "rate_wss",
)

INVARIANCE_HEADER = ("t", "eps_re", "eps_im", "abs_dev_from_t0")

# Rows formatted per write; bounds the writer's memory at any sweep size.
WRITE_BLOCK_ROWS = 4096


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


def _write_csv(
    out: Path, header: Sequence[str], fixed: Mapping[str, float], rows: Iterable[tuple]
) -> None:
    """Write the header, then one LF-terminated line per row of floats.
    Values carry 17 significant digits, so every double round-trips
    exactly, and are locale independent.  The columns named in ``fixed``
    hold one value on every line, formatted once into the line template;
    ``rows`` carry the other columns, in header order."""
    line = ",".join("%.17g" % fixed[name] if name in fixed else "%.17g" for name in header) + "\n"
    rows = iter(rows)
    with out.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        while block := list(islice(rows, WRITE_BLOCK_ROWS)):
            fh.write("".join(line % row for row in block))


def run_sweep(cfg: ScenarioConfig, out: Path) -> int:
    """Write the D2 sweep CSV and print its headline numbers."""
    alpha, beta, k_alpha, k_beta = cfg.realize_packets()
    geom = ExperimentGeometry(l1=cfg.l1, l2=cfg.l2_min, c=cfg.c)
    prep = Preparation(phi=cfg.preparation_phi)
    result = sweep_d2(alpha, beta, cfg.splitter, geom, cfg.l2_values(), prep, k_alpha, k_beta)
    eps = result.eps_exact[0]
    fixed = {"eps_exact_re": eps.real, "eps_exact_im": eps.imag, "rate_exact": result.rate_exact[0]}
    rows = (
        (l2, t2, eps_pw.real, eps_pw.imag, rate_pw)
        for l2, t2, eps_pw, rate_pw in zip(
            result.l2, result.t2, result.eps_plane_wave, result.rate_plane_wave
        )
    )
    _write_csv(out, SWEEP_HEADER, fixed, rows)

    period = spatial_period(cfg.c * (k_alpha - k_beta), cfg.c)
    print(f"eps_exact_re: {eps.real:.6g}")
    print(f"eps_exact_im: {eps.imag:.6g}")
    print(f"max |d rate_exact|: {result.spread('rate_exact'):.6g}")
    print(f"max |d rate_wss|: {result.spread('rate_plane_wave'):.6g}")
    print(f"spatial period: {period:.6g}")
    return 0


def run_invariance_report(cfg: ScenarioConfig, times: Sequence[float], out: Path) -> int:
    """Write the per-time overlap CSV; 0 if every deviation fits the
    configured tolerance, 7 otherwise."""
    alpha, beta, _, _ = cfg.realize_packets()
    sa = split(alpha, cfg.splitter)
    sb = split(beta, cfg.splitter)
    baseline = overlap_post(sa, sb)

    eps = [overlap_at_time(sa, sb, t, cfg.c) for t in times]
    devs = [abs(eps_t - baseline) for eps_t in eps]
    rows = ((t, e.real, e.imag, dev) for t, e, dev in zip(times, eps, devs))
    _write_csv(out, INVARIANCE_HEADER, {}, rows)

    # The largest deviation, or NaN if any is NaN (max alone drops a NaN
    # that follows a finite value); the test is written so that NaN fails.
    max_dev = max(devs, key=lambda dev: (math.isnan(dev), dev))
    tol = cfg.invariance_tol()
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
        return _fail(6, str(exc))
    except WraparoundError as exc:
        return _fail(8, str(exc))


if __name__ == "__main__":
    sys.exit(main())
