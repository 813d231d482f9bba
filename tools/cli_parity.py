"""Pin ``simulate``'s bytes and check its numbers: run every case, compare each
with its record, its declared exit code and the stream rule, and hand each
exit-0 output to the independent oracle.

    PYTHONPATH=src python3 tools/cli_parity.py

Runs every case through the imported ``platesim.cli.main`` in one process, in
a temporary directory whose path it prints and which it removes afterwards,
with warnings raised as errors.  The cases, over ``bench/scenario_gen.py``
seeds, reach every exit code and every loader rule.  Each declares its exit
code where it is built, a ``(sweep, invariance)`` pair per group of
``_refusals``; ``exit_and_stream_problems`` states the stream rule.
``bench/output_check.py`` re-derives each exit-0 output without platesim;
``UNCHECKED`` names the cases outside its domain, and an exception the oracle
raises is a problem of its case.
Prints each case that differs from ``tests/cli_contract.json``, the exit tally,
the number of records added, changed (with the count per changed field) and
removed, and each exit, stream and oracle problem with their count; rewrites
that file and exits 1 if any case differed or had a problem, so a re-pin never
accepts a moved exit: commit it after an intended change and name every
changed case in CHANGES.md.
Parity with another tree means ``PYTHONPATH=<tree>/src python3
tools/cli_parity.py`` leaves ``git diff tests/cli_contract.json`` empty.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import output_check  # noqa: E402
import scenario_gen  # noqa: E402
GAUSSIAN_SEEDS = range(150)
GRID_SEEDS = range(12)
GAUSSIAN_TIMES = "0,-0,1,1e3,1e6,1e9,1e12,75,75,3.5"
WRAPAROUND_TIMES = "0,1e4,5"
GRID_TIMES = 20
BETA_EDGE_TIMES = "0,176,5"

GAUSSIAN = {
    "packet_alpha": {"x0": 0.0, "sigma": 1.0, "k0": 12.0},
    "packet_beta": {"x0": 0.5, "sigma": 1.2, "k0": 12.8},
}
GRID = {"x_min": -40.0, "dx": 0.0625, "n": 4096}
# Widths 1e10 apart, where the exponent's two terms near A d^2 / 4 must not be
# formed and subtracted: |eps| is 1.23e-5 and 2.4e-15.
WIDTH_RATIO = {
    "packet_alpha": {"x0": 0.0, "sigma": 1e-10, "k0": 43742131894.61201},
    "packet_beta": {"x0": 0.5276682707669078, "sigma": 1.0, "k0": 43742131893.44328},
    "geometry": {"l2_max": 20.0},
}
WIDTH_RATIO_APART = {
    "packet_alpha": {"x0": 0.0, "sigma": 1e-10, "k0": 6e10},
    "packet_beta": {"x0": 3.0, "sigma": 1.0, "k0": 12.0},
}
# alpha narrower than GAUSSIAN's beta by a factor up to 1e160, its carrier
# k0 = 4 / sigma or 10 / sigma dominating: the exponent's phase must not be
# formed from two cancelling terms, its real part overflows for sigma below
# about 2e-154 and 1 / (2 sigma^2) below about 5e-155.
NARROW_ALPHA = {
    "1e-50": {"x0": 0.0, "sigma": 1e-50, "k0": 4e50},
    "1e-150": {"x0": 0.0, "sigma": 1e-150, "k0": 4e150},
    "1e-154": {"x0": 0.0, "sigma": 1e-154, "k0": 1e155},
    "2e-154": {"x0": 0.0, "sigma": 2e-154, "k0": 2e154},
    "1e-160": {"x0": 0.0, "sigma": 1e-160, "k0": 4e160},
}
CARRIERS_EQUAL = {
    "packet_alpha": {"x0": 0, "sigma": 1, "k0": 12.0},
    "packet_beta": {"x0": 0, "sigma": 1, "k0": 12.000000000000002},
    "geometry": {"c": 0.4867311418958834},
}


def _with(base: dict, **sections) -> dict:
    """A copy of ``base`` with the given top-level entries replaced."""
    return {**json.loads(json.dumps(base)), **sections}


def _refusals() -> dict[tuple[int, int], dict[str, dict]]:
    """One scenario for each refusal the loader or a run documents, under the
    exit codes its ``sweep`` and its ``invariance`` run declare."""
    alpha, beta = GAUSSIAN["packet_alpha"], GAUSSIAN["packet_beta"]
    centered_beta = {"x0": 0.0, "sigma": 1.0, "k0": 12.8}
    grid = _with(GAUSSIAN, representation="grid", grid=GRID)
    committed_grid = json.loads((ROOT / "scenarios" / "grid.json").read_text(encoding="utf-8"))
    return {
        (3, 3): {
            "unknown_key": _with(GAUSSIAN, extra=1),
            "wrong_type": _with(GAUSSIAN, packet_alpha={**alpha, "sigma": "1"}),
            "integer_beyond_double_range": _with(GAUSSIAN, packet_alpha={**alpha, "x0": 10**400}),
            "missing_grid": _with(GAUSSIAN, representation="grid"),
        },
        (4, 4): {
            "lossy_splitter": _with(
                GAUSSIAN, splitter={"r_re": 0.7, "r_im": 0.0, "t_re": 0.6, "t_im": 0.0}
            ),
            "inverted_range": _with(GAUSSIAN, geometry={"l2_min": 5.0, "l2_max": 1.0}),
            "inverted_range_and_flight_time": _with(
                GAUSSIAN, geometry={"c": 1e-320, "l2_min": 5.0, "l2_max": 1.0}
            ),
            "nonpositive_speed": _with(GAUSSIAN, geometry={"c": 0.0}),
            # l1 / c overflows: writing rows would put inf and NaN under exit 0
            "flight_time": _with(GAUSSIAN, geometry={"c": 1e-320}),
            "flight_time_l2_min": _with(
                GAUSSIAN, geometry={"c": 1e-300, "l1": 1e-10, "l2_min": 1e10, "l2_max": 2e10}
            ),
            "flight_time_l2_max": _with(GAUSSIAN, geometry={"c": 1e-10, "l2_max": 1e300}),
            # c * k0 overflows: the plane-wave phase would be inf - inf
            "carrier_frequency": _with(GAUSSIAN, geometry={"c": 1e308}),
            "carrier_frequency_beta": _with(
                GAUSSIAN, packet_beta={**beta, "k0": 1e300}, geometry={"c": 1e10}
            ),
            # d_omega * l / c overflows: the sweep's phase factor has no value
            "phase_at_l1": _with(
                GAUSSIAN, packet_beta={**beta, "k0": 100.0}, geometry={"l1": 1e308}
            ),
            "phase_at_l2_max": _with(
                GAUSSIAN, packet_beta={**beta, "k0": 100.0}, geometry={"l2_max": 1e308}
            ),
            "sigma_square": _with(GAUSSIAN, packet_beta={"x0": 0.0, "sigma": 1e-300, "k0": 1e301}),
            # its square overflows, where sigma_square's underflows
            "sigma_square_overflow": _with(
                GAUSSIAN, packet_beta={"x0": 0.0, "sigma": 1e200, "k0": 12.0}
            ),
            # |r|^2 + |t|^2 overflows
            "plate_amplitude_overflow": _with(
                GAUSSIAN, packet_beta=centered_beta,
                splitter={"r_re": 0.0, "r_im": 0.0, "t_re": 0.0, "t_im": 1e155},
            ),
            "phase_difference": _with(
                GAUSSIAN,
                packet_alpha={**alpha, "phase": 1e308},
                packet_beta={**beta, "phase": -1e308},
            ),
            # The overlap, about 2.3e-99, is finite (narrow_alpha_1e-154 runs it),
            # but two periods of a carrier near 1e155 round away: the default
            # l2_max is refused.
            "vanishing_default_span_1e-154": _with(
                GAUSSIAN, packet_alpha={"x0": 0.0, "sigma": 1e-154, "k0": 1e155}
            ),
            # d k overflows: the overlap's phase is infinite
            "closed_form_overlap_carrier_sum": {
                "packet_alpha": {"x0": 0.0, "sigma": 1.0, "k0": 1e308},
                "packet_beta": {"x0": 3.0, "sigma": 1.0, "k0": 1e308},
            },
            "closed_form_overlap_far_apart": {
                "packet_alpha": {"x0": -1e308, "sigma": 1.0, "k0": 12.0},
                "packet_beta": {**centered_beta, "x0": 1e308},
            },
            # Without the loader's refusal, every row had l2 = 1 and the summary
            # printed "max |d rate_wss|: 0" under exit 0.
            "vanishing_default_span": _with(
                GAUSSIAN, packet_alpha={"x0": 0.0, "sigma": 1.0, "k0": 1e308}
            ),
            "vanishing_default_span_narrow": _with(
                GAUSSIAN, packet_alpha={"x0": 0.0, "sigma": 1e-150, "k0": 1e151},
                packet_beta=centered_beta,
            ),
            "n_points_ceiling": _with(GAUSSIAN, geometry={"n_points": 2**21 + 1}),
            "grid_n_ceiling": _with(grid, grid={**GRID, "n": 2**19 + 1}),
            "grid_window": _with(grid, grid={"x_min": -2.0, "dx": 0.0625, "n": 64}),
            "grid_nyquist": _with(grid, grid={"x_min": -40.0, "dx": 0.5, "n": 512}),
            # Without the loader's refusal, the sampled beta lost its carrier, the
            # spectral centroid moved, and sweep stopped with "ValueError: math
            # domain error" under exit 1.
            "grid_phase": _with(
                grid, packet_beta={**beta, "phase": -1.5e308}, geometry={"l2_max": 1e308}
            ),
            # The nominal carriers pass the loader's plane-wave phase check at the
            # largest l2_max (d_omega = -1.0); the sampled centroids the run uses
            # do not (d_omega = -1.0000000000000009).  Without the re-check at
            # realizing, sweep stopped with "ValueError: math domain error" under
            # exit 1.
            "grid_sampled_carrier_phase": _with(
                committed_grid,
                packet_alpha={**committed_grid["packet_alpha"], "k0": 6},
                packet_beta={**committed_grid["packet_beta"], "k0": 7},
                geometry={**committed_grid["geometry"], "l2_max": 1.7976931348623157e308},
            ),
        },
        (6, 0): {
            "degenerate_preparation": _with(
                GAUSSIAN, packet_beta={**alpha, "phase": 3.141592653589793}
            ),
            # the exact denominator is 3.99999999995, the shortcut's about 5e-11
            "shortcut_degenerate_preparation": _with(
                GAUSSIAN,
                packet_beta={**alpha, "k0": 12.00001},
                geometry={"l1": 314159.2653589793, "l2_min": 314159.2653589793,
                          "l2_max": 314159.2653589793, "n_points": 1},
            ),
        },
        (0, 7): {"grid_tolerance": _with(grid, tolerances={"grid_tol": 1e-18})},
    }


def _case(name: str, code: int, argv: list[str], scenario: dict | None = None,
          text: str | None = None):
    """A case: its name, the exit code it declares, its argv and its config text."""
    if scenario is not None:
        text = json.dumps(scenario)
    return {"name": name, "argv": argv, "config": text, "exit": code}


def build_cases() -> list[dict]:
    sweep = ["sweep", "--config", "scenario.json", "--out", "out.csv"]
    invariance = ["invariance", "--config", "scenario.json", "--out", "out.csv", "--times"]
    cases = []
    for seed in GAUSSIAN_SEEDS:
        scn = scenario_gen.scenario(seed, 200)
        cases.append(_case(f"gaussian_sweep_200[{seed}]", 0, sweep, scn))
        scn = scenario_gen.scenario(seed)
        cases.append(_case(f"gaussian_invariance[{seed}]", 0, [*invariance, GAUSSIAN_TIMES], scn))
    for seed in GRID_SEEDS:
        scn = scenario_gen.scenario(seed, grid=True)
        times = ",".join(repr(t) for t in scenario_gen.invariance_times(seed, scn, GRID_TIMES))
        cases.append(_case(f"grid_sweep[{seed}]", 0, sweep, scn))
        cases.append(_case(f"grid_invariance[{seed}]", 0, [*invariance, times], scn))
        cases.append(_case(f"grid_wraparound[{seed}]", 8, [*invariance, WRAPAROUND_TIMES], scn))
    # beta at x0 = 40 crosses the edge at 216 by t = 176; alpha, 40 behind it, does not
    beta_edge = _with(
        GAUSSIAN, representation="grid", grid=GRID,
        packet_beta={**GAUSSIAN["packet_beta"], "x0": 40.0},
    )
    cases.append(_case("grid_wraparound_beta_only", 8, [*invariance, BETA_EDGE_TIMES], beta_edge))
    # The k0 differ, but c * k0 is one double for both: the rows' d_omega is
    # 0, so the printed period is inf and the default span is the fallback.
    cases.append(_case("carriers_equal_in_floating_point[sweep]", 0, sweep, CARRIERS_EQUAL))
    cases.append(_case("width_ratio_1e10[invariance]", 0, [*invariance, "0,5"], WIDTH_RATIO))
    cases.append(_case("width_ratio_1e10_apart[sweep]", 0, sweep, WIDTH_RATIO_APART))
    for sigma, alpha in NARROW_ALPHA.items():
        scn = _with(GAUSSIAN, packet_alpha=alpha, geometry={"l2_max": 2.0})
        cases.append(_case(f"narrow_alpha_{sigma}[sweep]", 0, sweep, scn))
        cases.append(_case(f"narrow_alpha_{sigma}[invariance]", 0, [*invariance, "0,5"], scn))
    # |r|^2 + |t|^2 is 1 + 4e-10, inside UNITARITY_TOL: both rates come out
    # above 1, and are written as 1 only because the rate is clamped to [0, 1].
    edge = _with(
        GAUSSIAN, splitter={"r_re": 1.0000000002, "r_im": 0.0, "t_re": 0.0, "t_im": 0.0},
        geometry={"l1": 1.0, "l2_min": 1.0, "n_points": 200, "c": 1.0}, preparation_phi=0.0,
    )
    cases.append(_case("unitarity_edge_plate[sweep]", 0, sweep, edge))
    cases.append(_case("unitarity_edge_plate[invariance]", 0, [*invariance, "0,5"], edge))
    refused_at = [*invariance, "0,40,120"]
    for (sweep_exit, invariance_exit), refusals in _refusals().items():
        for name, scn in refusals.items():
            cases.append(_case(f"{name}[sweep]", sweep_exit, sweep, scn))
            cases.append(_case(f"{name}[invariance]", invariance_exit, refused_at, scn))
    cases += [
        _case("missing_config", 2, ["sweep", "--config", "missing.json", "--out", "out.csv"]),
        _case("config_directory", 2, ["sweep", "--config", ".", "--out", "out.csv"]),
        _case("not_json", 3, sweep, text="{"),
        _case("unwritable_output", 5, [*sweep[:-1], "no/out.csv"], GAUSSIAN),
        _case("negative_time", 2, [*invariance, "-1"], GAUSSIAN),
        _case("junk_times", 2, [*invariance, "0,x"], GAUSSIAN),
        _case("missing_subcommand", 2, []),
        _case("version", 0, ["--version"]),
    ]
    return cases


CONTRACT = ROOT / "tests" / "cli_contract.json"


def run_case(case: dict) -> dict:
    """Run one case through ``cli.main`` in the working directory, warnings
    raised as errors; its record."""
    from platesim import cli

    for name in ("scenario.json", "out.csv"):
        Path(name).unlink(missing_ok=True)
    if case["config"] is not None:
        Path("scenario.json").write_text(case["config"], encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with (
        contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr),
        warnings.catch_warnings(),
    ):
        warnings.simplefilter("error")
        try:
            code = cli.main(case["argv"])
        except SystemExit as exc:  # argparse: usage errors, --version
            code = exc.code
        except Exception as exc:  # escaped main, a warning included: a traceback under exit 1
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    out = Path("out.csv")
    inputs = {key: case[key] for key in ("name", "argv", "config")}  # not the declared exit
    return {
        "exit": code,
        "csv_sha256": hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "input_sha256": hashlib.sha256(json.dumps(inputs).encode()).hexdigest(),
    }


def versions() -> dict:
    """Grid CSV hashes depend on numpy's FFT bits, usage text on Python's argparse."""
    return {"numpy": importlib.metadata.version("numpy"), "python": sys.version.split()[0]}


GRID_SWEEP = "a grid sweep: the oracle's sweep check is the Gaussian closed form to 1e-12"
UNCHECKED = {
    **{f"grid_sweep[{seed}]": GRID_SWEEP for seed in GRID_SEEDS},
    "grid_tolerance[sweep]": GRID_SWEEP,
    "carriers_equal_in_floating_point[sweep]": (
        "d_omega is 0: the oracle's default span 2 * 2 pi c / |d_omega| divides by zero"
    ),
    **dict.fromkeys(
        [
            "width_ratio_1e10[invariance]", "width_ratio_1e10_apart[sweep]",
            *(f"narrow_alpha_{sigma}[{command}]"
              for sigma in NARROW_ALPHA for command in ("sweep", "invariance")),
        ],
        "unequal widths: the oracle's closed form still cancels in its exponent's real"
        " part and phase and overflows below sigma 2e-154 (output_check.py:50),"
        " and it needs geometry.n_points",
    ),
    "version": "no scenario",
}


def oracle(case: dict, record: dict) -> list[str] | None:
    """The oracle's problems with the exit-0 output of ``case`` in the working
    directory, or None for a case outside its domain, named in ``UNCHECKED``."""
    if case["name"] in UNCHECKED:
        return None
    scn = json.loads(case["config"])
    csv_text = Path("out.csv").read_text(encoding="utf-8")
    if case["argv"][0] == "invariance":
        times = [float(t) for t in case["argv"][-1].split(",")]
        return output_check.check_invariance(csv_text, record["stdout"], scn, times)
    return output_check.check_sweep(csv_text, scn)


def exit_and_stream_problems(case: dict, record: dict) -> list[str]:
    """How ``record`` breaks the exit code its case declares or the stream rule:
    a CSV exactly when a subcommand ran and exited 0 or 7, stdout exactly when
    the exit is 0 or 7, stderr exactly when it is not 0."""
    name, code = case["name"], record["exit"]
    problems = [f"EXIT {name}: declared {case['exit']}, ran {code}"] if code != case["exit"] else []
    subcommand = case["argv"][:1] in (["sweep"], ["invariance"])
    streams = {  # stream: (written, expected)
        "CSV": (record["csv_sha256"] is not None, code in (0, 7) and subcommand),
        "stdout": (record["stdout"] != "", code in (0, 7)),
        "stderr": (record["stderr"] != "", code != 0),
    }
    return problems + [
        f"STREAM {name}: {stream} {'written' if written else 'missing'} under exit {code}"
        for stream, (written, expected) in streams.items() if written != expected
    ]


def compare(contract: dict) -> tuple[dict, list[str], list[str], list[str]]:
    """Run every case here: the new records, a DIFF block per differing record,
    the exit, stream and oracle problems (one oracle line a case: its first
    problem and how many more), and the exit-0 cases outside the oracle's domain."""
    records, diffs, problems, unchecked = {}, [], [], []
    for case in build_cases():
        old = contract["records"].get(case["name"])
        records[case["name"]] = new = run_case(case)
        if old is None or old["input_sha256"] != new["input_sha256"]:
            fields = ["input changed, outputs not compared" if old else "no record"]
        else:
            fields = [f"{key}: {old[key]!r} -> {new[key]!r}" for key in new if old[key] != new[key]]
        if fields:
            diffs.append("\n  ".join([f"DIFF {case['name']}: {' '.join(case['argv'])}", *fields]))
        problems += exit_and_stream_problems(case, new)
        try:
            found = oracle(case, new) if new["exit"] == 0 else []
        except Exception as exc:  # the oracle's own failure: a problem, not a crash
            found = [f"{type(exc).__name__}: {exc}"]
        if found is None:
            unchecked.append(case["name"])
        elif found:  # one line a case, however many of its rows are wrong
            more = f" (+{len(found) - 1} more)" if len(found) > 1 else ""
            problems.append(f"ORACLE {case['name']}: {found[0]}{more}")
    diffs += [f"DIFF {name}: no such case" for name in sorted(contract["records"].keys() - records)]
    return records, diffs, problems, unchecked


def main() -> int:
    contract = json.loads(CONTRACT.read_text(encoding="utf-8"))
    previous = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="cli_contract_") as scratch:
        os.chdir(scratch)
        print(f"running every case in {scratch}")
        try:
            records, diffs, problems, unchecked = compare(contract)
        finally:
            os.chdir(previous)
    exits = sorted(record["exit"] for record in records.values())
    tally = ", ".join(f"{exits.count(code)} exit {code}" for code in sorted(set(exits)))
    old = contract["records"]
    kept = records.keys() & old.keys()
    changed = sum(records[name] != old[name] for name in kept)
    fields = Counter(
        key for name in kept for key in old[name] if old[name][key] != records[name][key]
    )
    per_field = ", ".join(f"{key} {n}" for key, n in sorted(fields.items()))
    print(*diffs, f"{len(records)} cases ({tally}); {len(diffs)} differ", sep="\n")
    print(f"records: {len(records.keys() - old)} added, {changed} changed"
          f"{f' ({per_field})' if per_field else ''}, {len(old.keys() - records)} removed")
    print(*problems, f"exit, stream and oracle problems: {len(problems)}; {len(unchecked)} "
          "exit-0 cases outside the oracle's domain", sep="\n")
    text = json.dumps({**versions(), "records": records}, indent=1, sort_keys=True)
    CONTRACT.write_text(text + "\n", encoding="utf-8")
    return 1 if diffs or problems else 0


if __name__ == "__main__":
    sys.exit(main())
