"""Pin ``simulate``'s bytes and check its numbers: run every case, compare each
with its record, its declared exit code and the stream rule, and hand each
exit-0 output to the independent oracle.

    PYTHONPATH=src python3 tools/cli_parity.py

Runs every case through the imported ``platesim.cli.main`` in one process, in
a temporary directory whose path it prints and which it removes afterwards,
with warnings raised as errors.  The ``committed_*`` cases run the committed
``scenarios/*.json``, each case's config its file's text: both sweeps, and the
grid invariance at two lists of times.  The other cases, over
``bench/scenario_gen.py`` seeds, reach every exit code and every loader rule.
Each declares its exit code where it is built, a ``(sweep, invariance)`` pair
per group of ``_refusals``; ``exit_and_stream_problems`` states the stream rule.
``bench/output_check.py`` re-derives each exit-0 output without platesim;
``UNCHECKED`` names the cases outside its domain, and an exception the oracle
raises is a problem of its case.
``compare`` keys each finding, a DIFF or an exit, stream or oracle problem, by
the name of its case, so ``tests/test_cli_contract.py`` checks every case under
its own test id and ``tools/mutants.py`` counts killing cases by family.  It
also keeps each case's CSV bytes: tier-1 runs it once a session
(``tests/conftest.py``), and a test that checks a contract case's output reads
it there.  ``run_case`` is tier-1's one way to run ``simulate`` in-process; each
other run is held to ``exit_and_stream_problems`` too.
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
COMMITTED_LONG_TIMES = "0,-0," + ",".join(str(3 * k) for k in range(1, 51)) + ",75,0.5"

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


def _refusals() -> dict[tuple[int, int], dict[str, dict | list]]:
    """One scenario for each refusal the loader or a run documents, under the
    exit codes its ``sweep`` and its ``invariance`` run declare."""
    alpha, beta = GAUSSIAN["packet_alpha"], GAUSSIAN["packet_beta"]
    centered_beta = {"x0": 0.0, "sigma": 1.0, "k0": 12.8}
    grid = _with(GAUSSIAN, representation="grid", grid=GRID)
    nyquist_grid = {"x_min": -40.0, "dx": 0.5, "n": 512}  # resolves k up to 2 pi
    # both 1 / (2 sigma^2) are 0
    both_wide = {
        "packet_alpha": {"x0": 0.0, "sigma": 1e154, "k0": 1.0},
        "packet_beta": {"x0": 0.0, "sigma": 1e154, "k0": 1.1},
    }
    committed_grid = json.loads((ROOT / "scenarios" / "grid.json").read_text(encoding="utf-8"))
    return {
        (3, 3): {
            "unknown_key": _with(GAUSSIAN, extra=1),
            "unknown_nested_key": _with(GAUSSIAN, geometry={"tilt": 0.4}),
            "missing_packet": {"packet_alpha": alpha},
            "missing_packet_field": _with(GAUSSIAN, packet_alpha={"x0": 0.0, "k0": 12.0}),
            "non_object_config": [1, 2, 3],
            "unknown_representation": _with(GAUSSIAN, representation="matrix"),
            "wrong_type": _with(GAUSSIAN, packet_alpha={**alpha, "sigma": "1"}),
            "bool_is_not_a_number": _with(GAUSSIAN, packet_alpha={**alpha, "x0": True}),
            "fractional_n_points": _with(GAUSSIAN, geometry={"n_points": 2.5}),
            "integer_beyond_double_range": _with(GAUSSIAN, packet_alpha={**alpha, "x0": 10**400}),
            "integer_below_double_range": _with(GAUSSIAN, packet_alpha={**alpha, "x0": -(10**400)}),
            "grid_n_beyond_double_range": _with(grid, grid={**GRID, "n": 10**400}),
            "grid_n_below_double_range": _with(grid, grid={**GRID, "n": -(10**400)}),
            "missing_grid": _with(GAUSSIAN, representation="grid"),
        },
        (4, 4): {
            "nonpositive_sigma": _with(GAUSSIAN, packet_alpha={**alpha, "sigma": -1.0}),
            "slow_carrier": _with(GAUSSIAN, packet_alpha={**alpha, "k0": 2.0}),  # k0 * sigma < 4
            "nonpositive_l1": _with(GAUSSIAN, geometry={"l1": 0.0}),
            "nonpositive_l2_min": _with(GAUSSIAN, geometry={"l2_min": -1.0}),
            "nonpositive_n_points": _with(GAUSSIAN, geometry={"n_points": 0}),
            "nonpositive_grid_spacing": _with(grid, grid={**GRID, "dx": -1.0}),
            # a Gaussian run samples on no grid, but reads its grid section
            "nonpositive_grid_spacing_gaussian": _with(GAUSSIAN, grid={**GRID, "dx": -1.0}),
            "nonpositive_tolerance": _with(GAUSSIAN, tolerances={"grid_tol": 0.0}),
            "lossy_splitter": _with(
                GAUSSIAN, splitter={"r_re": 0.7, "r_im": 0.0, "t_re": 0.6, "t_im": 0.0}
            ),
            "inverted_range": _with(GAUSSIAN, geometry={"l2_min": 5.0, "l2_max": 1.0}),
            # Each breaks two rules: the loader reports the earlier one, so the
            # order of the rules decides the stderr line and the key path.
            "inverted_range_and_flight_time": _with(
                GAUSSIAN, geometry={"c": 1e-320, "l2_min": 5.0, "l2_max": 1.0}
            ),
            "flight_time_before_closed_form": _with(both_wide, geometry={"c": 1e-320}),
            "alpha_support_before_alpha_nyquist": _with(
                grid, grid=nyquist_grid, packet_alpha={**alpha, "x0": -39.0}
            ),
            "alpha_nyquist_before_beta_support": _with(
                grid, grid=nyquist_grid, packet_beta={**beta, "x0": 210.0}
            ),
            "nonpositive_speed": _with(GAUSSIAN, geometry={"c": 0.0}),
            # l1 / c overflows: writing rows would put inf and NaN under exit 0
            "flight_time": _with(GAUSSIAN, geometry={"c": 1e-320}),
            "flight_time_long_l1": _with(GAUSSIAN, geometry={"c": 1e-300, "l1": 1e10}),
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
            "sigma_square_alpha": _with(
                GAUSSIAN, packet_alpha={"x0": 0.0, "sigma": 1e-300, "k0": 1e301}
            ),
            # its square overflows, where sigma_square's underflows
            "sigma_square_overflow": _with(
                GAUSSIAN, packet_beta={"x0": 0.0, "sigma": 1e200, "k0": 12.0}
            ),
            "sigma_square_overflow_alpha": _with(
                GAUSSIAN, packet_alpha={"x0": 0.0, "sigma": 1e200, "k0": 12.0}
            ),
            # |r|^2 + |t|^2 overflows
            "plate_amplitude_overflow": _with(
                GAUSSIAN, packet_beta=centered_beta,
                splitter={"r_re": 0.0, "r_im": 0.0, "t_re": 0.0, "t_im": 1e155},
            ),
            "plate_amplitude_overflow_r": _with(
                GAUSSIAN, splitter={"r_re": 1e308, "r_im": 1e308, "t_re": 0.0, "t_im": 0.0}
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
            "closed_form_overlap_both_wide": both_wide,
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
            "n_points_1e12": _with(GAUSSIAN, geometry={"n_points": 10**12}),
            "n_points_2_40": _with(GAUSSIAN, geometry={"n_points": 2**40}),
            "grid_n_ceiling": _with(grid, grid={**GRID, "n": 2**19 + 1}),
            "grid_n_1e12": _with(grid, grid={**GRID, "n": 10**12}),
            "grid_n_2_40": _with(grid, grid={**GRID, "n": 2**40}),
            "grid_window": _with(grid, grid={"x_min": -2.0, "dx": 0.0625, "n": 64}),
            "grid_nyquist": _with(grid, grid=nyquist_grid),
            # Without the loader's refusal, the sampled beta lost its carrier, the
            # spectral centroid moved, and sweep stopped with "ValueError: math
            # domain error" under exit 1.
            "grid_phase": _with(
                grid, packet_beta={**beta, "phase": -1.5e308}, geometry={"l2_max": 1e308}
            ),
            "grid_phase_alpha": _with(grid, packet_alpha={**alpha, "phase": -1.5e308}),
            # a grid keeps the carrier to 2**-32 rad up to |phase| 2**20
            "grid_phase_above_2_20": _with(grid, packet_beta={**beta, "phase": 2.0**20 + 1.0}),
            "grid_phase_above_2_20_alpha": _with(
                grid, packet_alpha={**alpha, "phase": 2.0**20 + 1.0}
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


def make_case(name: str, code: int | None, argv: list[str], scenario: dict | None = None,
              text: str | None = None):
    """A case: its name, the exit code it declares, its argv and its config text.
    A test's drawn scenario declares None: it may exit with any documented code."""
    if scenario is not None:
        text = json.dumps(scenario)
    return {"name": name, "argv": argv, "config": text, "exit": code}


SWEEP = ["sweep", "--config", "scenario.json", "--out", "out.csv"]
INVARIANCE = ["invariance", "--config", "scenario.json", "--out", "out.csv", "--times"]


def build_cases() -> list[dict]:
    # The committed scenarios, each case's config the file's text.  The
    # sweeps' bytes were first written by the row-by-row sweep that the
    # columnar one replaced, and the long invariance run's by the flight that
    # transformed every arm afresh at each time, before the spectra and phases
    # were cached; its times repeat one value, include -0 and leave time order.
    default = (ROOT / "scenarios" / "default.json").read_text(encoding="utf-8")
    grid = (ROOT / "scenarios" / "grid.json").read_text(encoding="utf-8")
    cases = [
        make_case("committed_default[sweep]", 0, SWEEP, text=default),
        make_case("committed_grid[sweep]", 0, SWEEP, text=grid),
        make_case("committed_grid[invariance]", 0, [*INVARIANCE, "0,30,60,120"], text=grid),
        make_case("committed_grid_long[invariance]", 0, [*INVARIANCE, COMMITTED_LONG_TIMES],
              text=grid),
    ]
    for seed in GAUSSIAN_SEEDS:
        scn = scenario_gen.scenario(seed, 200)
        cases.append(make_case(f"gaussian_sweep_200[{seed}]", 0, SWEEP, scn))
        scn = scenario_gen.scenario(seed)
        cases.append(
            make_case(f"gaussian_invariance[{seed}]", 0, [*INVARIANCE, GAUSSIAN_TIMES], scn)
        )
    for seed in GRID_SEEDS:
        scn = scenario_gen.scenario(seed, grid=True)
        times = ",".join(repr(t) for t in scenario_gen.invariance_times(seed, scn, GRID_TIMES))
        cases.append(make_case(f"grid_sweep[{seed}]", 0, SWEEP, scn))
        cases.append(make_case(f"grid_invariance[{seed}]", 0, [*INVARIANCE, times], scn))
        cases.append(make_case(f"grid_wraparound[{seed}]", 8, [*INVARIANCE, WRAPAROUND_TIMES], scn))
    # beta at x0 = 40 crosses the edge at 216 by t = 176; alpha, 40 behind it, does not
    beta_edge = _with(
        GAUSSIAN, representation="grid", grid=GRID,
        packet_beta={**GAUSSIAN["packet_beta"], "x0": 40.0},
    )
    cases.append(
        make_case("grid_wraparound_beta_only", 8, [*INVARIANCE, BETA_EDGE_TIMES], beta_edge)
    )
    # The k0 differ, but c * k0 is one double for both: the rows' d_omega is
    # 0, so the printed period is inf and the default span is the fallback.
    cases.append(make_case("carriers_equal_in_floating_point[sweep]", 0, SWEEP, CARRIERS_EQUAL))
    cases.append(make_case("width_ratio_1e10[invariance]", 0, [*INVARIANCE, "0,5"], WIDTH_RATIO))
    cases.append(make_case("width_ratio_1e10_apart[sweep]", 0, SWEEP, WIDTH_RATIO_APART))
    for sigma, alpha in NARROW_ALPHA.items():
        scn = _with(GAUSSIAN, packet_alpha=alpha, geometry={"l2_max": 2.0})
        cases.append(make_case(f"narrow_alpha_{sigma}[sweep]", 0, SWEEP, scn))
        cases.append(make_case(f"narrow_alpha_{sigma}[invariance]", 0, [*INVARIANCE, "0,5"], scn))
    # |r|^2 + |t|^2 is 1 + 4e-10, inside UNITARITY_TOL: both rates come out
    # above 1, and are written as 1 only because the rate is clamped to [0, 1].
    edge = _with(
        GAUSSIAN, splitter={"r_re": 1.0000000002, "r_im": 0.0, "t_re": 0.0, "t_im": 0.0},
        geometry={"l1": 1.0, "l2_min": 1.0, "n_points": 200, "c": 1.0}, preparation_phi=0.0,
    )
    cases.append(make_case("unitarity_edge_plate[sweep]", 0, SWEEP, edge))
    cases.append(make_case("unitarity_edge_plate[invariance]", 0, [*INVARIANCE, "0,5"], edge))
    # Every column constant, so every value sits in the writer's line template:
    # one row, and two equal times.  Then two times equal by value, not by bits.
    # The one row's scenario spells out the loader's defaults the oracle reads.
    single_row = _with(
        GAUSSIAN, splitter={"r_re": 0.5**0.5, "r_im": 0.0, "t_re": 0.0, "t_im": 0.5**0.5},
        geometry={"l1": 1.0, "l2_min": 1.0, "n_points": 1, "c": 1.0}, preparation_phi=0.0,
    )
    cases += [
        make_case("single_row[sweep]", 0, SWEEP, single_row),
        make_case("repeated_time[invariance]", 0, [*INVARIANCE, "5,5"], GAUSSIAN),
        make_case("signed_zero_times[invariance]", 0, [*INVARIANCE, "0,-0"], GAUSSIAN),
    ]
    refused_at = [*INVARIANCE, "0,40,120"]
    for (sweep_exit, invariance_exit), refusals in _refusals().items():
        for name, scn in refusals.items():
            cases.append(make_case(f"{name}[sweep]", sweep_exit, SWEEP, scn))
            cases.append(make_case(f"{name}[invariance]", invariance_exit, refused_at, scn))
    cases += [
        make_case("missing_config", 2, ["sweep", "--config", "missing.json", "--out", "out.csv"]),
        make_case("config_directory", 2, ["sweep", "--config", ".", "--out", "out.csv"]),
        make_case("not_json", 3, SWEEP, text="{"),
        # past int's digit limit, and nested past the recursion limit
        make_case("long_integer", 3, SWEEP, text='{"packet_alpha": {"x0": 1' + "0" * 5000 + "}}"),
        make_case("deep_nesting", 3, SWEEP, text="[" * 100_000),
        make_case("unwritable_output", 5, [*SWEEP[:-1], "no/out.csv"], GAUSSIAN),
        make_case("negative_time", 2, [*INVARIANCE, "-1"], GAUSSIAN),
        make_case("junk_times", 2, [*INVARIANCE, "0,x"], GAUSSIAN),
        make_case("missing_subcommand", 2, []),
        make_case("version", 0, ["--version"]),
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
    "committed_grid[sweep]": GRID_SWEEP,
    "committed_default[sweep]": "no geometry section: the oracle reads geometry.n_points",
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


def compare(contract: dict) -> tuple[dict, dict[str, list[str]], list[str], dict]:
    """Run every case here: the new records; the findings of each case, keyed by
    its name, a DIFF block if its record differs, then its exit, stream and oracle
    problems (one oracle line a case: its first problem and how many more), and a
    DIFF line under the name of each record of no case; the exit-0 cases outside
    the oracle's domain; and each case's CSV bytes, None where it wrote none, so
    a test that checks a case's output reads it here instead of running it again."""
    records, findings, unchecked, outputs = {}, {}, [], {}
    for case in build_cases():
        name = case["name"]
        old = contract["records"].get(name)
        records[name] = new = run_case(case)
        outputs[name] = Path("out.csv").read_bytes() if new["csv_sha256"] else None
        if old is None or old["input_sha256"] != new["input_sha256"]:
            fields = ["input changed, outputs not compared" if old else "no record"]
        else:
            fields = [f"{key}: {old[key]!r} -> {new[key]!r}" for key in new if old[key] != new[key]]
        lines = ["\n  ".join([f"DIFF {name}: {' '.join(case['argv'])}", *fields])] if fields else []
        lines += exit_and_stream_problems(case, new)
        try:
            found = oracle(case, new) if new["exit"] == 0 else []
        except Exception as exc:  # the oracle's own failure: a problem, not a crash
            found = [f"{type(exc).__name__}: {exc}"]
        if found is None:
            unchecked.append(name)
        elif found:  # one line a case, however many of its rows are wrong
            more = f" (+{len(found) - 1} more)" if len(found) > 1 else ""
            lines.append(f"ORACLE {name}: {found[0]}{more}")
        findings[name] = lines
    for name in sorted(contract["records"].keys() - records):
        findings[name] = [f"DIFF {name}: no such case"]
    return records, findings, unchecked, outputs


def main() -> int:
    contract = json.loads(CONTRACT.read_text(encoding="utf-8"))
    previous = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="cli_contract_") as scratch:
        os.chdir(scratch)
        print(f"running every case in {scratch}")
        try:
            records, findings, unchecked, _ = compare(contract)
        finally:
            os.chdir(previous)
    lines = [line for found in findings.values() for line in found]
    diffs = [line for line in lines if line.startswith("DIFF ")]
    problems = [line for line in lines if not line.startswith("DIFF ")]
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
