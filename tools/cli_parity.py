"""Compare two platesim source trees through ``simulate``, case by case.

    python3 tools/cli_parity.py BASE_SRC NEW_SRC

BASE_SRC and NEW_SRC are ``src`` directories (each holds ``platesim/``).
Each tree runs every case through its own ``platesim.cli.main``, in a child
process of its own with ``PYTHONPATH=<tree>`` and a fresh working directory,
so the paths that messages quote read the same on both sides.  A case
records the exit code, the SHA-256 of the CSV (or that none was written),
stdout and stderr; an exception that escapes ``main`` is recorded as exit 1
with its type and message.

The cases, over ``bench/scenario_gen.py`` seeds:

* Gaussian sweeps at 200 and 4000 rows;
* Gaussian invariance at ``0,-0,1,1e3,1e6,1e9,1e12,75,75,3.5``;
* grid sweeps, grid invariance at 20 times below the wraparound limit, and
  grid invariance at ``0,1e4,5``, which exits 8;
* one scenario per documented refusal (exits 2 to 7), under both
  subcommands, and command-line usage errors.

Prints every case whose record differs and exits 1 if any does, else 0.
Uses only the standard library, and only reads ``bench/``.  It is a review
aid for changes that must keep the command line's bytes; the tier-1 tests
do not run it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GAUSSIAN_SEEDS = range(150)
GRID_SEEDS = range(12)
GAUSSIAN_TIMES = "0,-0,1,1e3,1e6,1e9,1e12,75,75,3.5"
WRAPAROUND_TIMES = "0,1e4,5"
GRID_TIMES = 20

GAUSSIAN = {
    "packet_alpha": {"x0": 0.0, "sigma": 1.0, "k0": 12.0},
    "packet_beta": {"x0": 0.5, "sigma": 1.2, "k0": 12.8},
}
GRID = {"x_min": -40.0, "dx": 0.0625, "n": 4096}


def _with(base: dict, **sections) -> dict:
    """A copy of ``base`` with the given top-level entries replaced."""
    return {**json.loads(json.dumps(base)), **sections}


def _refusals() -> dict[str, dict]:
    """One scenario for each refusal the loader or a run documents."""
    alpha, beta = GAUSSIAN["packet_alpha"], GAUSSIAN["packet_beta"]
    grid = _with(GAUSSIAN, representation="grid", grid=GRID)
    return {
        "unknown_key": _with(GAUSSIAN, extra=1),
        "wrong_type": _with(GAUSSIAN, packet_alpha={**alpha, "sigma": "1"}),
        "integer_beyond_double_range": _with(GAUSSIAN, packet_alpha={**alpha, "x0": 10**400}),
        "missing_grid": _with(GAUSSIAN, representation="grid"),
        "lossy_splitter": _with(
            GAUSSIAN, splitter={"r_re": 0.7, "r_im": 0.0, "t_re": 0.6, "t_im": 0.0}
        ),
        "inverted_range": _with(GAUSSIAN, geometry={"l2_min": 5.0, "l2_max": 1.0}),
        "flight_time": _with(GAUSSIAN, geometry={"c": 1e-320}),
        "carrier_frequency": _with(GAUSSIAN, geometry={"c": 1e308}),
        "phase_at_l1": _with(
            GAUSSIAN, packet_beta={**beta, "k0": 100.0}, geometry={"l1": 1e308}
        ),
        "phase_at_l2_max": _with(
            GAUSSIAN, packet_beta={**beta, "k0": 100.0}, geometry={"l2_max": 1e308}
        ),
        "sigma_square": _with(GAUSSIAN, packet_beta={"x0": 0.0, "sigma": 1e-300, "k0": 1e301}),
        "phase_difference": _with(
            GAUSSIAN,
            packet_alpha={**alpha, "phase": 1e308},
            packet_beta={**beta, "phase": -1e308},
        ),
        "closed_form_overlap": _with(
            GAUSSIAN, packet_alpha={"x0": 0.0, "sigma": 1e-154, "k0": 1e155}
        ),
        "vanishing_default_span": _with(
            GAUSSIAN, packet_alpha={"x0": 0.0, "sigma": 1e-150, "k0": 1e151}
        ),
        "n_points_ceiling": _with(GAUSSIAN, geometry={"n_points": 2**21 + 1}),
        "grid_n_ceiling": _with(grid, grid={**GRID, "n": 2**19 + 1}),
        "grid_window": _with(grid, grid={"x_min": -2.0, "dx": 0.0625, "n": 64}),
        "grid_phase": _with(
            grid, packet_beta={**beta, "phase": -1.5e308}, geometry={"l2_max": 1e308}
        ),
        "degenerate_preparation": _with(
            GAUSSIAN, packet_beta={**alpha, "phase": 3.141592653589793}
        ),
        "grid_tolerance": _with(grid, tolerances={"grid_tol": 1e-18}),
    }


def _case(name: str, argv: list[str], scenario: dict | None = None, text: str | None = None):
    if scenario is not None:
        text = json.dumps(scenario)
    return {"name": name, "argv": argv, "config": text}


def build_cases() -> list[dict]:
    sys.path.insert(0, str(ROOT / "bench"))
    import scenario_gen

    sweep = ["sweep", "--config", "scenario.json", "--out", "out.csv"]
    invariance = ["invariance", "--config", "scenario.json", "--out", "out.csv", "--times"]
    cases = []
    for seed in GAUSSIAN_SEEDS:
        for rows in (200, 4000):
            scn = scenario_gen.scenario(seed, rows)
            cases.append(_case(f"gaussian_sweep_{rows}[{seed}]", sweep, scn))
        scn = scenario_gen.scenario(seed)
        cases.append(_case(f"gaussian_invariance[{seed}]", [*invariance, GAUSSIAN_TIMES], scn))
    for seed in GRID_SEEDS:
        scn = scenario_gen.scenario(seed, grid=True)
        times = ",".join(repr(t) for t in scenario_gen.invariance_times(seed, scn, GRID_TIMES))
        cases.append(_case(f"grid_sweep[{seed}]", sweep, scn))
        cases.append(_case(f"grid_invariance[{seed}]", [*invariance, times], scn))
        cases.append(_case(f"grid_wraparound[{seed}]", [*invariance, WRAPAROUND_TIMES], scn))
    for name, scn in _refusals().items():
        cases.append(_case(f"{name}[sweep]", sweep, scn))
        cases.append(_case(f"{name}[invariance]", [*invariance, "0,40,120"], scn))
    cases += [
        _case("missing_config", ["sweep", "--config", "missing.json", "--out", "out.csv"]),
        _case("config_directory", ["sweep", "--config", ".", "--out", "out.csv"]),
        _case("not_json", sweep, text="{"),
        _case("unwritable_output", [*sweep[:-1], "no/out.csv"], GAUSSIAN),
        _case("negative_time", [*invariance, "-1"], GAUSSIAN),
        _case("junk_times", [*invariance, "0,x"], GAUSSIAN),
        _case("missing_subcommand", []),
        _case("version", ["--version"]),
    ]
    return cases


def run_cases(cases_path: str, results_path: str) -> None:
    """The child: run each case through this tree's ``cli.main`` in the cwd."""
    from platesim import cli

    results = {}
    for case in json.loads(Path(cases_path).read_text(encoding="utf-8")):
        for name in ("scenario.json", "out.csv"):
            Path(name).unlink(missing_ok=True)
        if case["config"] is not None:
            Path("scenario.json").write_text(case["config"], encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(case["argv"])
            except SystemExit as exc:  # argparse: usage errors, --version
                code = exc.code
            except Exception as exc:  # escaped main: a traceback under exit 1
                code = 1
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        out = Path("out.csv")
        results[case["name"]] = {
            "exit": code,
            "csv_sha256": hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None,
            "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(),
        }
    Path(results_path).write_text(json.dumps(results), encoding="utf-8")


def _start(src: Path, cases_path: Path, workdir: Path) -> subprocess.Popen:
    workdir.mkdir()
    results = workdir.parent / f"{workdir.name}.json"
    code = (
        "import sys, platesim\n"
        f"assert platesim.__file__.startswith({str(src)!r}), platesim.__file__\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "import cli_parity\n"
        f"cli_parity.run_cases({str(cases_path)!r}, {str(results)!r})\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen([sys.executable, "-c", code], cwd=workdir, env=env)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    srcs = [Path(arg).resolve() for arg in argv]
    for src in srcs:
        if not (src / "platesim" / "cli.py").is_file():
            print(f"error: no platesim/cli.py under {src}", file=sys.stderr)
            return 2
    cases = build_cases()
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        cases_path = tmp_path / "cases.json"
        cases_path.write_text(json.dumps(cases), encoding="utf-8")
        sides = ("base", "new")
        children = [_start(src, cases_path, tmp_path / side) for src, side in zip(srcs, sides)]
        if any([child.wait() != 0 for child in children]):  # a list: wait for both
            print("error: a child process failed", file=sys.stderr)
            return 2
        base, new = (json.loads((tmp_path / f"{side}.json").read_text()) for side in sides)
    differing = 0
    for case in cases:
        name = case["name"]
        fields = [key for key in base[name] if base[name][key] != new[name][key]]
        if fields:
            differing += 1
            print(f"DIFF {name}: {' '.join(case['argv'])}")
            for key in fields:
                print(f"  {key}: {base[name][key]!r} -> {new[name][key]!r}")
    exits = Counter(base[case["name"]]["exit"] for case in cases)
    tally = ", ".join(f"{count} exit {code}" for code, count in sorted(exits.items()))
    print(f"{len(cases)} cases at BASE_SRC ({tally}); {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
