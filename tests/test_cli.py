"""Command line: CSV shape, the writer's constant columns, summaries, the
narrow-packet overlap, and the paths
that ``tests/cli_contract.json`` cannot reach (an unreadable file, an injected
error or NaN).  Every refusal's bytes live in that file, and each case declares
its exit code where ``tools/cli_parity.py`` builds it.  A check of a contract
case's output reads its record and CSV from the session's one pass
(``contract_pass``); every other run here goes through the ``simulate`` fixture,
held to the exit code its case declares and to the stream rule (both in
``tests/conftest.py``).  Byte-identical CSV across sessions is acceptance
criterion 6."""

from __future__ import annotations

import csv
import importlib
from array import array
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import platesim
from cli_parity import INVARIANCE, NARROW_ALPHA, SWEEP, make_case
from conftest import CASES, assert_overlap_is_exact
from platesim import cli
from platesim.config import ConfigError, InvariantError, SchemaError
from platesim.models import DegeneratePreparationError
from platesim.packets import GaussianPacket, WraparoundError

DEFAULT = "committed_default[sweep]"
GAUSSIAN_SCENARIO = json.loads(CASES[DEFAULT]["config"])
GRID_SCENARIO = {
    "representation": "grid",
    "packet_alpha": {"x0": 0.0, "sigma": 1.0, "k0": 12.0},
    "packet_beta": {"x0": 0.0, "sigma": 1.0, "k0": 12.8},
    "grid": {"x_min": -40.0, "dx": 0.0625, "n": 4096},
}

SWEEP_HEADER = "l2,t2,eps_exact_re,eps_exact_im,eps_wss_re,eps_wss_im,rate_exact,rate_wss"


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(text.splitlines()))


def _summary_values(captured):
    out = {}
    for line in captured.splitlines():
        key, _, value = line.partition(":")
        if value:
            out[key.strip()] = float(value)
    return out


@pytest.fixture
def default_sweep(contract_pass):
    """The committed default sweep's record and CSV text, from the session's pass."""
    records, _, _, outputs = contract_pass
    return records[DEFAULT], outputs[DEFAULT].decode()


def test_sweep_writes_csv_and_exits_zero(default_sweep):
    record, text = default_sweep
    assert record["exit"] == 0
    lines = text.splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + 200  # default n_points
    assert "\r" not in text

    summary = _summary_values(record["stdout"])
    assert summary["max |d rate_exact|"] == 0.0
    assert summary["max |d rate_wss|"] > 1e-3
    assert summary["spatial period"] == pytest.approx(2.0 * math.pi / 0.8, rel=1e-5)


@pytest.mark.parametrize("columns", [
    [[0.1, 0.1, 0.1], [-0.0, -0.0, -0.0]],  # every column constant: still a row each
    [[0.0, -0.0, 0.0], [0.1, 0.2, 0.3]],  # equal by value, not by bits
    [[math.nan] * 2, [math.nan, -math.nan], [math.inf, -math.inf]],  # NaN of either sign
    [[0.25], [-1e300], [5e-324]],  # one row
], ids=["constant", "signed-zero", "nan", "single-row"])
def test_csv_writer_writes_each_value_in_its_row(tmp_path, columns):
    # A constant column is formatted once, into the line template; every
    # value is still written in its own row, as "%.17g" formats it.
    out = tmp_path / "columns.csv"
    header = [f"c{i}" for i in range(len(columns))]
    cli._write_csv(out, header, [array("d", column) for column in columns])
    rows = "".join(",".join("%.17g" % v for v in row) + "\n" for row in zip(*columns))
    assert out.read_text(encoding="utf-8") == ",".join(header) + "\n" + rows


def test_sweep_summary_recomputable_from_csv(default_sweep):
    record, text = default_sweep
    summary = _summary_values(record["stdout"])

    rows = _rows(text)
    eps_re = {float(r["eps_exact_re"]) for r in rows}
    assert len(eps_re) == 1
    assert summary["eps_exact_re"] == pytest.approx(eps_re.pop(), rel=1e-5)
    rates = [float(r["rate_wss"]) for r in rows]
    assert summary["max |d rate_wss|"] == pytest.approx(
        max(rates) - min(rates), rel=1e-5
    )


def test_csv_values_round_trip_doubles(default_sweep):
    first = _rows(default_sweep[1])[0]
    # 17 significant digits reproduce the exact double
    assert float(first["eps_exact_re"]) == pytest.approx(0.852143788966211, abs=1e-15)


def test_unreadable_config_exits_2(simulate, monkeypatch):
    def unreadable(self, *args, **kwargs):  # what a mode-000 file gives a non-root user
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", unreadable)
    record, _ = simulate(make_case("unreadable_config", 2, SWEEP, text="{}"))  # never read
    assert record["stderr"].startswith("error: cannot read config file: ")


def test_grid_phase_of_two_to_the_twenty_runs(simulate):
    scenario = json.loads(CASES["committed_grid[sweep]"]["config"])
    scenario["packet_beta"]["phase"] = 2**20
    _, out = simulate(make_case("grid_phase_2_to_the_20", 0, SWEEP, scenario))
    rows = list(csv.reader(out.decode().splitlines()))[1:]
    assert len(rows) == 200
    assert all(math.isfinite(float(value)) for row in rows for value in row)


def test_every_error_class_the_package_defines_maps_to_an_exit_code(simulate, monkeypatch):
    modules = [platesim] + [
        importlib.import_module(f"platesim.{info.name}")
        for info in pkgutil.iter_modules(platesim.__path__)
    ]
    defined = {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type)
        and issubclass(value, BaseException)
        and value.__module__ == module.__name__
    }
    # ConfigError is only the common base of the loader's two errors.
    assert defined == {
        ConfigError, SchemaError, InvariantError, DegeneratePreparationError, WraparoundError
    }
    assert issubclass(SchemaError, ConfigError) and issubclass(InvariantError, ConfigError)
    for error, code in (
        (SchemaError("key", "refused"), 3),
        (InvariantError("key", "refused"), 4),
        (DegeneratePreparationError("refused"), 6),
        (WraparoundError("refused"), 8),
    ):

        def run_sweep(cfg, out, error=error):
            raise error

        monkeypatch.setattr(cli, "run_sweep", run_sweep)
        record, _ = simulate(make_case("injected_error", code, SWEEP, GAUSSIAN_SCENARIO))
        assert "refused" in record["stderr"]


def test_invariance_analytic_exits_zero(simulate):
    case = make_case("invariance", 0, [*INVARIANCE, "0,5,25,60,120"], GAUSSIAN_SCENARIO)
    record, out = simulate(case)
    lines = out.decode().splitlines()
    assert lines[0] == "t,eps_re,eps_im,abs_dev_from_t0"
    assert len(lines) == 1 + 5
    assert "invariance: ok" in record["stdout"]


def test_invariance_analytic_keeps_the_overlap_exactly_in_long_flights(simulate):
    # Distinct centers: a flight folded into each center would round the
    # separation (4.9e-07 off at t = 1e9).
    scenario = {
        "packet_alpha": {"x0": 0.0, "sigma": 1.0, "k0": 12.0},
        "packet_beta": {"x0": 0.3, "sigma": 1.0, "k0": 12.8},
    }
    times = "0,100,1e4,1e6,1e9,1e12"
    record, out = simulate(make_case("long_flights", 0, [*INVARIANCE, times], scenario))
    rows = _rows(out.decode())
    assert len(rows) == 6
    assert [float(row["abs_dev_from_t0"]) for row in rows] == [0.0] * 6
    assert "max |dev from t0|: 0\n" in record["stdout"]


def test_invariance_analytic_at_overflowing_flights_repeats_the_t0_row(simulate):
    # c * t is inf for every arm; equal infinite flights are no relative flight.
    scenario = {
        "packet_alpha": {"x0": 0, "sigma": 1, "k0": 12},
        "packet_beta": {"x0": 0.5, "sigma": 1.2, "k0": 12.8},
        "geometry": {"c": 2},
    }
    times = "0,1e308,1.7e308"
    record, out = simulate(make_case("overflowing_flights", 0, [*INVARIANCE, times], scenario))
    rows = [line.partition(b",")[2] for line in out.split(b"\n")[1:-1]]
    assert rows == [rows[0]] * 3
    assert "invariance: ok" in record["stdout"]


def test_invariance_grid_exits_zero(simulate):
    _, out = simulate(make_case("grid_invariance", 0, [*INVARIANCE, "0,40,120"], GRID_SCENARIO))
    assert all(float(r["abs_dev_from_t0"]) <= 1e-8 for r in _rows(out.decode()))


@pytest.mark.parametrize("nan_at", [0.0, 40.0])
def test_nan_deviation_exits_7(simulate, monkeypatch, nan_at):
    # A NaN deviation at any time must fail the tolerance test, also when
    # a finite deviation comes before it.
    real = cli.overlap_at_time

    def overlap_at_time(sa, sb, t, c):
        return complex(math.nan, 0.0) if t == nan_at else real(sa, sb, t, c)

    monkeypatch.setattr(cli, "overlap_at_time", overlap_at_time)
    record, _ = simulate(make_case("nan_deviation", 7, [*INVARIANCE, "0,40,120"], GRID_SCENARIO))
    assert "max |dev from t0|: nan" in record["stdout"]
    assert "FAIL" in record["stderr"]


def test_help_lists_subcommands(simulate):
    out = simulate(make_case("help", 0, ["--help"]))[0]["stdout"]
    assert "sweep" in out and "invariance" in out


@pytest.mark.parametrize("command, column", [("sweep", "eps_exact"), ("invariance", "eps")])
@pytest.mark.parametrize("sigma", NARROW_ALPHA)
def test_narrow_packet_writes_the_exact_overlap(contract_pass, command, column, sigma):
    name = f"narrow_alpha_{sigma}[{command}]"
    _, _, _, outputs = contract_pass
    row = _rows(outputs[name].decode())[0]
    scn = json.loads(CASES[name]["config"])
    a, b = (GaussianPacket(**scn[key]) for key in ("packet_alpha", "packet_beta"))
    assert_overlap_is_exact(complex(float(row[f"{column}_re"]), float(row[f"{column}_im"])), a, b)


def test_module_runs_as_a_script():
    # the __main__ guard: `python -m platesim.cli` is main() under sys.exit
    src = str(Path(platesim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "platesim.cli", "--version"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, f"simulate {platesim.__version__}\n")
