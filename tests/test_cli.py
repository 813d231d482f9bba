"""Command line: CSV shape, summaries, the narrow-packet overlap, and the paths
that ``tests/cli_contract.json`` cannot reach (an unreadable file, an injected
error or NaN).  Every refusal's bytes live in that file, and each case declares
its exit code where ``tools/cli_parity.py`` builds it.
Byte-identical reruns are acceptance criterion 6."""

from __future__ import annotations

import csv
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cli_parity
import platesim
from conftest import assert_overlap_is_exact
from platesim import cli
from platesim.cli import main
from platesim.config import ConfigError, InvariantError, SchemaError
from platesim.models import DegeneratePreparationError
from platesim.packets import GaussianPacket, WraparoundError

CASES = {case["name"]: case for case in cli_parity.build_cases()}

GAUSSIAN_SCENARIO = {
    "packet_alpha": {"x0": 0.0, "sigma": 1.0, "k0": 12.0},
    "packet_beta": {"x0": 0.0, "sigma": 1.0, "k0": 12.8},
}

GRID_SCENARIO = {
    "representation": "grid",
    "packet_alpha": {"x0": 0.0, "sigma": 1.0, "k0": 12.0},
    "packet_beta": {"x0": 0.0, "sigma": 1.0, "k0": 12.8},
    "grid": {"x_min": -40.0, "dx": 0.0625, "n": 4096},
}

SWEEP_HEADER = "l2,t2,eps_exact_re,eps_exact_im,eps_wss_re,eps_wss_im,rate_exact,rate_wss"


def _write(tmp_path, scenario, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(scenario), encoding="utf-8")
    return path


def _summary_values(captured):
    out = {}
    for line in captured.splitlines():
        key, _, value = line.partition(":")
        if value:
            out[key.strip()] = float(value)
    return out


def test_sweep_writes_csv_and_exits_zero(tmp_path, capsys):
    cfg = _write(tmp_path, GAUSSIAN_SCENARIO)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0

    text = out.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + 200  # default n_points
    assert "\r" not in text

    summary = _summary_values(capsys.readouterr().out)
    assert summary["max |d rate_exact|"] == 0.0
    assert summary["max |d rate_wss|"] > 1e-3
    assert summary["spatial period"] == pytest.approx(2.0 * math.pi / 0.8, rel=1e-5)


def test_sweep_summary_recomputable_from_csv(tmp_path, capsys):
    cfg = _write(tmp_path, GAUSSIAN_SCENARIO)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    summary = _summary_values(capsys.readouterr().out)

    with out.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    eps_re = {float(r["eps_exact_re"]) for r in rows}
    assert len(eps_re) == 1
    assert summary["eps_exact_re"] == pytest.approx(eps_re.pop(), rel=1e-5)
    rates = [float(r["rate_wss"]) for r in rows]
    assert summary["max |d rate_wss|"] == pytest.approx(
        max(rates) - min(rates), rel=1e-5
    )


def test_csv_values_round_trip_doubles(tmp_path):
    cfg = _write(tmp_path, GAUSSIAN_SCENARIO)
    out = tmp_path / "sweep.csv"
    main(["sweep", "--config", str(cfg), "--out", str(out)])
    with out.open(encoding="utf-8", newline="") as fh:
        first = next(csv.DictReader(fh))
    # 17 significant digits reproduce the exact double
    assert float(first["eps_exact_re"]) == pytest.approx(0.852143788966211, abs=1e-15)


def test_unreadable_config_exits_2(tmp_path, capsys, monkeypatch):
    cfg = _write(tmp_path, GAUSSIAN_SCENARIO)

    def unreadable(self, *args, **kwargs):  # what a mode-000 file gives a non-root user
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", unreadable)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config file: ")


def test_grid_phase_of_two_to_the_twenty_runs(tmp_path, capsys):
    path = Path(__file__).resolve().parents[1] / "scenarios" / "grid.json"
    scenario = json.loads(path.read_text(encoding="utf-8"))
    scenario["packet_beta"]["phase"] = 2**20
    cfg = _write(tmp_path, scenario)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))[1:]
    assert len(rows) == 200
    assert all(math.isfinite(float(value)) for row in rows for value in row)


def test_every_error_class_the_package_defines_maps_to_an_exit_code(tmp_path, capsys, monkeypatch):
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
    cfg = _write(tmp_path, GAUSSIAN_SCENARIO)
    for error, code in (
        (SchemaError("key", "refused"), 3),
        (InvariantError("key", "refused"), 4),
        (DegeneratePreparationError("refused"), 6),
        (WraparoundError("refused"), 8),
    ):

        def run_sweep(cfg, out, error=error):
            raise error

        monkeypatch.setattr(cli, "run_sweep", run_sweep)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == code
        assert "refused" in capsys.readouterr().err


def test_invariance_analytic_exits_zero(tmp_path, capsys):
    cfg = _write(tmp_path, GAUSSIAN_SCENARIO)
    out = tmp_path / "inv.csv"
    code = main(
        ["invariance", "--config", str(cfg), "--times", "0,5,25,60,120", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,eps_re,eps_im,abs_dev_from_t0"
    assert len(lines) == 1 + 5
    assert "invariance: ok" in capsys.readouterr().out


def test_invariance_analytic_keeps_the_overlap_exactly_in_long_flights(tmp_path, capsys):
    # Distinct centers: a flight folded into each center would round the
    # separation (4.9e-07 off at t = 1e9).
    scenario = {
        "packet_alpha": {"x0": 0.0, "sigma": 1.0, "k0": 12.0},
        "packet_beta": {"x0": 0.3, "sigma": 1.0, "k0": 12.8},
    }
    cfg = _write(tmp_path, scenario)
    out = tmp_path / "inv.csv"
    times = "0,100,1e4,1e6,1e9,1e12"
    code = main(["invariance", "--config", str(cfg), "--times", times, "--out", str(out)])
    assert code == 0
    with out.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert [float(row["abs_dev_from_t0"]) for row in rows] == [0.0] * 6
    assert "max |dev from t0|: 0\n" in capsys.readouterr().out


def test_invariance_analytic_at_overflowing_flights_repeats_the_t0_row(tmp_path, capsys):
    # c * t is inf for every arm; equal infinite flights are no relative flight.
    scenario = {
        "packet_alpha": {"x0": 0, "sigma": 1, "k0": 12},
        "packet_beta": {"x0": 0.5, "sigma": 1.2, "k0": 12.8},
        "geometry": {"c": 2},
    }
    cfg = _write(tmp_path, scenario)
    out = tmp_path / "inv.csv"
    times = "0,1e308,1.7e308"
    code = main(["invariance", "--config", str(cfg), "--times", times, "--out", str(out)])
    assert code == 0
    rows = [line.partition(b",")[2] for line in out.read_bytes().split(b"\n")[1:-1]]
    assert rows == [rows[0]] * 3
    assert "invariance: ok" in capsys.readouterr().out


def test_invariance_grid_exits_zero(tmp_path):
    cfg = _write(tmp_path, GRID_SCENARIO)
    out = tmp_path / "inv.csv"
    code = main(
        ["invariance", "--config", str(cfg), "--times", "0,40,120", "--out", str(out)]
    )
    assert code == 0
    with out.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["abs_dev_from_t0"]) <= 1e-8 for r in rows)


@pytest.mark.parametrize("nan_at", [0.0, 40.0])
def test_nan_deviation_exits_7(tmp_path, capsys, monkeypatch, nan_at):
    # A NaN deviation at any time must fail the tolerance test, also when
    # a finite deviation comes before it.
    real = cli.overlap_at_time

    def overlap_at_time(sa, sb, t, c):
        return complex(math.nan, 0.0) if t == nan_at else real(sa, sb, t, c)

    monkeypatch.setattr(cli, "overlap_at_time", overlap_at_time)
    cfg = _write(tmp_path, GRID_SCENARIO)
    out = tmp_path / "inv.csv"
    code = main(
        ["invariance", "--config", str(cfg), "--times", "0,40,120", "--out", str(out)]
    )
    assert code == 7
    captured = capsys.readouterr()
    assert "max |dev from t0|: nan" in captured.out
    assert "FAIL" in captured.err


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "sweep" in out and "invariance" in out


@pytest.mark.parametrize("command, column", [("sweep", "eps_exact"), ("invariance", "eps")])
@pytest.mark.parametrize("sigma", cli_parity.NARROW_ALPHA)
def test_narrow_packet_writes_the_exact_overlap(tmp_path, monkeypatch, command, column, sigma):
    name = f"narrow_alpha_{sigma}[{command}]"
    monkeypatch.chdir(tmp_path)  # run_case writes here, warnings raised as errors
    cli_parity.run_case(CASES[name])  # its record is test_cli_contract.py's id of that name
    with open("out.csv", newline="", encoding="utf-8") as fh:
        row = next(csv.DictReader(fh))
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
