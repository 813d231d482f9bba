"""Command-line contract: exit codes, CSV shape, determinism."""

from __future__ import annotations

import csv
import json
import math
import os
from pathlib import Path

import pytest

from platesim import cli
from platesim.cli import main
from platesim.config import MAX_GRID_N, MAX_N_POINTS

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


def test_sweep_output_is_deterministic(tmp_path):
    cfg = _write(tmp_path, GAUSSIAN_SCENARIO)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_values_round_trip_doubles(tmp_path):
    cfg = _write(tmp_path, GAUSSIAN_SCENARIO)
    out = tmp_path / "sweep.csv"
    main(["sweep", "--config", str(cfg), "--out", str(out)])
    with out.open(encoding="utf-8", newline="") as fh:
        first = next(csv.DictReader(fh))
    # 17 significant digits reproduce the exact double
    assert float(first["eps_exact_re"]) == pytest.approx(0.852143788966211, abs=1e-15)


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "nope.json"), "--out", "x"]) == 2
    assert "not found" in capsys.readouterr().err


def test_config_directory_exits_2(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file: ")
    assert "Traceback" not in err


@pytest.mark.skipif(
    not hasattr(os, "geteuid") or os.geteuid() == 0, reason="root reads any file"
)
def test_unreadable_config_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, GAUSSIAN_SCENARIO)
    cfg.chmod(0)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config file: ")


def test_schema_error_exits_3(tmp_path, capsys):
    cfg = _write(tmp_path, {**GAUSSIAN_SCENARIO, "bogus": 1})
    assert main(["sweep", "--config", str(cfg), "--out", "x"]) == 3
    assert "bogus" in capsys.readouterr().err


def test_invariant_error_exits_4(tmp_path, capsys):
    scenario = dict(GAUSSIAN_SCENARIO)
    scenario["splitter"] = {"r_re": 0.7, "r_im": 0.0, "t_re": 0.6, "t_im": 0.0}
    cfg = _write(tmp_path, scenario)
    assert main(["sweep", "--config", str(cfg), "--out", "x"]) == 4
    assert "splitter" in capsys.readouterr().err


def test_non_finite_flight_time_exits_4(tmp_path, capsys):
    # l1 / c overflows: writing rows would put inf and NaN under exit 0
    cfg = _write(tmp_path, {**GAUSSIAN_SCENARIO, "geometry": {"c": 1e-320}})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 4
    assert "geometry.c" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_carrier_frequency_exits_4(tmp_path, capsys):
    # c * k0 overflows: the plane-wave phase would be inf - inf
    cfg = _write(tmp_path, {**GAUSSIAN_SCENARIO, "geometry": {"c": 1e308}})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "geometry.c" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("length", ["l1", "l2_max"])
def test_non_finite_plane_wave_phase_exits_4(tmp_path, capsys, length):
    # d_omega * l / c overflows: the sweep's phase factor has no value
    scenario = {
        "packet_alpha": {"x0": 0.0, "sigma": 1.0, "k0": 12.0},
        "packet_beta": {"x0": 0.0, "sigma": 1.0, "k0": 100.0},
        "geometry": {length: 1e308},
    }
    cfg = _write(tmp_path, scenario)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert f"geometry.{length}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("sigma, k0", [(1e-300, 1e301), (1e200, 12.0)])
def test_sigma_whose_square_is_not_finite_exits_4(tmp_path, capsys, sigma, k0):
    scenario = {**GAUSSIAN_SCENARIO, "packet_beta": {"x0": 0.0, "sigma": sigma, "k0": k0}}
    cfg = _write(tmp_path, scenario)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 4
    assert "packet_beta: sigma * sigma" in capsys.readouterr().err
    assert not out.exists()


def test_number_outside_double_range_exits_3(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(GAUSSIAN_SCENARIO).replace('"x0": 0.0', '"x0": 1' + "0" * 400, 1),
        encoding="utf-8",
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "packet_alpha.x0: expected a finite number" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_oversized_plate_amplitude_exits_4(tmp_path, capsys):
    splitter = {"r_re": 0.0, "r_im": 0.0, "t_re": 0.0, "t_im": 1e155}
    cfg = _write(tmp_path, {**GAUSSIAN_SCENARIO, "splitter": splitter})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 4
    assert "splitter: non-unitary plate" in capsys.readouterr().err
    assert not out.exists()


def _committed_grid_scenario() -> dict:
    path = Path(__file__).resolve().parents[1] / "scenarios" / "grid.json"
    return json.loads(path.read_text(encoding="utf-8"))


# Without the loader's refusal, the sampled beta lost its carrier, the
# spectral centroid moved, and sweep stopped with "ValueError: math
# domain error" under exit 1.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command", [["sweep"], ["invariance", "--times", "0,5"]], ids=["sweep", "invariance"]
)
def test_grid_phase_above_two_to_the_twenty_exits_4(tmp_path, capsys, command):
    scenario = _committed_grid_scenario()
    scenario["packet_beta"]["phase"] = -1.5e308
    scenario["geometry"]["l2_max"] = 1e308
    cfg = _write(tmp_path, scenario)
    out = tmp_path / "out.csv"
    assert main([command[0], "--config", str(cfg), "--out", str(out), *command[1:]]) == 4
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: invariant: packet_beta.phase: must be at most 1048576 in magnitude on a grid"
    ]
    assert not out.exists()


# The nominal carriers pass the loader's plane-wave phase check at the
# largest l2_max (d_omega = -1.0); the sampled centroids the run uses do
# not (d_omega = -1.0000000000000009).  Without the re-check at realizing,
# sweep stopped with "ValueError: math domain error" under exit 1.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command", [["sweep"], ["invariance", "--times", "0,10"]], ids=["sweep", "invariance"]
)
def test_grid_plane_wave_phase_of_the_sampled_carriers_exits_4(tmp_path, capsys, command):
    scenario = _committed_grid_scenario()
    scenario["packet_alpha"]["k0"] = 6
    scenario["packet_beta"]["k0"] = 7
    scenario["geometry"]["l2_max"] = 1.7976931348623157e308
    cfg = _write(tmp_path, scenario)
    out = tmp_path / "out.csv"
    assert main([command[0], "--config", str(cfg), "--out", str(out), *command[1:]]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "error: invariant: geometry.l2_max: plane-wave phase d_omega * l2_max / c is not finite"
    ]
    assert not out.exists()


def test_grid_phase_of_two_to_the_twenty_runs(tmp_path, capsys):
    scenario = _committed_grid_scenario()
    scenario["packet_beta"]["phase"] = 2**20
    cfg = _write(tmp_path, scenario)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))[1:]
    assert len(rows) == 200
    assert all(math.isfinite(float(value)) for row in rows for value in row)


@pytest.mark.filterwarnings("error")
def test_phase_difference_beyond_double_range_exits_4(tmp_path, capsys):
    alpha = dict(GAUSSIAN_SCENARIO["packet_alpha"], phase=1e308)
    beta = dict(GAUSSIAN_SCENARIO["packet_beta"], phase=-1e308)
    cfg = _write(tmp_path, {"packet_alpha": alpha, "packet_beta": beta})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 4
    assert capsys.readouterr().err == (
        "error: invariant: packet_beta.phase: phase difference "
        "packet_beta.phase - packet_alpha.phase is not finite\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "section, key, ceiling", [("geometry", "n_points", MAX_N_POINTS), ("grid", "n", MAX_GRID_N)]
)
def test_size_above_ceiling_exits_4(tmp_path, capsys, section, key, ceiling):
    scenario = json.loads(json.dumps(GRID_SCENARIO))
    scenario.setdefault(section, {})[key] = ceiling + 1
    cfg = _write(tmp_path, scenario)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 4
    assert f"error: invariant: {section}.{key}: must be at most {ceiling}" in capsys.readouterr().err
    assert not out.exists()


# Without the loader's refusal, sweep stopped with a traceback and
# invariance wrote NaN rows under "invariance: ok".
@pytest.mark.parametrize(
    "command", [["sweep"], ["invariance", "--times", "0,5"]], ids=["sweep", "invariance"]
)
@pytest.mark.parametrize(
    "alpha, beta",
    [
        ({"x0": 0.0, "sigma": 1e-154, "k0": 1e155}, GAUSSIAN_SCENARIO["packet_beta"]),
        ({"x0": -1e308, "sigma": 1.0, "k0": 12.0}, {"x0": 1e308, "sigma": 1.0, "k0": 12.8}),
    ],
    ids=["narrow", "far-apart"],
)
def test_non_finite_closed_form_overlap_exits_4(tmp_path, capsys, command, alpha, beta):
    cfg = _write(tmp_path, {"packet_alpha": alpha, "packet_beta": beta})
    out = tmp_path / "out.csv"
    argv = [command[0], "--config", str(cfg), "--out", str(out), *command[1:]]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert "packet_alpha: closed-form overlap" in captured.err
    assert "invariance: ok" not in captured.out
    assert not out.exists()


# Without the loader's refusal, every row had l2 = 1 and the summary
# printed "max |d rate_wss|: 0" under exit 0.
@pytest.mark.parametrize(
    "alpha",
    [{"x0": 0.0, "sigma": 1e-150, "k0": 1e151}, {"x0": 0.0, "sigma": 1.0, "k0": 1e308}],
)
def test_vanishing_default_sweep_span_exits_4(tmp_path, capsys, alpha):
    cfg = _write(tmp_path, {**GAUSSIAN_SCENARIO, "packet_alpha": alpha})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 4
    assert "set geometry.l2_max" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_output_exits_5(tmp_path, capsys):
    cfg = _write(tmp_path, GAUSSIAN_SCENARIO)
    out = tmp_path / "no_such_dir" / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 5
    assert "cannot write" in capsys.readouterr().err


def test_degenerate_preparation_exits_6(tmp_path, capsys):
    scenario = json.loads(json.dumps(GAUSSIAN_SCENARIO))
    scenario["packet_beta"] = dict(scenario["packet_alpha"], phase=math.pi)
    cfg = _write(tmp_path, scenario)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 6
    assert "degenerate preparation" in capsys.readouterr().err


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


def test_invariance_tolerance_failure_exits_7(tmp_path, capsys):
    scenario = json.loads(json.dumps(GRID_SCENARIO))
    scenario["tolerances"] = {"grid_tol": 1e-18}  # below achievable roundoff
    cfg = _write(tmp_path, scenario)
    out = tmp_path / "inv.csv"
    code = main(
        ["invariance", "--config", str(cfg), "--times", "0,40,120", "--out", str(out)]
    )
    assert code == 7
    assert out.exists()  # the report is still written
    assert "FAIL" in capsys.readouterr().err


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


def test_wraparound_exits_8_naming_the_time(tmp_path, capsys):
    scenario = json.loads(json.dumps(GRID_SCENARIO))
    scenario["grid"] = {"x_min": -12.0, "dx": 0.0625, "n": 384}  # window [-12, 12]
    cfg = _write(tmp_path, scenario)
    code = main(
        ["invariance", "--config", str(cfg), "--times", "0,2,30", "--out", str(tmp_path / "i.csv")]
    )
    assert code == 8
    err = capsys.readouterr().err
    assert "wraparound" in err
    assert "t = 30" in err


def test_times_argument_rejects_junk(tmp_path):
    cfg = _write(tmp_path, GAUSSIAN_SCENARIO)
    with pytest.raises(SystemExit) as exc:
        main(["invariance", "--config", str(cfg), "--times", "1,zap", "--out", "x"])
    assert exc.value.code == 2


def test_times_argument_rejects_negative(tmp_path):
    cfg = _write(tmp_path, GAUSSIAN_SCENARIO)
    with pytest.raises(SystemExit):
        main(["invariance", "--config", str(cfg), "--times", "-1", "--out", "x"])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "simulate 0.1.0"


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "sweep" in out and "invariance" in out
