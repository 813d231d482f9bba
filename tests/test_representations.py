"""One scenario, two representations, one answer at the command line.

A grid scenario means the same overlap as its Gaussian twin (the same file
with ``"representation": "gaussian"``).  Run through ``cli.main``, the two
sweeps agree column by column: the exact columns within ``grid_tol``, the
plane-wave columns within ``grid_tol`` plus the drift that the sampled
carriers' ``d_omega`` error builds up over the flight to D2,
``|a2| |d_omega_grid - d_omega_nominal| t2``.  ``invariance`` at the same
times gives the same exit code.  The scenarios are ``scenarios/grid.json``
and the benchmark generator's grid seeds 0 to 4.

A grid run's default span is two periods of the nominal ``k0``, while its
summary prints the period of the sampled spectral centroids; on the
committed grid scenario and the generator's 12 grid seeds the two agree
within 1e-12 relative.
"""

from __future__ import annotations

import csv
import importlib.util
import json
from pathlib import Path

import pytest

from platesim.cli import main
from platesim.config import parse_config
from platesim.models import carrier_detuning, spatial_period
from platesim.optics import split
from platesim.packets import inner_product

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("scenario_gen", ROOT / "bench" / "scenario_gen.py")
scenario_gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scenario_gen)

SCENARIOS = {
    "grid.json": json.loads((ROOT / "scenarios" / "grid.json").read_text(encoding="utf-8")),
    **{f"seed{seed}": scenario_gen.scenario(seed, grid=True) for seed in range(5)},
}
GRID_RUNS = {
    "grid.json": SCENARIOS["grid.json"],
    **{f"seed{seed}": scenario_gen.scenario(seed, grid=True) for seed in range(12)},
}
EXACT = ("eps_exact_re", "eps_exact_im", "rate_exact")
SHORTCUT = ("eps_wss_re", "eps_wss_im", "rate_wss")


def _run(tmp_path, scenario: dict, *argv: str) -> tuple[int, Path]:
    name = scenario["representation"]
    config, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
    config.write_text(json.dumps(scenario), encoding="utf-8")
    return main([*argv, "--config", str(config), "--out", str(out)]), out


def _columns(path: Path) -> dict[str, list[float]]:
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: [float(row[key]) for row in rows] for key in rows[0]}


@pytest.mark.parametrize("name", SCENARIOS)
def test_grid_and_gaussian_runs_of_one_scenario_agree(tmp_path, capsys, name):
    grid = SCENARIOS[name]
    gaussian = {**grid, "representation": "gaussian"}
    cfg = parse_config(grid)
    _, _, k_alpha, k_beta = cfg.realize_packets()
    d_omega_drift = abs(
        carrier_detuning(k_alpha, k_beta, cfg.c)
        - carrier_detuning(cfg.packet_alpha.k0, cfg.packet_beta.k0, cfg.c)
    )
    sa, sb = (split(p, cfg.splitter) for p in (cfg.packet_alpha, cfg.packet_beta))
    a2 = abs(inner_product(sa.arm2, sb.arm2))

    runs = [_run(tmp_path, scenario, "sweep") for scenario in (grid, gaussian)]
    assert [code for code, _ in runs] == [0, 0]
    on_grid, closed_form = (_columns(out) for _, out in runs)
    assert on_grid["l2"] == closed_form["l2"] and on_grid["t2"] == closed_form["t2"]
    for key in EXACT:
        for a, b in zip(on_grid[key], closed_form[key]):
            assert abs(a - b) <= cfg.invariance_tol, key
    for key in SHORTCUT:
        for a, b, t2 in zip(on_grid[key], closed_form[key], on_grid["t2"]):
            assert abs(a - b) <= cfg.invariance_tol + a2 * d_omega_drift * t2, key

    seed = int(name[4:]) if name.startswith("seed") else 0
    times = ",".join(repr(t) for t in scenario_gen.invariance_times(seed, grid, 20))
    codes = [
        _run(tmp_path, scenario, "invariance", "--times", times)[0]
        for scenario in (grid, gaussian)
    ]
    assert codes[0] == codes[1]
    capsys.readouterr()


@pytest.mark.parametrize("name", GRID_RUNS)
def test_grid_span_reads_the_nominal_period_and_the_summary_the_sampled_one(
    tmp_path, capsys, name
):
    cfg = parse_config(GRID_RUNS[name])
    nominal = spatial_period(
        carrier_detuning(cfg.packet_alpha.k0, cfg.packet_beta.k0, cfg.c), cfg.c
    )
    assert cfg.l2_max == cfg.l2_min + 2.0 * nominal
    _, _, k_alpha, k_beta = cfg.realize_packets()
    sampled = spatial_period(carrier_detuning(k_alpha, k_beta, cfg.c), cfg.c)
    code, _ = _run(tmp_path, GRID_RUNS[name], "sweep")
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"spatial period: {sampled:.6g}"
    assert abs(sampled - nominal) <= 1e-12 * nominal
