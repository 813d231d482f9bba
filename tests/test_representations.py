"""One scenario, two representations, one answer at the command line.

A grid scenario means the same overlap as its Gaussian twin (the same file
with ``"representation": "gaussian"``).  The grid sweeps and the generator's
grid seeds' invariance runs are contract cases, read from the session's one
pass (``contract_pass`` in ``tests/conftest.py``): ``committed_grid[sweep]``,
``grid_sweep[*]`` and ``grid_invariance[*]``.  The committed grid scenario's
invariance runs at the times the generator draws for seed 0, up to 0.9 of its
wrap limit, later than any contract case of it; no case runs those times, so
it runs here through the ``simulate`` fixture.  Each twin runs through that
fixture with its grid run's argv, and declares the exit code that run had.  The two sweeps agree column by column: the exact
columns within ``grid_tol``, the plane-wave columns within ``grid_tol`` plus the
drift that the sampled carriers' ``d_omega`` error builds up over the flight to
D2, ``|a2| |d_omega_grid - d_omega_nominal| t2``.  ``invariance`` at the same
times gives the same exit code.  The twins are those of ``scenarios/grid.json``
and the generator's grid seeds 0 to 4.

A grid run's default span is two periods of the nominal ``k0``, while its
summary prints the period of the sampled spectral centroids; on the
committed grid scenario and the generator's 12 grid seeds the two agree
within 1e-12 relative.
"""

from __future__ import annotations

import csv
import json

import pytest

import cli_parity
import scenario_gen
from conftest import CASES
from platesim.config import parse_config
from platesim.models import carrier_detuning, spatial_period
from platesim.optics import split
from platesim.packets import inner_product

GRID_RUNS = {  # (sweep, invariance) contract cases; grid.json's invariance runs here
    "grid.json": ("committed_grid[sweep]", None),
    **{f"seed{seed}": (f"grid_sweep[{seed}]", f"grid_invariance[{seed}]")
       for seed in cli_parity.GRID_SEEDS},
}
TWINS = ["grid.json", *(f"seed{seed}" for seed in range(5))]
EXACT = ("eps_exact_re", "eps_exact_im", "rate_exact")
SHORTCUT = ("eps_wss_re", "eps_wss_im", "rate_wss")


def _columns(out: bytes) -> dict[str, list[float]]:
    rows = list(csv.DictReader(out.decode().splitlines()))
    return {key: [float(row[key]) for row in rows] for key in rows[0]}


@pytest.mark.parametrize("name", TWINS)
def test_grid_and_gaussian_runs_of_one_scenario_agree(contract_pass, simulate, name):
    records, _, _, outputs = contract_pass
    sweep_name, invariance = GRID_RUNS[name]
    sweep = CASES[sweep_name]
    grid = json.loads(sweep["config"])
    cfg = parse_config(grid)
    _, _, k_alpha, k_beta = cfg.realize_packets()
    d_omega_drift = abs(
        carrier_detuning(k_alpha, k_beta, cfg.c)
        - carrier_detuning(cfg.packet_alpha.k0, cfg.packet_beta.k0, cfg.c)
    )
    sa, sb = (split(p, cfg.splitter) for p in (cfg.packet_alpha, cfg.packet_beta))
    a2 = abs(inner_product(sa.arm2, sb.arm2))

    gaussian = json.dumps({**grid, "representation": "gaussian"})

    def twin(case: dict, record: dict) -> tuple[dict, bytes | None]:
        """The grid run's argv run on the Gaussian twin, declaring the exit it had."""
        return simulate({**case, "name": f"{case['name']} twin", "config": gaussian,
                         "exit": record["exit"]})

    if invariance is None:
        drawn = scenario_gen.invariance_times(0, grid, cli_parity.GRID_TIMES)
        times = ",".join(repr(t) for t in drawn)
        invariance = cli_parity.make_case(
            f"{name} drawn times", None, [*cli_parity.INVARIANCE, times], text=sweep["config"]
        )
        record, _ = simulate(invariance)
    else:
        invariance, record = CASES[invariance], records[invariance]
    twin(invariance, record)  # the same exit code at the same times
    on_grid = _columns(outputs[sweep_name])
    closed_form = _columns(twin(sweep, records[sweep_name])[1])
    assert on_grid["l2"] == closed_form["l2"] and on_grid["t2"] == closed_form["t2"]
    for key in EXACT:
        for a, b in zip(on_grid[key], closed_form[key]):
            assert abs(a - b) <= cfg.invariance_tol, key
    for key in SHORTCUT:
        for a, b, t2 in zip(on_grid[key], closed_form[key], on_grid["t2"]):
            assert abs(a - b) <= cfg.invariance_tol + a2 * d_omega_drift * t2, key


@pytest.mark.parametrize("name", GRID_RUNS)
def test_grid_span_reads_the_nominal_period_and_the_summary_the_sampled_one(
    contract_pass, name
):
    sweep = GRID_RUNS[name][0]
    cfg = parse_config(json.loads(CASES[sweep]["config"]))
    nominal = spatial_period(
        carrier_detuning(cfg.packet_alpha.k0, cfg.packet_beta.k0, cfg.c), cfg.c
    )
    assert cfg.l2_max == cfg.l2_min + 2.0 * nominal
    _, _, k_alpha, k_beta = cfg.realize_packets()
    sampled = spatial_period(carrier_detuning(k_alpha, k_beta, cfg.c), cfg.c)
    records, _, _, _ = contract_pass
    record = records[sweep]
    assert record["exit"] == 0
    assert record["stdout"].splitlines()[-1] == f"spatial period: {sampled:.6g}"
    assert abs(sampled - nominal) <= 1e-12 * nominal
