"""Self-test of the benchmark at tiny sizes; it asserts nothing about timings.

    python3 -m pytest bench -q

It checks that the metric names agree with BENCHMARK.json, that the
scenario generator only draws scenarios the loader accepts, and that the
output checker accepts real `simulate` output and rejects corrupted copies.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

import output_check
import run
import scenario_gen

ps = run._import_platesim()

TINY = {
    "sweep": run.Spec("sweep", n_points=5, grid=False, spread_n=50, companion_times=3),
    "invariance": run.Spec("invariance", n_points=5, grid=True, times=3, spread_n=50),
}


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_benchmark_json_matches_the_script():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == {name: unit for name, (unit, _) in run.PER_LAYER.items()}


@pytest.mark.parametrize("spec", TINY.values(), ids=list(TINY))
def test_end_to_end_reports_every_metric(spec, tmp_path):
    result = run.measure_end_to_end(run.Job(spec, 1, tmp_path), 0.0, tmp_path)
    assert set(result["metrics"]) == set(_declared("end_to_end"))
    assert result["failed"] == 0
    assert len(result["notes"]["csv_sha256"]) == 1


@pytest.mark.parametrize("spec", TINY.values(), ids=list(TINY))
def test_layers_report_every_metric(spec, tmp_path):
    result = run.measure_layers(run.Job(spec, 1, tmp_path), 1, 0.0, tmp_path)
    assert set(result["metrics"]) == set(_declared("per_layer"))
    assert result["failed"] == 0
    assert result["metrics"]["packets.propagate_calls_per_row"] == 4.0


def test_tail_leaves_ten_samples_beyond():
    assert run._tail([float(i) for i in range(25)]) == (14.0, "p60 of 25")
    assert run._tail([3.0, 1.0, 2.0]) == (3.0, "max of 3")


@pytest.mark.parametrize("seed", range(20))
def test_generated_scenarios_load(seed):
    for grid in (False, True):
        scn = scenario_gen.scenario(seed, 200, grid)
        cfg = ps.parse_config(scn)
        assert abs(output_check.gaussian_overlap(scn["packet_alpha"], scn["packet_beta"])) <= 0.99
        assert cfg.packet_alpha.k0 != cfg.packet_beta.k0
    times = scenario_gen.invariance_times(seed, scn, 50)
    assert times[0] == 0.0 and times == sorted(times)
    assert times[-1] < scenario_gen.max_flight_time(scn)


def _simulate(tmp_path, scn, *extra) -> tuple[str, str]:
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(scn), encoding="utf-8")
    out = tmp_path / "out.csv"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert ps.cli.main([*extra, "--config", str(cfg), "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8"), buf.getvalue()


def _edit(text: str, row: int, col: int, change) -> str:
    lines = text.split("\n")
    fields = lines[row].split(",")
    fields[col] = format(change(float(fields[col])), ".17g")
    lines[row] = ",".join(fields)
    return "\n".join(lines)


def test_checker_rejects_corrupted_sweep(tmp_path):
    scn = scenario_gen.scenario(3, 7)
    text, _ = _simulate(tmp_path, scn, "sweep")
    assert output_check.check_sweep(text, scn) == []
    corrupted = [
        _edit(text, 3, 4, lambda v: v * (1 + 1e-9)),  # eps_wss_re
        _edit(text, 1, 2, lambda v: v + 1e-9),  # eps_exact_re
        _edit(text, 5, 6, lambda v: v - 1e-9),  # rate_exact
        _edit(text, 2, 7, lambda v: v + 1e-6),  # rate_wss
        _edit(text, 4, 0, lambda v: v + 1e-6),  # l2
        text.replace("eps_wss_re", "eps_pw_re", 1),
        text.rsplit("\n", 2)[0] + "\n",  # last row dropped
    ]
    for bad in corrupted:
        assert output_check.check_sweep(bad, scn)


def test_checker_rejects_corrupted_invariance(tmp_path):
    scn = scenario_gen.scenario(4, 5, grid=True)
    times = scenario_gen.invariance_times(4, scn, 4)
    argv = ["invariance", "--times", ",".join(map(repr, times))]
    text, stdout = _simulate(tmp_path, scn, *argv)
    check = output_check.check_invariance
    assert check(text, stdout, scn, times) == []
    assert check(_edit(text, 2, 3, lambda v: 1e-3), stdout, scn, times)
    assert check(_edit(text, 3, 1, lambda v: v + 1e-4), stdout, scn, times)
    assert check(_edit(text, 1, 0, lambda v: v + 1.0), stdout, scn, times)
    assert check(text, stdout.replace("invariance: ok", "invariance: FAIL"), scn, times)
    assert check(text.rsplit("\n", 2)[0] + "\n", stdout, scn, times)
