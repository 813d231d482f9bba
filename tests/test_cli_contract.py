"""``simulate``'s bytes and numbers: one pass of ``tools/cli_parity.py``'s cases,
each against its record and each exit-0 output against the independent oracle."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

import platesim

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import cli_parity  # noqa: E402

CONTRACT = json.loads(cli_parity.CONTRACT.read_text(encoding="utf-8"))
README = Path(__file__).resolve().parents[1] / "README.md"
README_EXIT_CODES = {0, 2, 3, 4, 5, 6, 7, 8}

# Each case's exit code and whether it writes a CSV, pinned apart from the
# records: a re-pin that moves one of these refusals to another exit fails here.
EXITS = {
    **dict.fromkeys(
        ["missing_config", "config_directory", "junk_times", "negative_time"], (2, False)
    ),
    **dict.fromkeys(["unknown_key[sweep]", "integer_beyond_double_range[sweep]"], (3, False)),
    **dict.fromkeys([
        f"{name}[sweep]" for name in (
            "lossy_splitter", "flight_time", "carrier_frequency", "phase_at_l1",
            "phase_at_l2_max", "sigma_square", "sigma_square_overflow",
            "plate_amplitude_overflow", "phase_difference", "n_points_ceiling",
            "grid_n_ceiling", "vanishing_default_span", "vanishing_default_span_narrow",
        )
    ], (4, False)),
    **dict.fromkeys([
        f"{name}[{command}]"
        for name in (
            "grid_phase", "grid_sampled_carrier_phase", "closed_form_overlap_carrier_sum",
            "closed_form_overlap_far_apart",
        )
        for command in ("sweep", "invariance")
    ], (4, False)),
    "unwritable_output": (5, False),
    "degenerate_preparation[sweep]": (6, False),
    "shortcut_degenerate_preparation[sweep]": (6, False),
    "shortcut_degenerate_preparation[invariance]": (0, True),
    "grid_tolerance[invariance]": (7, True),  # the report is still written
    **dict.fromkeys(
        [f"grid_wraparound[{seed}]" for seed in cli_parity.GRID_SEEDS]
        + ["grid_wraparound_beta_only"],
        (8, False),
    ),
    "version": (0, False),
}
STDOUT = {
    **dict.fromkeys([name for name in EXITS if name.startswith("closed_form_overlap_")], ""),
    "version": f"simulate {platesim.__version__}\n",
}


@pytest.fixture(scope="module")
def contract_pass(tmp_path_factory):
    """``cli_parity.compare`` run once here: records, diffs, oracle problems, unchecked."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path_factory.mktemp("cli_contract"))
        return cli_parity.compare(CONTRACT)


def test_every_case_matches_its_record(contract_pass):
    diffs = contract_pass[1]
    assert not diffs, "\n".join([
        f"cases differing: {len(diffs)}, the first 10 below; pinned with numpy "
        f"{CONTRACT['numpy']}, Python {CONTRACT['python']}; running {cli_parity.versions()}",
        *diffs[:10],
        "re-pin if intended: PYTHONPATH=src python3 tools/cli_parity.py (see its docstring)",
    ])


def test_oracle_checks_every_successful_case_it_can(contract_pass):
    problems, unchecked = contract_pass[2:]
    assert not problems, "\n".join([f"{len(problems)} problems, the first 10:", *problems[:10]])
    assert set(unchecked) == cli_parity.UNCHECKED.keys()


def test_records_reach_every_documented_exit_code_and_names_are_unique():
    exits = {record["exit"] for record in CONTRACT["records"].values()}
    assert README_EXIT_CODES <= exits
    assert 1 not in exits  # an exception escaped main: a traceback
    names = [case["name"] for case in cli_parity.build_cases()]
    assert len(set(names)) == len(names)
    documented = re.search(r"output for (\d+) cases", README.read_text(encoding="utf-8"))
    assert documented and int(documented.group(1)) == len(names)


@pytest.mark.parametrize("name", EXITS)
def test_each_refusal_keeps_its_exit_code(name):
    record = CONTRACT["records"][name]
    assert (record["exit"], record["csv_sha256"] is not None) == EXITS[name]
    if name in STDOUT:
        assert record["stdout"] == STDOUT[name]


def test_the_oracle_reports_a_corrupted_output_and_names_its_domain(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cases = {case["name"]: case for case in cli_parity.build_cases()}
    for name, column, value in [
        ("gaussian_sweep_200[0]", "eps_wss_re", lambda old: old * (1 + 1e-9)),
        ("grid_invariance[0]", "abs_dev_from_t0", lambda old: 1e-3),
    ]:
        record = cli_parity.run_case(cases[name])
        assert cli_parity.oracle(cases[name], record) == [], name
        lines = Path("out.csv").read_text(encoding="utf-8").splitlines()
        row = lines[1].split(",")
        at = lines[0].split(",").index(column)
        row[at] = repr(value(float(row[at])))  # the first data row
        Path("out.csv").write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n")
        assert cli_parity.oracle(cases[name], record), name
    for name in ("version", "grid_sweep[0]"):
        assert cli_parity.oracle(cases[name], cli_parity.run_case(cases[name])) is None, name


def test_an_oracle_crash_is_a_problem_of_its_case(tmp_path, monkeypatch):
    # no geometry section: the oracle reads geometry.n_points and raises
    sweep = ["sweep", "--config", "scenario.json", "--out", "out.csv"]
    case = cli_parity._case("no_geometry", sweep, cli_parity.WIDTH_RATIO_APART)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli_parity, "build_cases", lambda: [case])
    records, _, problems, unchecked = cli_parity.compare({"records": {}})
    assert records["no_geometry"]["exit"] == 0
    assert (problems, unchecked) == (["ORACLE no_geometry: KeyError: 'geometry'"], [])
