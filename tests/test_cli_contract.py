"""``simulate``'s bytes and numbers: one pass of ``tools/cli_parity.py``'s cases,
each against its record, its declared exit code and the stream rule, and each
exit-0 output against the independent oracle; and each refusal's committed
record against its declaration, without running."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import cli_parity  # noqa: E402

CONTRACT = json.loads(cli_parity.CONTRACT.read_text(encoding="utf-8"))
README = Path(__file__).resolve().parents[1] / "README.md"
README_EXIT_CODES = {0, 2, 3, 4, 5, 6, 7, 8}
REFUSALS = [case for case in cli_parity.build_cases() if case["exit"] != 0]


@pytest.fixture(scope="module")
def contract_pass(tmp_path_factory):
    """``cli_parity.compare`` run once here: records, diffs, problems, unchecked."""
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


def test_no_case_has_an_exit_stream_or_oracle_problem(contract_pass):
    problems, unchecked = contract_pass[2:]
    assert not problems, "\n".join([f"{len(problems)} problems, the first 10:", *problems[:10]])
    assert set(unchecked) == cli_parity.UNCHECKED.keys()


def test_records_reach_every_documented_exit_code_and_names_are_unique():
    exits = {record["exit"] for record in CONTRACT["records"].values()}
    assert README_EXIT_CODES <= exits
    cases = cli_parity.build_cases()
    assert all(case["exit"] != 1 for case in cases)  # an exception escaped main: a traceback
    names = [case["name"] for case in cases]
    assert len(set(names)) == len(names)
    documented = re.search(r"output for (\d+) cases", README.read_text(encoding="utf-8"))
    assert documented and int(documented.group(1)) == len(names)


@pytest.mark.parametrize("case", REFUSALS, ids=[case["name"] for case in REFUSALS])
def test_each_refusal_keeps_its_exit_code(case):
    # the committed record, read without running: a hand edit of the file
    # that moves a refusal's exit or streams fails here under its own name
    record = CONTRACT["records"][case["name"]]
    assert cli_parity.exit_and_stream_problems(case, record) == []


def test_an_output_off_the_stream_rule_is_a_problem_of_its_case():
    case = cli_parity._case("refused", 4, ["sweep"], text="{}")
    record = {"exit": 4, "csv_sha256": None, "stdout": "", "stderr": "error: refused\n"}
    assert cli_parity.exit_and_stream_problems(case, record) == []
    written = {**record, "csv_sha256": "0" * 64, "stdout": "eps: 1\n"}
    assert cli_parity.exit_and_stream_problems(case, written) == [
        "STREAM refused: CSV written under exit 4", "STREAM refused: stdout written under exit 4",
    ]
    assert cli_parity.exit_and_stream_problems({**case, "exit": 0}, {**record, "exit": 0}) == [
        "STREAM refused: CSV missing under exit 0", "STREAM refused: stdout missing under exit 0",
        "STREAM refused: stderr written under exit 0",
    ]


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


def test_an_oracle_crash_or_a_moved_exit_is_a_problem_of_its_case(tmp_path, monkeypatch):
    # no geometry section: the oracle reads geometry.n_points and raises
    sweep = ["sweep", "--config", "scenario.json", "--out", "out.csv"]
    case = cli_parity._case("no_geometry", 0, sweep, cli_parity.WIDTH_RATIO_APART)
    moved = cli_parity._case("not_json", 4, sweep, text="{")  # the loader exits 3
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli_parity, "build_cases", lambda: [case, moved])
    _, _, problems, unchecked = cli_parity.compare({"records": {}})
    assert (problems, unchecked) == (
        ["ORACLE no_geometry: KeyError: 'geometry'", "EXIT not_json: declared 4, ran 3"], []
    )
