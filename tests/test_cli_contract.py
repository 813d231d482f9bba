"""``simulate``'s bytes and numbers: the session's one pass of
``tools/cli_parity.py``'s cases (``contract_pass`` in ``tests/conftest.py``),
each case its own test id, against its record, its declared exit code and the
stream rule, and each exit-0 output against the independent oracle; and how the
pass reports a problem, under the name of its case only."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import cli_parity
from conftest import CASES, CONTRACT, EXIT_CODES

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


@pytest.mark.parametrize("name", CASES)
def test_case_keeps_its_contract(contract_pass, name):
    _, findings, _, _ = contract_pass
    assert not findings[name], "\n".join([
        *findings[name],
        f"pinned with numpy {CONTRACT['numpy']}, Python {CONTRACT['python']}; "
        f"running {cli_parity.versions()}",
        "re-pin if intended: PYTHONPATH=src python3 tools/cli_parity.py (see its docstring)",
    ])


def test_records_reach_every_documented_exit_code_and_names_are_unique():
    exits = {record["exit"] for record in CONTRACT["records"].values()}
    assert EXIT_CODES <= exits
    assert all(case["exit"] != 1 for case in CASES.values())  # exit 1: an exception escaped main
    names = [case["name"] for case in cli_parity.build_cases()]
    assert len(set(names)) == len(names)
    assert CONTRACT["records"].keys() == set(names)  # no record outlives its case
    configs = {case["config"] for case in CASES.values()}  # no committed scenario goes unpinned
    for path in sorted((ROOT / "scenarios").iterdir()):
        assert path.read_text(encoding="utf-8") in configs, path.name
    # the oracle's domain gap names only cases that declare exit 0
    declaring_0 = {name for name, case in CASES.items() if case["exit"] == 0}
    assert cli_parity.UNCHECKED.keys() <= declaring_0
    documented = re.search(r"output for (\d+) cases", README.read_text(encoding="utf-8"))
    assert documented and int(documented.group(1)) == len(names)


def test_an_output_off_the_stream_rule_is_a_problem_of_its_case():
    case = cli_parity.make_case("refused", 4, ["sweep"], text="{}")
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


def test_the_oracle_reports_a_corrupted_output_and_names_its_domain(
    contract_pass, tmp_path, monkeypatch
):
    records, _, _, outputs = contract_pass
    monkeypatch.chdir(tmp_path)  # the oracle reads out.csv here: a copy of the kept CSV
    for name, column, value in [
        ("gaussian_sweep_200[0]", "eps_wss_re", lambda old: old * (1 + 1e-9)),
        ("grid_invariance[0]", "abs_dev_from_t0", lambda old: 1e-3),
    ]:
        Path("out.csv").write_bytes(outputs[name])
        assert cli_parity.oracle(CASES[name], records[name]) == [], name
        lines = outputs[name].decode().splitlines()
        row = lines[1].split(",")
        at = lines[0].split(",").index(column)
        row[at] = repr(value(float(row[at])))  # the first data row
        Path("out.csv").write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n")
        assert cli_parity.oracle(CASES[name], records[name]), name
    for name in ("version", "grid_sweep[0]"):
        assert cli_parity.oracle(CASES[name], records[name]) is None, name


def test_an_oracle_crash_or_a_moved_exit_is_a_problem_of_its_case(tmp_path, monkeypatch):
    # no geometry section: the oracle reads geometry.n_points and raises
    sweep = cli_parity.SWEEP
    case = cli_parity.make_case("no_geometry", 0, sweep, cli_parity.WIDTH_RATIO_APART)
    moved = cli_parity.make_case("not_json", 4, sweep, text="{")  # the loader exits 3
    # The oracle expects the default span, so rows 2 and 3 of this one are off it.
    # With beta 100 away eps is 0, and every other column is exact whatever the
    # overlap or rate code computes: only the two l2 rows are wrong.
    s = 0.5**0.5
    short = cli_parity._with(
        cli_parity.GAUSSIAN, packet_beta={"x0": 100.0, "sigma": 1.2, "k0": 12.8},
        splitter={"r_re": s, "r_im": 0.0, "t_re": 0.0, "t_im": s},
        geometry={"l1": 1.0, "l2_min": 1.0, "l2_max": 2.0, "n_points": 3, "c": 1.0},
        preparation_phi=0.0,
    )
    two_bad_rows = cli_parity.make_case("two_bad_rows", 0, sweep, short)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli_parity, "build_cases", lambda: [case, moved, two_bad_rows])
    _, findings, unchecked, _ = cli_parity.compare({"records": {"gone": {}}})
    unpinned = {c["name"]: f"DIFF {c['name']}: {' '.join(c['argv'])}\n  no record"
                for c in (case, moved, two_bad_rows)}
    assert (findings, unchecked) == ({
        "no_geometry": [unpinned["no_geometry"], "ORACLE no_geometry: KeyError: 'geometry'"],
        "not_json": [unpinned["not_json"], "EXIT not_json: declared 4, ran 3"],
        "two_bad_rows": [
            unpinned["two_bad_rows"],
            "ORACLE two_bad_rows: row 2: l2 1.5 off the requested range (+1 more)",
        ],
        "gone": ["DIFF gone: no such case"],
    }, [])
