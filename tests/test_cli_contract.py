"""``simulate``'s bytes and numbers: one pass of ``tools/cli_parity.py``'s cases,
each its own test id, against its record, its declared exit code and the stream
rule, and each exit-0 output against the independent oracle; and how the pass
reports a problem, under the name of its case only."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import cli_parity

CONTRACT = json.loads(cli_parity.CONTRACT.read_text(encoding="utf-8"))
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
README_EXIT_CODES = {0, 2, 3, 4, 5, 6, 7, 8}
CASES = cli_parity.build_cases()


@pytest.fixture(scope="module")
def contract_pass(tmp_path_factory):
    """``cli_parity.compare`` run once here: records, findings by case, unchecked."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path_factory.mktemp("cli_contract"))
        return cli_parity.compare(CONTRACT)


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_case_keeps_its_contract(contract_pass, case):
    findings = contract_pass[1][case["name"]]
    assert not findings, "\n".join([
        *findings,
        f"pinned with numpy {CONTRACT['numpy']}, Python {CONTRACT['python']}; "
        f"running {cli_parity.versions()}",
        "re-pin if intended: PYTHONPATH=src python3 tools/cli_parity.py (see its docstring)",
    ])


def test_records_reach_every_documented_exit_code_and_names_are_unique():
    exits = {record["exit"] for record in CONTRACT["records"].values()}
    assert README_EXIT_CODES <= exits
    assert all(case["exit"] != 1 for case in CASES)  # an exception escaped main: a traceback
    names = [case["name"] for case in CASES]
    assert len(set(names)) == len(names)
    assert CONTRACT["records"].keys() == set(names)  # no record outlives its case
    configs = {case["config"] for case in CASES}  # no committed scenario goes unpinned
    for path in sorted((ROOT / "scenarios").iterdir()):
        assert path.read_text(encoding="utf-8") in configs, path.name
    # the oracle's domain gap names only cases that declare exit 0
    assert cli_parity.UNCHECKED.keys() <= {case["name"] for case in CASES if case["exit"] == 0}
    documented = re.search(r"output for (\d+) cases", README.read_text(encoding="utf-8"))
    assert documented and int(documented.group(1)) == len(names)


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
    two_bad_rows = cli_parity._case("two_bad_rows", 0, sweep, short)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli_parity, "build_cases", lambda: [case, moved, two_bad_rows])
    _, findings, unchecked = cli_parity.compare({"records": {"gone": {}}})
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
