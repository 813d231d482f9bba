"""``simulate``'s bytes: every case of ``tools/cli_parity.py`` against its record."""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import cli_parity  # noqa: E402

CONTRACT = json.loads(cli_parity.CONTRACT.read_text(encoding="utf-8"))
README_EXIT_CODES = {0, 2, 3, 4, 5, 6, 7, 8}


def test_every_case_matches_its_record(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    diffs = cli_parity.compare(CONTRACT)[1]
    assert not diffs, "\n".join([
        f"cases differing: {len(diffs)}, the first 10 below; pinned with numpy "
        f"{CONTRACT['numpy']}, Python {CONTRACT['python']}; running {cli_parity.versions()}",
        *diffs[:10],
        "re-pin if intended: PYTHONPATH=src python3 tools/cli_parity.py (see its docstring)",
    ])


def test_records_reach_every_documented_exit_code_and_names_are_unique():
    exits = {record["exit"] for record in CONTRACT["records"].values()}
    assert README_EXIT_CODES <= exits
    assert 1 not in exits  # an exception escaped main: a traceback
    names = [case["name"] for case in cli_parity.build_cases()]
    assert len(set(names)) == len(names)
