"""Golden gate: the committed scenarios reproduce their CSV and stdout byte for byte.

The files under ``tests/golden/`` were written by the row-by-row sweep that
the columnar one replaced.  Regenerate them only for a deliberate change of
the output format:

    PYTHONPATH=src python -m platesim.cli sweep --config scenarios/default.json \\
        --out tests/golden/default_sweep.csv > tests/golden/default_sweep.stdout
"""

from __future__ import annotations

from pathlib import Path

import pytest

from platesim.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CASES = {
    "default_sweep": ["sweep", "--config", "scenarios/default.json"],
    "grid_sweep": ["sweep", "--config", "scenarios/grid.json"],
    "grid_invariance": [
        "invariance", "--config", "scenarios/grid.json", "--times", "0,30,60,120"
    ],
}


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden_bytes(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = tmp_path / f"{name}.csv"
    assert main([*CASES[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
    assert capsys.readouterr().out == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
