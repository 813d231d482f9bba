"""Golden gate: the committed scenarios reproduce their CSV and stdout byte for byte.

The files under ``tests/golden/`` were written by the row-by-row sweep that
the columnar one replaced.  Regenerate them only for a deliberate change of
the output format:

    PYTHONPATH=src python -m platesim.cli sweep --config scenarios/default.json \\
        --out tests/golden/default_sweep.csv > tests/golden/default_sweep.stdout

``grid_invariance_long`` was written by the invariance path that transformed
every arm afresh at each time, before the spectra and phases were cached.
Its times repeat one value, include ``-0`` and leave time order, so the
file pins the bits of each of those cases:

    PYTHONPATH=src python -m platesim.cli invariance --config scenarios/grid.json \\
        --times "0,-0,$(seq -s, 3 3 150),75,0.5" \\
        --out tests/golden/grid_invariance_long.csv > tests/golden/grid_invariance_long.stdout
"""

from __future__ import annotations

from pathlib import Path

import pytest

from platesim.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

LONG_TIMES = "0,-0," + ",".join(str(3 * k) for k in range(1, 51)) + ",75,0.5"

CASES = {
    "default_sweep": ["sweep", "--config", "scenarios/default.json"],
    "grid_sweep": ["sweep", "--config", "scenarios/grid.json"],
    "grid_invariance": [
        "invariance", "--config", "scenarios/grid.json", "--times", "0,30,60,120"
    ],
    "grid_invariance_long": [
        "invariance", "--config", "scenarios/grid.json", "--times", LONG_TIMES
    ],
}


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden_bytes(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = tmp_path / f"{name}.csv"
    assert main([*CASES[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
    assert capsys.readouterr().out == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
