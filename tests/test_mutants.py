"""``tools/mutants.py``'s list cannot rot: each mutant still names one place in
``src/`` and changes it.  The harness itself runs outside tier-1 (see its
docstring)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import mutants  # noqa: E402

SOURCES = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "src").rglob("*.py"))]


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_each_mutant_old_text_occurs_once_in_src_and_differs_from_its_new_text(mutant):
    assert sum(text.count(mutant.old) for text in SOURCES) == 1
    assert mutant.old in (ROOT / "src" / "platesim" / mutant.path).read_text(encoding="utf-8")
    assert mutant.new != mutant.old
