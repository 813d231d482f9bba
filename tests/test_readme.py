"""The README's library example runs as written, against the public names."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under ## Library"
    return match.group(1)


def test_library_example_runs_verbatim():
    namespace: dict = {}
    exec(compile(_library_block(), str(README), "exec"), namespace)
    assert "eps" in namespace
