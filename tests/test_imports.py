"""The Gaussian path runs on the standard library; numpy loads only for a grid.

No path loads ``dataclasses`` (with ``inspect``, ``ast`` and ``tokenize``
behind it), which every ``simulate`` process would pay for at start-up.
Each check runs in a fresh interpreter, since this one has numpy loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import contextlib, io, json, sys
out, seen = sys.argv[1], {}
loaded = lambda: [name for name in ("dataclasses", "numpy") if name in sys.modules]
import platesim
seen["import platesim"] = loaded()
from platesim import cli
for argv in (["sweep"], ["invariance", "--times", "0,5,25"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([argv[0], "--config", "scenarios/default.json", "--out", out, *argv[1:]])
    assert code == 0, (argv, code)
    seen["cli.main " + argv[0]] = loaded()
platesim.load_config("scenarios/grid.json")
seen["load_config grid.json"] = loaded()
print(json.dumps(seen))
"""


def test_numpy_is_imported_only_for_a_grid(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path / "out.csv")],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "import platesim": [],
        "cli.main sweep": [],
        "cli.main invariance": [],
        "load_config grid.json": ["numpy"],
    }
