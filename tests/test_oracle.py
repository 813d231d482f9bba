"""Every successful contract case, re-derived by the independent oracle.

``bench/output_check.py`` recomputes sweep and invariance numbers from the
README's packet convention without importing platesim.  The contract in
``tests/cli_contract.json`` pins bytes, not truth; this test runs each
exit-0 case of ``tools/cli_parity.py`` in-process and hands its CSV and
summary to the oracle.  An exit-0 case outside the oracle's domain is
named in ``UNCHECKED`` with the reason, never skipped silently.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import cli_parity  # noqa: E402

sys.path.insert(0, str(cli_parity.ROOT / "bench"))
import output_check  # noqa: E402

CONTRACT = json.loads(cli_parity.CONTRACT.read_text(encoding="utf-8"))

GRID_SWEEP = "a grid sweep: the oracle's sweep check is the Gaussian closed form to 1e-12"
UNCHECKED = {
    **{f"grid_sweep[{seed}]": GRID_SWEEP for seed in cli_parity.GRID_SEEDS},
    "grid_tolerance[sweep]": GRID_SWEEP,
    "version": "no scenario",
}


def _oracle(case: dict, record: dict):
    """The oracle's problems with the case's output, or None outside its domain."""
    if case["config"] is None:
        return None
    scn = json.loads(case["config"])
    csv_text = Path("out.csv").read_text(encoding="utf-8")
    if case["argv"][0] == "invariance":
        times = [float(t) for t in case["argv"][-1].split(",")]
        return output_check.check_invariance(csv_text, record["stdout"], scn, times)
    if scn.get("representation") == "grid":
        return None
    return output_check.check_sweep(csv_text, scn)


def test_oracle_checks_every_successful_case_it_can(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    problems, unchecked = [], set()
    for case in cli_parity.build_cases():
        if CONTRACT["records"][case["name"]]["exit"] != 0:
            continue
        record = cli_parity.run_case(case)
        assert record["exit"] == 0, case["name"]
        found = _oracle(case, record)
        if found is None:
            unchecked.add(case["name"])
        else:
            problems += [f"{case['name']}: {problem}" for problem in found]
    assert not problems, "\n".join([f"{len(problems)} problems, the first 10:", *problems[:10]])
    assert unchecked == UNCHECKED.keys()
