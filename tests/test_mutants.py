"""``tools/mutants.py``'s list cannot rot: each mutant still names one place in
``src/`` and changes it.  Its reading of a tier-1 junit report counts killing
contract cases by family, and its Hypothesis profile is the suite's without
shrinking.  The harness itself runs outside tier-1 (see its docstring)."""

from __future__ import annotations

from pathlib import Path

import pytest

import mutants

ROOT = Path(__file__).resolve().parents[1]

SOURCES = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "src").rglob("*.py"))]


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_each_mutant_old_text_occurs_once_in_src_and_differs_from_its_new_text(mutant):
    assert sum(text.count(mutant.old) for text in SOURCES) == 1
    assert mutant.old in (ROOT / "src" / "platesim" / mutant.path).read_text(encoding="utf-8")
    assert mutant.new != mutant.old


def test_a_killing_contract_case_counts_for_its_family_and_not_as_a_test_id(tmp_path):
    contract = "test_case_keeps_its_contract"
    report = tmp_path / "junit.xml"
    report.write_text(f"""<testsuites><testsuite>
<testcase classname="tests.test_cli_contract" name="{contract}[gaussian_sweep_200[7]]">
<failure message="DIFF"/></testcase>
<testcase classname="tests.test_cli_contract" name="{contract}[gaussian_sweep_200[8]]">
<failure message="ORACLE"/></testcase>
<testcase classname="tests.test_cli_contract" name="{contract}[not_json]"><error message="x"/>
</testcase>
<testcase classname="tests.test_cli_contract" name="{contract}[lossy_splitter[sweep]]"/>
<testcase classname="tests.test_models" name="test_spread[3]"><error message="x"/></testcase>
<testcase classname="tests.test_models" name="test_spread[4]"/>
</testsuite></testsuites>""", encoding="utf-8")
    assert mutants.kills(report) == (
        ["tests/test_models.py::test_spread[3]"], {"gaussian_sweep_200": 2, "not_json": 1},
    )


def test_the_harness_profile_is_the_suites_without_the_shrink_phase():
    hypothesis = pytest.importorskip("hypothesis")
    suite = hypothesis.settings.get_profile("platesim")
    harness = hypothesis.settings.get_profile(mutants.PROFILE)
    assert set(harness.phases) == set(suite.phases) - {hypothesis.Phase.shrink}
    assert (harness.deadline, harness.database) == (suite.deadline, suite.database)
