"""Which tests catch a wrong number: run tier-1 against named one-line mutants
of ``src/`` and print, for each, the test ids and contract families that kill it.

    python3 tools/mutants.py [NAME ...]

Each mutant in ``MUTANTS`` is one (old text, new text) replacement in one file
of ``src/platesim``, placed where a wrong number could go out under exit 0, or
in one of the loader's refusal rules, so the matrix judges the refusal tests
too.  No mutant lets a size above the memory ceilings through to a run.
For each mutant, every one or those named, the checkout is copied without
``.git`` and caches into a temporary directory and the mutant applied there.
One run follows in the copy, with ``PYTHONPATH=<copy>/src``: tier-1,
``python -m pytest`` with the fixed ``--hypothesis-seed`` ``SEED``, since the
suite's Hypothesis profile does not derandomize, and under ``PROFILE``, that
profile without the shrink phase (``tests/conftest.py``): a kill needs the
failing test, not its smallest failing example.  The failing test ids are read
from ``--junitxml``; each contract case is its own test id there
(``tests/test_cli_contract.py``), and those are counted by family, the case name
up to ``[``.  ``tests/test_mutants.py`` is left out: it fails on every mutant,
since it checks that each old text is in ``src/``.

The copy is removed afterwards, so the checkout is left as it was; stopped by
SIGTERM, the harness kills its tier-1 child and removes the copy on the way out.
Prints one row per mutant with its killing test ids and families, then the
survivors.  The harness is not part of tier-1: each mutant costs one tier-1 run,
50 to 75 s on 2 vCPUs, so the whole list of 38 took about 46 minutes there.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SEED = 0
PROFILE = "platesim-no-shrink"
CONTRACT_CASE = "tests/test_cli_contract.py::test_case_keeps_its_contract["
TIMEOUT_S = 1800
COPY_IGNORES = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".bench_work",
    ".bench_build", "*.egg-info",
)


class Mutant(NamedTuple):
    name: str
    path: str  # under src/platesim
    old: str
    new: str


MUTANTS = [
    # packets._gaussian_overlap: the exponent, the phase and the narrow branch
    Mutant("overlap_exponent_real_halved", "packets.py",
           "(-p * d * d / 4.0)", "(-p * d * d / 2.0)"),
    Mutant("overlap_phase_weights_swapped", "packets.py",  # re-anchor probe
           "im = -d * (a.k0 * (B / p) + b.k0 * (A / p))",
           "im = -d * (a.k0 * (A / p) + b.k0 * (B / p))"),
    Mutant("overlap_global_phase_reversed", "packets.py",
           "im + (b.phase - a.phase)", "im + (a.phase - b.phase)"),
    Mutant("overlap_prefactor_squared", "packets.py",
           "* math.sqrt(math.pi / p)", "* (math.pi / p)"),
    Mutant("narrow_overlap_phase_weights_swapped", "packets.py",
           "im = -d * (a.k0 * u * u + b.k0 * v * v)", "im = -d * (a.k0 * v * v + b.k0 * u * u)"),
    Mutant("narrow_overlap_exponent_halved", "packets.py",
           "re = -0.5 * ((d / h) * (d / h) + t * t)", "re = -0.25 * ((d / h) * (d / h) + t * t)"),
    # models._rate: the clamp and the band
    Mutant("rate_without_clamp", "models.py",  # re-anchor probe
           "return min(1.0, max(0.0, numerator / denom))", "return numerator / denom"),
    Mutant("rate_band_widened", "models.py",
           "-8.0 * UNITARITY_TOL <= numerator <= denom + 8.0 * UNITARITY_TOL",
           "-8.0 <= numerator <= denom + 8.0"),
    Mutant("rate_numerator_imaginary", "models.py",
           "numerator = n_a1 + n_b1 + 2.0 * (rot * x1).real",
           "numerator = n_a1 + n_b1 + 2.0 * (rot * x1).imag"),
    Mutant("rate_denominator_conjugate_phase", "models.py",
           "denom = 2.0 + 2.0 * (rot * eps).real",
           "denom = 2.0 + 2.0 * (rot.conjugate() * eps).real"),
    # config.ScenarioConfig.l2_values: the exact last value and the underflow branch
    Mutant("l2_values_no_exact_last_value", "config.py",  # re-anchor probe
           "values[-1] = stop", "pass"),
    Mutant("l2_values_underflow_multiplies_first", "config.py",
           "i / div * delta", "i * delta / div"),
    # models.carrier_detuning and spatial_period
    Mutant("detuning_factored", "models.py",  # re-anchor probe
           "return c * k_alpha - c * k_beta", "return c * (k_alpha - k_beta)"),
    Mutant("period_halved", "models.py",
           "return 2.0 * math.pi * c / abs(delta_omega)", "return math.pi * c / abs(delta_omega)"),
    # models.sweep_d2: t2, the shortcut's rows and the phase bound
    Mutant("t2_by_reciprocal", "models.py",  # re-anchor probe
           "(value / c for value in l2)", "(value * (1 / c) for value in l2)"),
    Mutant("shortcut_row_phase_reversed", "models.py",
           "a2 * cmath.rect(1.0, d_omega * t)", "a2 * cmath.rect(1.0, -d_omega * t)"),
    Mutant("shortcut_arm1_phase_without_c", "models.py",
           "theta1 = d_omega * (geom_base.l1 / c)", "theta1 = d_omega * geom_base.l1"),
    Mutant("phase_bound_at_smallest_t2", "models.py",
           "d_omega * max(t2)", "d_omega * min(t2)"),
    # cli._write_csv: the digits, and the constant columns found from the data
    Mutant("csv_row_digits_16", "cli.py",  # re-anchor probe
           'else "%.17g" for c, k in', 'else "%.16g" for c, k in'),
    Mutant("csv_fixed_digits_16", "cli.py",
           '"%.17g" % c[0]', '"%.16g" % c[0]'),
    Mutant("csv_constant_by_value", "cli.py",  # 0.0 == -0.0
           'memoryview(c).cast("B").cast("Q")', "memoryview(c)"),
    Mutant("csv_no_rows_when_all_constant", "cli.py",
           "zip(*varying) if varying else repeat((), len(columns[0]))", "zip(*varying)"),
    # models.SweepResult.spread
    Mutant("spread_from_first_row", "models.py",  # re-anchor probe
           "return abs(max(values) - min(values))", "return abs(max(values) - values[0])"),
    # optics: the plate's unitarity check
    Mutant("unitarity_defect_signed", "optics.py",
           "return abs(squares - 1.0)", "return squares - 1.0"),
    # sampled: fits_after's tolerance, _phases' conjugate half, the grid inner product
    Mutant("fits_after_tolerance_tenfold", "sampled.py",
           "return mass < tail_tol", "return mass < 10.0 * tail_tol"),
    Mutant("phases_upper_half_not_conjugated", "sampled.py",
           "np.conjugate(phases[n - half : 0 : -1], out=phases[half:])",
           "np.copyto(phases[half:], phases[n - half : 0 : -1])"),
    Mutant("grid_inner_product_conjugates_second", "sampled.py",
           "np.vdot(self.amplitudes, other.amplitudes)",
           "np.vdot(other.amplitudes, self.amplitudes)"),
    # config: the loader's refusal rules, each made to accept what it refuses, but the
    # ceiling, made to refuse its own value
    Mutant("flight_rule_carrier_alpha_dropped", "config.py",
           "ok(c * k_alpha)),", "True),"),
    Mutant("grid_rule_window_dropped", "config.py",
           "not (lo < grid.x_min or hi > grid.x_end)", "True"),
    Mutant("size_ceiling_exclusive", "config.py",
           "(key_path, above, out <= ceiling)", "(key_path, above, out < ceiling)"),
    Mutant("inverted_range_accepted", "config.py",
           "default_l2_max or not l2_min > l2_max", "True"),
    Mutant("grid_phase_rule_dropped", "config.py",
           "gaussian or abs(packet.phase) <= MAX_GRID_PHASE", "True"),
    Mutant("sampled_carriers_unchecked", "config.py",
           "_refuse_first(_flight_rules(self.c, self.l1, self.l2_min, self.l2_max, "
           "k_alpha, k_beta))", "pass"),
    # the library's refusals: grid amplitudes, a scaled Gaussian's coefficient, the
    # detuning's speed and frequencies, the period's
    Mutant("grid_amplitudes_unchecked", "sampled.py",
           "_require_finite(amplitudes=amps[np.isfinite(amps).argmin()])", "pass"),
    Mutant("scaled_gaussian_coef_unchecked", "packets.py",
           "_require_finite(coef=coef)\n        if not isinstance(base",
           "if not isinstance(base"),
    Mutant("detuning_speed_unchecked", "models.py",
           '_require_positive(c=c)\n    _require_finite(**{"c * k_alpha"',
           '_require_finite(**{"c * k_alpha"'),
    Mutant("detuning_frequencies_unchecked", "models.py",
           '_require_finite(**{"c * k_alpha": c * k_alpha, "c * k_beta": c * k_beta})', "pass"),
    Mutant("period_detuning_unchecked", "models.py",
           "_require_finite(delta_omega=delta_omega)", "pass"),
]


def apply(mutant: Mutant, tree: Path) -> None:
    """Replace the mutant's one occurrence of its old text under ``tree``."""
    path = tree / "src" / "platesim" / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} times in {path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def kills(report: Path) -> tuple[list[str], dict[str, int]]:
    """The ids of the test cases that failed or errored in a junit report, each
    once, but for the contract's cases: those are counted by family instead."""
    failed = {}
    for case in ET.parse(report).getroot().iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            module, name = case.get("classname", ""), case.get("name", "")
            failed[f"{module.replace('.', '/')}.py::{name}" if module else name] = None
    # a contract case's id is CONTRACT_CASE, its name and "]"
    cases = [test[len(CONTRACT_CASE):-1] for test in failed if test.startswith(CONTRACT_CASE)]
    tests = [test for test in failed if not test.startswith(CONTRACT_CASE)]
    return tests, dict(Counter(case.split("[")[0] for case in cases))


def run(mutant: Mutant) -> tuple[list[str], dict[str, int]]:
    """Tier-1's failing test ids and the contract's families, on a mutated copy."""
    with tempfile.TemporaryDirectory(prefix="mutant_") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=COPY_IGNORES)
        apply(mutant, tree)
        path = os.pathsep.join([str(tree / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
        report = Path(scratch) / "junit.xml"
        try:
            tier1 = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors", f"--hypothesis-seed={SEED}",
                 f"--hypothesis-profile={PROFILE}",
                 f"--junitxml={report}", "--ignore=tests/test_mutants.py"],
                cwd=tree, env={**os.environ, "PYTHONPATH": path},
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return [f"<tier-1 timed out after {TIMEOUT_S} s>"], {}
        tests, families = kills(report) if report.exists() else ([], {})
    if tier1.returncode != 0 and not tests and not families:
        tests = [f"<pytest exited {tier1.returncode} and reported no failing test>"]
    return tests, families


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in chosen}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    # stopped, the run's child is killed and its copy removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    survivors = []
    for mutant in chosen:
        tests, families = run(mutant)
        verdict = "killed" if tests or families else "SURVIVED"
        print(f"{mutant.name} ({mutant.path}): {verdict}", flush=True)
        print(f"  tests ({len(tests)}): {', '.join(tests) or '-'}")
        print(f"  families ({len(families)}): "
              f"{', '.join(f'{f} {n}' for f, n in sorted(families.items())) or '-'}", flush=True)
        if verdict == "SURVIVED":
            survivors.append(mutant.name)
    print(f"{len(chosen)} mutants, {len(chosen) - len(survivors)} killed; "
          f"survivors: {', '.join(survivors) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
