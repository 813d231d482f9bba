"""Acceptance gate: seven end-to-end criteria, one printed verdict line each.

Run with plain ``pytest`` (the verdict lines bypass capture) or
``pytest -v tests/test_acceptance.py``.  Each criterion asserts its numerical
bounds and, but for criterion 6, which reads the session's contract pass and
times no run, its runtime budget.
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np
import pytest

from conftest import (
    CASES, CONTRACT, DEFAULT_SCENARIO, EXIT_CODES, WIDE_GRID, complex_column, pairwise_max_abs,
    random_close_pair, random_gaussian, random_splitter,
)
from platesim import (
    derive_plane_wave_model,
    inner_product,
    normalize,
    parse_config,
    plane_wave_epsilon,
    propagate,
    sample,
    split,
    sweep_d2,
    Preparation,
    ExperimentGeometry,
)
from platesim.optics import overlap_post
from platesim.sampled import gaussian_amplitude


def _report(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _default_sweep(scenario=DEFAULT_SCENARIO):
    cfg = parse_config(scenario)
    alpha, beta = cfg.packet_alpha, cfg.packet_beta
    result = sweep_d2(
        alpha,
        beta,
        cfg.splitter,
        ExperimentGeometry(l1=cfg.l1, l2=cfg.l2_min, c=cfg.c),
        cfg.l2_values(),
        Preparation(phi=cfg.preparation_phi),
        alpha.k0,
        beta.k0,
    )
    model = derive_plane_wave_model(
        split(alpha, cfg.splitter), split(beta, cfg.splitter), alpha.k0, beta.k0, cfg.c
    )
    return cfg, result, model


def test_criterion_1_overlap_time_invariance(capsys):
    """The overlap never changes while both packets fly freely."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    times = np.linspace(0.0, 120.0, 20)

    dev_analytic = 0.0
    dev_grid = 0.0
    for _ in range(100):
        a, b = random_gaussian(rng), random_gaussian(rng)
        ref = inner_product(a, b)
        ga = normalize(sample(a, WIDE_GRID))
        gb = normalize(sample(b, WIDE_GRID))
        ref_grid = inner_product(ga, gb)
        for t in times:
            moved = inner_product(propagate(a, t), propagate(b, t))
            dev_analytic = max(dev_analytic, abs(moved - ref))
            moved_grid = inner_product(propagate(ga, t), propagate(gb, t))
            dev_grid = max(dev_grid, abs(moved_grid - ref_grid))

    elapsed = time.perf_counter() - start
    ok = dev_analytic <= 1e-12 and dev_grid <= 1e-8 and elapsed < 10.0
    _report(
        capsys,
        "criterion 1 (time-invariance of the overlap)",
        ok,
        f"analytic max dev {dev_analytic:.3g} <= 1e-12, "
        f"grid max dev {dev_grid:.3g} <= 1e-08, {elapsed:.2f}s < 10s",
    )


def test_criterion_2_overlap_unchanged_by_the_plate(capsys):
    """Post-plate two-arm overlap equals the pre-plate packet overlap."""
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    splitters = [random_splitter(rng) for _ in range(20)]

    dev_analytic = 0.0
    dev_grid = 0.0
    for i in range(100):
        a, b = random_gaussian(rng), random_gaussian(rng)
        bs = splitters[i % len(splitters)]
        pre = inner_product(a, b)
        post = overlap_post(split(a, bs), split(b, bs))
        dev_analytic = max(dev_analytic, abs(post - pre))

        ga = normalize(sample(a, WIDE_GRID))
        gb = normalize(sample(b, WIDE_GRID))
        pre_g = inner_product(ga, gb)
        post_g = overlap_post(split(ga, bs), split(gb, bs))
        dev_grid = max(dev_grid, abs(post_g - pre_g))

    elapsed = time.perf_counter() - start
    ok = dev_analytic <= 1e-12 and dev_grid <= 1e-8 and elapsed < 10.0
    _report(
        capsys,
        "criterion 2 (splitting preserves the overlap)",
        ok,
        f"analytic max dev {dev_analytic:.3g} <= 1e-12, "
        f"grid max dev {dev_grid:.3g} <= 1e-08, {elapsed:.2f}s < 10s",
    )


def test_criterion_3_spurious_dependence_of_plane_wave_overlap(capsys):
    """The shortcut's overlap swings with t2 while the exact one is fixed."""
    start = time.perf_counter()
    _, result, model = _default_sweep()

    assert model.delta_omega != 0.0 and abs(model.a2) > 0.0
    swing = pairwise_max_abs(complex_column(result, "eps_plane_wave"))
    exact_var = pairwise_max_abs(complex_column(result, "eps_exact"))
    period = 2.0 * math.pi / model.delta_omega
    period_dev = max(
        abs(
            plane_wave_epsilon(model, t1, t2 + period)
            - plane_wave_epsilon(model, t1, t2)
        )
        for t1, t2 in [(0.0, 0.0), (1.0, 3.0), (2.5, 17.0), (0.7, 40.0)]
    )

    elapsed = time.perf_counter() - start
    ok = (
        swing >= 1.9 * abs(model.a2)
        and exact_var <= 1e-12
        and period_dev <= 1e-12
        and elapsed < 5.0
    )
    _report(
        capsys,
        "criterion 3 (plane-wave overlap varies with the D2 distance)",
        ok,
        f"swing {swing:.4f} >= 1.9|a2| = {1.9 * abs(model.a2):.4f}, "
        f"exact column variation {exact_var:.3g} <= 1e-12, "
        f"periodicity dev {period_dev:.3g} <= 1e-12, {elapsed:.2f}s < 5s",
    )


def test_criterion_4_counting_rate_contrast(capsys):
    """Moving D2 shifts the plane-wave D1 rate but not the exact one."""
    start = time.perf_counter()
    cfg, result, model = _default_sweep()

    eps = inner_product(cfg.packet_alpha, cfg.packet_beta)
    assert abs(eps) >= 0.1  # the default scenario keeps the packets overlapping
    exact_var = result.spread("rate_exact")
    swing = result.spread("rate_plane_wave")

    elapsed = time.perf_counter() - start
    ok = exact_var <= 1e-12 and swing >= 1e-3 and elapsed < 5.0
    _report(
        capsys,
        "criterion 4 (D1 rate contrast under a D2 sweep)",
        ok,
        f"max |d rate_exact| {exact_var:.3g} <= 1e-12, "
        f"max |d rate_wss| {swing:.4f} >= 1e-3, {elapsed:.2f}s < 5s",
    )


def test_criterion_5_oracle_equivalence(capsys):
    """Grid inner products, the closed form, and direct quadrature agree."""
    quad = pytest.importorskip("scipy.integrate").quad
    start = time.perf_counter()
    rng = np.random.default_rng(105)

    rel_grid = 0.0
    for _ in range(100):
        a, b = random_close_pair(rng)
        exact = inner_product(a, b)
        sampled = inner_product(sample(a, WIDE_GRID), sample(b, WIDE_GRID))
        rel_grid = max(rel_grid, abs(sampled - exact) / abs(exact))

    dev_quad = 0.0
    for _ in range(10):
        a, b = random_close_pair(rng)
        lo = min(a.x0, b.x0) - 12.0 * max(a.sigma, b.sigma)
        hi = max(a.x0, b.x0) + 12.0 * max(a.sigma, b.sigma)

        def integrand(x):
            return np.conj(gaussian_amplitude(a, x)) * gaussian_amplitude(b, x)

        re = quad(lambda x: integrand(x).real, lo, hi, limit=800)[0]
        im = quad(lambda x: integrand(x).imag, lo, hi, limit=800)[0]
        dev_quad = max(dev_quad, abs(inner_product(a, b) - complex(re, im)))

    elapsed = time.perf_counter() - start
    ok = rel_grid <= 1e-6 and dev_quad <= 1e-9 and elapsed < 30.0
    _report(
        capsys,
        "criterion 5 (oracle equivalence of the three overlap routes)",
        ok,
        f"grid vs closed form rel err {rel_grid:.3g} <= 1e-06, "
        f"closed form vs quadrature dev {dev_quad:.3g} <= 1e-09, "
        f"{elapsed:.2f}s < 30s",
    )


def test_criterion_6_cli_contract(capsys, contract_pass):
    """Every documented exit code is declared by cases that keep their contract,
    and this session's default sweep writes its pinned CSV bytes.  It reads the
    session's contract pass and times no run: the pass runs in a fixture."""
    _, findings, _, outputs = contract_pass
    kept = {case["exit"] for name, case in CASES.items() if not findings[name]}
    default = "committed_default[sweep]"
    digest = hashlib.sha256(outputs[default] or b"").hexdigest()
    pinned = digest == CONTRACT["records"][default]["csv_sha256"]
    ok = EXIT_CODES <= kept and pinned
    _report(
        capsys,
        "criterion 6 (CLI exit codes and deterministic CSV)",
        ok,
        f"documented exit codes {sorted(EXIT_CODES)} declared by kept cases "
        f"{EXIT_CODES <= kept}, default sweep CSV has its pinned sha256 {pinned}",
    )


def test_criterion_7_artifact_needs_overlapping_spectra(capsys):
    """The shortcut's swing is 2|t|^2 |eps|, so it vanishes with the spectral overlap."""
    start = time.perf_counter()
    dk = 0.8
    # sigma dk = 0.8, 1.6, ..., 11.2.  The 201 rows of the default two-period
    # span put rows 50 apart half a period apart, so the swing is the full
    # diameter 2|a2| = 2|t|^2 |eps|, up to rounding of the phases and sums.
    swings = []
    rel_dev = 0.0
    for sigma in range(1, 15):
        packet = {"x0": 0.0, "sigma": float(sigma)}
        cfg, result, _ = _default_sweep(
            {
                "packet_alpha": {**packet, "k0": 12.0},
                "packet_beta": {**packet, "k0": 12.0 + dk},
                "geometry": {"n_points": 201},
            }
        )
        eps = inner_product(cfg.packet_alpha, cfg.packet_beta)
        closed = 2.0 * abs(cfg.splitter.t) ** 2 * abs(eps)
        swing = pairwise_max_abs(complex_column(result, "eps_plane_wave"))
        rel_dev = max(rel_dev, abs(swing - closed) / closed)
        swings.append((sigma * dk, swing))
    # |eps| = exp(-(sigma dk)^2 / 4) crosses 1e-12 at sigma dk = 10.51; of
    # the values above, only 11.2 lies past 10.5
    tail = max(swing for sigma_dk, swing in swings if sigma_dk >= 10.5)

    elapsed = time.perf_counter() - start
    ok = rel_dev <= 1e-13 and tail < 1e-12 and elapsed < 5.0
    _report(
        capsys,
        "criterion 7 (the D2 artifact lives only while the spectra overlap)",
        ok,
        f"swing vs 2|t|^2|eps| rel dev {rel_dev:.3g} <= 1e-13 for sigma dk 0.8..11.2 "
        f"(swing {swings[0][1]:.4f} .. {swings[-1][1]:.3g}), "
        f"swing at sigma dk >= 10.5 {tail:.3g} < 1e-12, {elapsed:.2f}s < 5s",
    )
