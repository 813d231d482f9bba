"""Acceptance gate: six end-to-end criteria, one printed verdict line each.

Run with plain ``pytest`` (the verdict lines bypass capture) or
``pytest -v tests/test_acceptance.py``.  Each criterion asserts both its
numerical bounds and its runtime budget.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from conftest import random_close_pair, random_gaussian, random_splitter
from platesim import (
    SpatialGrid,
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
from platesim.cli import main

WIDE_GRID = SpatialGrid(x_min=-40.0, dx=1.0 / 16.0, n=4096)

DEFAULT_SCENARIO = {
    "packet_alpha": {"x0": 0.0, "sigma": 1.0, "k0": 12.0},
    "packet_beta": {"x0": 0.0, "sigma": 1.0, "k0": 12.8},
}


def _report(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _default_sweep():
    cfg = parse_config(DEFAULT_SCENARIO)
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
    swing = result.spread("eps_plane_wave")
    exact_var = result.spread("eps_exact")
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


def test_criterion_6_cli_contract(capsys, tmp_path):
    """Documented exit codes and byte-stable CSV output."""
    start = time.perf_counter()

    def write(name, scenario):
        path = tmp_path / name
        path.write_text(json.dumps(scenario), encoding="utf-8")
        return str(path)

    schema_cfg = write("schema.json", {**DEFAULT_SCENARIO, "bogus": 1})
    lossy = dict(DEFAULT_SCENARIO)
    lossy["splitter"] = {"r_re": 0.7, "r_im": 0.0, "t_re": 0.6, "t_im": 0.0}
    invariant_cfg = write("invariant.json", lossy)
    tiny = json.loads(json.dumps(DEFAULT_SCENARIO))
    tiny["representation"] = "grid"
    tiny["grid"] = {"x_min": -12.0, "dx": 0.0625, "n": 384}
    wrap_cfg = write("wrap.json", tiny)
    good_cfg = write("good.json", DEFAULT_SCENARIO)

    out = str(tmp_path / "x.csv")
    code_schema = main(["sweep", "--config", schema_cfg, "--out", out])
    code_invariant = main(["sweep", "--config", invariant_cfg, "--out", out])
    code_wrap = main(
        ["invariance", "--config", wrap_cfg, "--times", "0,30", "--out", out]
    )

    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    code_run1 = main(["sweep", "--config", good_cfg, "--out", str(out1)])
    code_run2 = main(["sweep", "--config", good_cfg, "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()

    elapsed = time.perf_counter() - start
    ok = (
        code_schema == 3
        and code_invariant == 4
        and code_wrap == 8
        and code_run1 == code_run2 == 0
        and identical
        and elapsed < 5.0
    )
    _report(
        capsys,
        "criterion 6 (CLI exit codes and deterministic CSV)",
        ok,
        f"schema exit {code_schema} == 3, invariant exit {code_invariant} == 4, "
        f"wraparound exit {code_wrap} == 8, byte-identical CSV {identical}, "
        f"{elapsed:.2f}s < 5s",
    )
