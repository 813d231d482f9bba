"""The sweep's columns equal a row-by-row evaluation of the README formula, bit for bit.

The reference below uses only Python ``complex`` and ``cmath``, one row at a
time.  ``sweep_d2`` computes the same numbers through ``cmath.rect`` and
``models._rate``; the comparison is ``==``, not a tolerance, because
the CSV prints 17 significant digits and any last-bit drift would change it.
The shortcut columns must also equal the README's scalar API,
``plane_wave_epsilon`` and ``counting_rate_d1``, row by row.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from conftest import complex_column, random_close_pair, random_splitter
from platesim import (
    ExperimentGeometry,
    Preparation,
    derive_plane_wave_model,
    inner_product,
    plane_wave_epsilon,
    split,
    sweep_d2,
)
from platesim.models import counting_rate_d1
from platesim.packets import norm2


def _reference_rows(alpha, beta, bs, l1, c, phi, l2_values):
    """The CSV's eight values per row: l2, t2, the parts of eps_exact and of
    eps_wss, rate_exact and rate_wss."""
    sa, sb = split(alpha, bs), split(beta, bs)
    a1 = inner_product(sa.arm1, sb.arm1)
    a2 = inner_product(sa.arm2, sb.arm2)
    n_a1, n_b1 = norm2(sa.arm1), norm2(sb.arm1)
    d_omega = c * alpha.k0 - c * beta.k0
    eps = inner_product(alpha, beta)
    rot = cmath.exp(1j * phi)

    def rate(x, eps_n):
        denom = 2.0 + 2.0 * (rot * eps_n).real
        return min(1.0, max(0.0, (n_a1 + n_b1 + 2.0 * (rot * x).real) / denom))

    t1 = l1 / c
    x1_wss = a1 * cmath.exp(1j * d_omega * t1)
    rate_exact = rate(a1, eps)
    rows = []
    for l2 in l2_values:
        t2 = l2 / c
        eps_wss = a1 * cmath.exp(1j * d_omega * t1) + a2 * cmath.exp(1j * d_omega * t2)
        rows.append((l2, t2, eps.real, eps.imag, eps_wss.real, eps_wss.imag, rate_exact,
                     rate(x1_wss, eps_wss)))
    return rows


@pytest.mark.parametrize("seed", range(30))
def test_sweep_columns_equal_the_row_by_row_formula(seed):
    rng = np.random.default_rng(1000 + seed)
    alpha, beta = random_close_pair(rng)
    bs = random_splitter(rng)
    l1 = rng.uniform(0.1, 20.0)
    c = rng.uniform(0.2, 5.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    l2_values = rng.uniform(0.01, 60.0, size=int(rng.integers(1, 300))).tolist()

    geom = ExperimentGeometry(l1=l1, l2=1.0, c=c)
    result = sweep_d2(
        alpha, beta, bs, geom, l2_values, Preparation(phi=phi), alpha.k0, beta.k0
    )
    want = _reference_rows(alpha, beta, bs, l1, c, phi, l2_values)
    got = zip(*(getattr(result, name) for name in result._fields))
    for row, (got_row, want_row) in enumerate(zip(got, want, strict=True)):
        assert got_row == want_row, f"row {row}"

    sa, sb = split(alpha, bs), split(beta, bs)
    m = derive_plane_wave_model(sa, sb, alpha.k0, beta.k0, c)
    x1 = m.a1 * cmath.rect(1.0, m.delta_omega * (l1 / c))
    n_a1, n_b1 = norm2(sa.arm1), norm2(sb.arm1)
    eps_plane_wave = complex_column(result, "eps_plane_wave")
    shortcut = zip(result.l2, eps_plane_wave, result.rate_plane_wave, strict=True)
    for row, (l2, eps_pw, rate_pw) in enumerate(shortcut):
        eps = plane_wave_epsilon(m, l1 / c, l2 / c)
        assert eps_pw == eps, f"row {row}"
        assert rate_pw == counting_rate_d1(eps, n_a1, n_b1, x1, Preparation(phi)), f"row {row}"
