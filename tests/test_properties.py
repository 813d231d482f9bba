"""Properties of the scalar sweep formulas, the sweep grid and the sweep CSV,
over drawn inputs.

``ScenarioConfig.l2_values`` must reproduce ``numpy.linspace`` bit for bit
(the golden CSVs were written with it); the D1 and D2 rates of a lossless
plate sum to 1; the plane-wave overlap repeats in t2 with period
``2*pi/|d_omega|``, and over a sweep of at least one period it swings
within its closed-form bounds; splitting on a unitary plate keeps the
overlap of two packets, Gaussian or sampled; ``run_sweep`` writes every
value of ``sweep_d2`` with ``%.17g``, its constant columns included.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from platesim import (  # noqa: E402
    DegeneratePreparationError,
    ExperimentGeometry,
    GaussianPacket,
    Preparation,
    balanced_splitter,
    derive_plane_wave_model,
    inner_product,
    parse_config,
    split,
    sweep_d2,
)
from platesim.cli import SWEEP_HEADER, run_sweep  # noqa: E402
from platesim.models import PlaneWaveModel, counting_rate_d1, plane_wave_epsilon  # noqa: E402
from platesim.config import ScenarioConfig  # noqa: E402
from platesim.optics import BeamSplitter, overlap_post  # noqa: E402
from platesim.packets import norm2  # noqa: E402
from platesim.sampled import SpatialGrid, normalize, sample  # noqa: E402

EPS = sys.float_info.epsilon
BASE = parse_config(
    {
        "packet_alpha": {"x0": 0.0, "sigma": 1.0, "k0": 12.0},
        "packet_beta": {"x0": 0.0, "sigma": 1.0, "k0": 12.8},
    }
)
TINY = 5e-324  # the smallest subnormal

positive = st.floats(min_value=TINY, max_value=1e300)
# (l2_min, l2_max): ordinary, equal, and a few subnormals apart, where
# numpy's step underflows to 0 and it divides before multiplying.
ranges = st.one_of(
    st.tuples(positive, positive).map(sorted),
    positive.map(lambda x: (x, x)),
    st.tuples(st.integers(1, 2**30), st.integers(0, 1000)).map(
        lambda ab: (ab[0] * TINY, (ab[0] + ab[1]) * TINY)
    ),
)
counts = st.one_of(st.just(1), st.integers(1, 5), st.integers(1, 3000))


@settings(max_examples=500, deadline=None, database=None)
@given(ranges, counts)
def test_l2_values_equal_numpy_linspace_bit_for_bit(l2_range, n):
    l2_min, l2_max = l2_range
    cfg = ScenarioConfig(**{**vars(BASE), "l2_min": l2_min, "l2_max": l2_max, "n_points": n})
    assert cfg.l2_values().tobytes() == np.linspace(l2_min, l2_max, n).tobytes()


@st.composite
def packets(draw):
    sigma = draw(st.floats(0.5, 2.0))
    return GaussianPacket(
        x0=draw(st.floats(-3.0, 3.0)),
        sigma=sigma,
        k0=draw(st.floats(4.5, 30.0)) / sigma,
        phase=draw(st.floats(0.0, 2.0 * math.pi)),
    )


@st.composite
def unitary_splitters(draw):
    theta = draw(st.floats(0.0, math.pi / 2.0))
    r_arg, t_arg = draw(st.floats(0.0, 2.0 * math.pi)), draw(st.floats(0.0, 2.0 * math.pi))
    return BeamSplitter(
        r=math.cos(theta) * complex(math.cos(r_arg), math.sin(r_arg)),
        t=math.sin(theta) * complex(math.cos(t_arg), math.sin(t_arg)),
    )


@settings(max_examples=300, deadline=None, database=None)
@given(packets(), packets(), unitary_splitters(), st.floats(0.0, 2.0 * math.pi))
def test_d1_and_d2_rates_sum_to_one(alpha, beta, bs, phi):
    prep = Preparation(phi=phi)
    eps = inner_product(alpha, beta)
    # Far from a degenerate preparation, where roundoff in the numerators
    # is divided by a denominator near 0.
    assume(2.0 + 2.0 * (complex(math.cos(phi), math.sin(phi)) * eps).real > 1e-2)
    sa, sb = split(alpha, bs), split(beta, bs)
    r1 = counting_rate_d1(
        eps, norm2(sa.arm1), norm2(sb.arm1), inner_product(sa.arm1, sb.arm1), prep
    )
    r2 = counting_rate_d1(
        eps, norm2(sa.arm2), norm2(sb.arm2), inner_product(sa.arm2, sb.arm2), prep
    )
    assert abs(r1 + r2 - 1.0) <= 1e-12


@settings(max_examples=300, deadline=None, database=None)
@given(packets(), packets(), unitary_splitters())
def test_split_keeps_the_gaussian_overlap(alpha, beta, bs):
    eps = inner_product(alpha, beta)
    # |r|^2 + |t|^2 is 1 within the defect; the products and the sum add a few ulps.
    bound = (2.0 * bs.unitarity_defect() + 8.0 * EPS) * abs(eps)
    assert abs(overlap_post(split(alpha, bs), split(beta, bs)) - eps) <= bound


WIDE_GRID = SpatialGrid(x_min=-40.0, dx=1.0 / 16.0, n=4096)  # acceptance criterion 2's window


@settings(max_examples=30, deadline=None, database=None)
@given(packets(), packets(), unitary_splitters())
def test_split_keeps_the_grid_overlap(alpha, beta, bs):
    a, b = (normalize(sample(p, WIDE_GRID)) for p in (alpha, beta))
    assert abs(overlap_post(split(a, bs), split(b, bs)) - inner_product(a, b)) <= 1e-12


parts = st.floats(-1.0, 1.0, allow_subnormal=False)  # else the bound underflows to 0
amplitudes = st.builds(complex, parts, parts)


@settings(max_examples=500, deadline=None, database=None)
@given(
    st.floats(1.0, 100.0),
    st.floats(1e-3, 10.0),
    st.sampled_from((-1.0, 1.0)),
    amplitudes,
    amplitudes,
    st.floats(0.0, 1e3),
    st.floats(0.0, 1e3),
)
def test_plane_wave_epsilon_periodic_in_t2(omega, detune, sign, a1, a2, t1, t2):
    m = PlaneWaveModel(omega_alpha=omega + sign * detune, omega_beta=omega, a1=a1, a2=a2)
    d_omega = abs(m.delta_omega)
    assume(d_omega > 0.0)
    period = 2.0 * math.pi / d_omega
    # Rounding of t2 + period and of the two phases d_omega * t, each a
    # few ulps of |d_omega| * (t2 + period), moves the a2 term by at most
    # |a2| times the phase error; cos and sin add an ulp each.
    tol = 8.0 * EPS * (abs(a1) + abs(a2)) * (d_omega * (t2 + period) + 2.0 * math.pi + 1.0)
    shifted = plane_wave_epsilon(m, t1, t2 + period)
    assert abs(shifted - plane_wave_epsilon(m, t1, t2)) <= tol


DEFAULT_PAIR = (GaussianPacket(0.0, 1.0, 12.0), GaussianPacket(0.0, 1.0, 12.8))


@settings(max_examples=200, deadline=None, database=None)
@given(
    packets(),
    packets(),
    unitary_splitters(),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
    st.floats(1.0, 3.0),
    st.integers(16, 200),
    st.floats(0.5, 2.0),
)
@example(*DEFAULT_PAIR, balanced_splitter(), 0.0, 1.0, 1.0, 2.0, 200, 1.0)  # default.json
def test_shortcut_swing_lies_within_its_closed_form(
    alpha, beta, bs, phi, l1, l2_min, periods, n, c
):
    # The shortcut's overlap x1 + a2 exp(i d_omega t2) runs around a circle
    # of radius |a2|.  A sweep over at least one period with phase step
    # delta = |d_omega| dt2 <= 2 pi has, for each row, a row within delta/2
    # of the antipode, so the swing is at least 2|a2| cos(delta/4); it is
    # at most the diameter.  Its D1 rate num / (D0 + 2 Re(rot a2 ...)) lies
    # between num / (D0 + 2|a2|) and num / (D0 - 2|a2|) when D0 > 2|a2|.
    sa, sb = split(alpha, bs), split(beta, bs)
    m = derive_plane_wave_model(sa, sb, alpha.k0, beta.k0, c)
    d_omega = abs(m.delta_omega)
    assume(d_omega > 1e-2)
    span = periods * 2.0 * math.pi * c / d_omega
    l2_values = np.linspace(l2_min, l2_min + span, n)
    try:
        result = sweep_d2(
            alpha, beta, bs, ExperimentGeometry(l1, l2_min, c), l2_values, Preparation(phi),
            alpha.k0, beta.k0,
        )
    except DegeneratePreparationError:
        assume(False)
    a2 = abs(m.a2)
    x1 = m.a1 * cmath.rect(1.0, m.delta_omega * (l1 / c))
    delta = d_omega * (span / (n - 1)) / c
    # Roundoff: the phases move each point by a relative 1e-9 at most, and
    # the sum x1 + a2 exp(...) by a few ulps of its terms.
    slack = 1e-9 * a2 + 8.0 * EPS * (abs(x1) + a2)
    swing = result.spread("eps_plane_wave")
    assert 2.0 * a2 * math.cos(delta / 4.0) - slack <= swing <= 2.0 * a2 + slack

    re_x1 = (cmath.exp(1j * phi) * x1).real
    d0, num = 2.0 + 2.0 * re_x1, norm2(sa.arm1) + norm2(sb.arm1) + 2.0 * re_x1
    if d0 - 2.0 * a2 > 1e-2:  # away from the shortcut's degenerate rows

        def clamp(rate):
            return min(1.0, max(0.0, rate))

        closed_form = clamp(num / (d0 - 2.0 * a2)) - clamp(num / (d0 + 2.0 * a2))
        assert result.spread("rate_plane_wave") <= closed_form + 1e-9


# Phases where sums and products of the overlap terms land on exact
# zeros, whose sign %.17g writes as "0" or "-0".
PHASES = st.one_of(
    st.floats(0.0, 2.0 * math.pi), st.sampled_from([0.0, -0.0, math.pi, -math.pi / 2.0])
)


@st.composite
def gaussian_scenarios(draw):
    def packet():
        sigma = draw(st.floats(0.5, 2.0))
        return {
            # 60 sigma apart, the overlap underflows to a signed zero
            "x0": draw(st.floats(-3.0, 3.0) | st.sampled_from([-60.0, 60.0])),
            "sigma": sigma,
            "k0": draw(st.floats(4.5, 30.0)) / sigma,
            "phase": draw(PHASES),
        }

    theta, r_arg, t_arg = (draw(st.floats(0.0, 2.0 * math.pi)) for _ in range(3))
    l2_min = draw(st.floats(0.1, 10.0))
    geometry = {
        "l1": draw(st.floats(0.1, 10.0)),
        "l2_min": l2_min,
        "n_points": draw(st.integers(1, 30)),
        "c": draw(st.floats(0.5, 2.0)),
    }
    if draw(st.booleans()):
        geometry["l2_max"] = l2_min + draw(st.floats(0.0, 50.0))
    return {
        "packet_alpha": packet(),
        "packet_beta": packet(),
        "splitter": {
            "r_re": math.cos(theta) * math.cos(r_arg),
            "r_im": math.cos(theta) * math.sin(r_arg),
            "t_re": math.sin(theta) * math.cos(t_arg),
            "t_im": math.sin(theta) * math.sin(t_arg),
        },
        "geometry": geometry,
        "preparation_phi": draw(PHASES),
    }


FAR_APART = {  # writes eps_exact_re as -0
    "packet_alpha": {"x0": 0.0, "sigma": 1.0, "k0": 12.0},
    "packet_beta": {"x0": -60.0, "sigma": 1.0, "k0": 12.8},
}


@settings(
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(gaussian_scenarios())
@example(FAR_APART)
def test_sweep_csv_is_every_sweep_d2_value_in_percent_17g(tmp_path, capsys, raw):
    cfg = parse_config(raw)
    alpha, beta = cfg.packet_alpha, cfg.packet_beta
    geom = ExperimentGeometry(cfg.l1, cfg.l2_min, cfg.c)
    try:
        result = sweep_d2(
            alpha, beta, cfg.splitter, geom, cfg.l2_values(), Preparation(cfg.preparation_phi),
            alpha.k0, beta.k0,
        )
    except DegeneratePreparationError:
        assume(False)
    columns = zip(
        result.l2, result.t2, result.eps_exact, result.eps_plane_wave,
        result.rate_exact, result.rate_plane_wave,
    )
    expected = ",".join(SWEEP_HEADER) + "\n" + "".join(
        ",".join("%.17g" % value for value in (l2, t2, e.real, e.imag, p.real, p.imag, r, rp))
        + "\n"
        for l2, t2, e, p, r, rp in columns
    )
    out = tmp_path / "sweep.csv"
    assert run_sweep(cfg, out) == 0
    capsys.readouterr()
    assert out.read_bytes() == expected.encode("utf-8")
