"""Properties of the scalar sweep formulas, the sweep grid and the sweep CSV,
over drawn inputs.

``ScenarioConfig.l2_values`` must reproduce ``numpy.linspace`` bit for bit
(the golden CSVs were written with it); the D1 and D2 rates of a lossless
plate sum to 1, exact and under the shortcut at drawn (t1, t2); the
plane-wave overlap repeats in t2 with period ``2*pi/|d_omega|``, and over a
sweep of at least one period it swings
within its closed-form bounds, by 2|t|^2 |eps| to rounding when the sweep
holds antipodal rows, so the swing dies with the spectral overlap;
splitting on a unitary plate keeps the overlap of two packets, Gaussian
or sampled; flown term by term, each arm pair to its own detector's time
as the shortcut does, the overlap is still eps on every row of both
committed sweeps and over drawn (t1, t2), and a drawn grid pair flown to
a drawn time keeps its overlap or refuses the flight; on a plate at the
unitarity edge both rates stay in [0, 1]; the closed-form overlap holds
at width ratios up to 1e10;
``run_sweep`` writes every value of ``sweep_d2`` with ``%.17g``, its
constant columns included; the printed period and the loader's default
span come from the rows' d_omega.
"""

from __future__ import annotations

import cmath
import math
import sys
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import exact_overlap, pairwise_max_abs, phase_error  # noqa: E402
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
from platesim.config import FALLBACK_L2_SPAN, ScenarioConfig, load_config  # noqa: E402
from platesim.optics import UNITARITY_TOL, BeamSplitter, overlap_post  # noqa: E402
from platesim.packets import SpatialGrid, WraparoundError, norm2, propagate  # noqa: E402
from platesim.sampled import normalize, sample  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
EPS = sys.float_info.epsilon
DEFAULT_GRID_TOL = 1e-8  # tolerances.grid_tol's default
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


@settings(max_examples=500)
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


flight_times = st.floats(0.0, 1e12)


@settings(max_examples=300)
@given(
    packets(), packets(), unitary_splitters(), st.floats(0.0, 2.0 * math.pi), flight_times,
    flight_times,
)
def test_d1_and_d2_rates_sum_to_one(alpha, beta, bs, phi, t1, t2):
    # Exact: both rates over eps.  The shortcut's: D1 fed x1 = a1 e^{i d_omega t1}
    # and D2 fed x2 = a2 e^{i d_omega t2}, both over eps_wss = x1 + x2, so moving
    # D2 moves D1's rate but loses no probability.
    prep = Preparation(phi=phi)
    rot = complex(math.cos(phi), math.sin(phi))
    eps = inner_product(alpha, beta)
    sa, sb = split(alpha, bs), split(beta, bs)
    m = derive_plane_wave_model(sa, sb, alpha.k0, beta.k0)
    x1 = m.a1 * cmath.rect(1.0, m.delta_omega * t1)
    x2 = m.a2 * cmath.rect(1.0, m.delta_omega * t2)
    eps_wss = plane_wave_epsilon(m, t1, t2)
    for overlap, arm1_term, arm2_term in ((eps, m.a1, m.a2), (eps_wss, x1, x2)):
        # Far from a degenerate preparation, where roundoff in the numerators
        # is divided by a denominator near 0.
        assume(2.0 + 2.0 * (rot * overlap).real > 1e-2)
        r1 = counting_rate_d1(overlap, norm2(sa.arm1), norm2(sb.arm1), arm1_term, prep)
        r2 = counting_rate_d1(overlap, norm2(sa.arm2), norm2(sb.arm2), arm2_term, prep)
        assert abs(r1 + r2 - 1.0) <= 1e-12


@settings(max_examples=300)
@given(packets(), packets(), unitary_splitters())
def test_split_keeps_the_gaussian_overlap(alpha, beta, bs):
    eps = inner_product(alpha, beta)
    # |r|^2 + |t|^2 is 1 within the defect; the products and the sum add a few ulps.
    bound = (2.0 * bs.unitarity_defect() + 8.0 * EPS) * abs(eps)
    assert abs(overlap_post(split(alpha, bs), split(beta, bs)) - eps) <= bound


@settings(max_examples=300)
@given(
    st.floats(0.5, 2.0),  # the wider sigma
    st.floats(0.0, 150.0),  # log10 of the width ratio
    st.floats(5.0, 16.0),  # k0 * sigma of the narrower packet
    st.floats(-1.0, 1.0),  # detuning times the narrower sigma
    st.floats(-3.0, 3.0),  # separation over the wider sigma
    st.floats(-math.pi, math.pi),
    st.booleans(),
)
def test_closed_form_overlap_holds_at_any_width_ratio(
    wide, log_ratio, k_sigma, detune, d, phase, swap
):
    narrow = wide / 10.0**log_ratio
    a = GaussianPacket(0.0, narrow, k_sigma / narrow, phase)
    b = GaussianPacket(d * wide, wide, (k_sigma + detune) / narrow)
    a, b = (b, a) if swap else (a, b)
    eps = inner_product(a, b)
    assert abs(eps) <= 1.0 + 8.0 * EPS  # Cauchy-Schwarz, to rounding
    # eps = pref exp(re + i im), each part in exact rationals of the packets'
    # doubles (conftest); only the logarithm and the floats round.
    pref, re, im, scale = exact_overlap(a, b)
    assume(math.log(pref) + re > -700.0)  # |eps| stays a normal double
    # Each rounding moves ln|eps / pref| by a few EPS of the exponent's real
    # terms, both at most 0, and the phase by a few EPS of im's largest term
    # (worst of 100,000 random draws: 2.3 EPS (|re| + 1) and 2.6 EPS (scale + pi)).
    assert abs(math.log(abs(eps) / pref) - re) <= 16.0 * EPS * (abs(re) + 1.0)
    assert phase_error(eps, im) <= 8.0 * EPS * (scale + math.pi)


WIDE_GRID = SpatialGrid(x_min=-40.0, dx=1.0 / 16.0, n=4096)  # acceptance criterion 2's window


@settings(max_examples=30)
@given(packets(), packets(), unitary_splitters())
def test_split_keeps_the_grid_overlap(alpha, beta, bs):
    a, b = (normalize(sample(p, WIDE_GRID)) for p in (alpha, beta))
    assert abs(overlap_post(split(a, bs), split(b, bs)) - inner_product(a, b)) <= 1e-12


def term_wise_overlap(sa, sb, t1: float, t2: float, c: float) -> complex:
    """<a1(t1)|b1(t1)> + <a2(t2)|b2(t2)>: each arm pair flown to its own detector's time,
    the step the shortcut takes, with the real propagator."""
    arm1 = inner_product(propagate(sa.arm1, t1, c), propagate(sb.arm1, t1, c))
    return arm1 + inner_product(propagate(sa.arm2, t2, c), propagate(sb.arm2, t2, c))


def gaussian_term_wise_bound(bs: BeamSplitter, eps: complex) -> float:
    # |r|^2 + |t|^2 is 1 within the defect; the products and the sum add a few ulps.
    return 2.0 * bs.unitarity_defect() * abs(eps) + 4.0 * math.ulp(abs(eps))


@pytest.mark.parametrize("name", ["default", "grid"])
def test_each_committed_sweep_row_flown_term_by_term_keeps_eps(name):
    # README's claim: evaluated at (t1, t2) = (l1 / c, l2 / c), each arm pair
    # flown to its own time, the overlap is still eps on every row.
    cfg = load_config(ROOT / "scenarios" / f"{name}.json")
    alpha, beta = cfg.realize_packets()[:2]
    eps = inner_product(alpha, beta)
    sa, sb = split(alpha, cfg.splitter), split(beta, cfg.splitter)
    t1 = cfg.l1 / cfg.c
    rows = [term_wise_overlap(sa, sb, t1, l2 / cfg.c, cfg.c) for l2 in cfg.l2_values()]
    bound = gaussian_term_wise_bound(cfg.splitter, eps) if cfg.grid is None else cfg.invariance_tol
    assert max(abs(row - eps) for row in rows) <= bound


@settings(max_examples=100)
@given(packets(), packets(), unitary_splitters(), flight_times, flight_times, st.floats(0.5, 2.0))
def test_gaussian_arms_flown_to_their_own_times_keep_eps(alpha, beta, bs, t1, t2, c):
    eps = inner_product(alpha, beta)
    deviation = abs(term_wise_overlap(split(alpha, bs), split(beta, bs), t1, t2, c) - eps)
    assert deviation <= gaussian_term_wise_bound(bs, eps)


@settings(max_examples=20)
@given(packets(), packets(), st.floats(0.0, 300.0), st.floats(0.5, 2.0))
def test_a_grid_pair_flown_keeps_its_overlap_or_refuses(alpha, beta, t, c):
    # the loader's rule: carriers inside the grid's Nyquist band (x0 +/- 8 sigma fits)
    assume(all(p.k0 + 4.0 / p.sigma <= math.pi / WIDE_GRID.dx for p in (alpha, beta)))
    a, b = (normalize(sample(p, WIDE_GRID)) for p in (alpha, beta))
    try:
        flown = inner_product(propagate(a, t, c), propagate(b, t, c))
    except WraparoundError:
        return
    assert abs(flown - inner_product(a, b)) <= DEFAULT_GRID_TOL


defects = st.one_of(
    st.sampled_from([-UNITARITY_TOL, UNITARITY_TOL]), st.floats(-UNITARITY_TOL, UNITARITY_TOL)
)


@st.composite
def edge_splitters(draw):
    """A unitary plate scaled so that |r|^2 + |t|^2 - 1 lies anywhere in
    [-UNITARITY_TOL, UNITARITY_TOL], the ends included."""
    bs, size = draw(unitary_splitters()), math.sqrt(1.0 + draw(defects))
    try:
        return BeamSplitter(size * bs.r, size * bs.t)
    except ValueError:  # the square root or the products rounded past the edge
        assume(False)


@settings(max_examples=100)
@given(packets(), packets(), edge_splitters(), st.floats(0.0, 2.0 * math.pi))
def test_rates_on_the_unitarity_edge_lie_in_the_unit_interval(alpha, beta, bs, phi):
    # With t = 0 the exact rate is |r|^2, up to 1 + UNITARITY_TOL, and the
    # shortcut's is above 1 too: only the clamp keeps them in [0, 1].
    l2_values = [1.0 + 0.5 * i for i in range(20)]
    try:
        result = sweep_d2(
            alpha, beta, bs, ExperimentGeometry(l1=1.0, l2=1.0), l2_values, Preparation(phi),
            alpha.k0, beta.k0,
        )
    except DegeneratePreparationError:
        assume(False)
    for rates in (result.rate_exact, result.rate_plane_wave):
        assert all(0.0 <= rate <= 1.0 for rate in rates)


parts = st.floats(-1.0, 1.0, allow_subnormal=False)  # else the bound underflows to 0
amplitudes = st.builds(complex, parts, parts)


@settings(max_examples=500)
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
    m = PlaneWaveModel(delta_omega=(omega + sign * detune) - omega, a1=a1, a2=a2)
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


@settings(max_examples=200)
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
    swing = pairwise_max_abs(result.eps_plane_wave)
    assert 2.0 * a2 * math.cos(delta / 4.0) - slack <= swing <= 2.0 * a2 + slack

    re_x1 = (cmath.exp(1j * phi) * x1).real
    d0, num = 2.0 + 2.0 * re_x1, norm2(sa.arm1) + norm2(sb.arm1) + 2.0 * re_x1
    if d0 - 2.0 * a2 > 1e-2:  # away from the shortcut's degenerate rows

        def clamp(rate):
            return min(1.0, max(0.0, rate))

        closed_form = clamp(num / (d0 - 2.0 * a2)) - clamp(num / (d0 + 2.0 * a2))
        assert result.spread("rate_plane_wave") <= closed_form + 1e-9


@settings(max_examples=200)
@given(
    st.floats(0.5, 8.0),
    st.floats(0.5, 8.0),
    st.floats(13.0, 40.0),  # so k0 * sigma >= 4 for both packets
    st.floats(0.05, 5.0),
    st.sampled_from([1.0, -1.0]),
    st.floats(-3.0, 3.0),
    unitary_splitters(),
)
@example(1.0, 1.0, 12.0, 0.8, 1.0, 0.0, balanced_splitter())  # default.json
def test_shortcut_swing_is_the_plate_weighted_spectral_overlap(
    sigma_a, sigma_b, k_alpha, detune, sign, d, bs
):
    # The swing over a sweep with antipodal rows is the diameter 2|a2|, and
    # a2 = |t|^2 eps.  For Gaussians, |eps| is the closed form below: once
    # the spectra, of widths 1/sigma, stop overlapping, so does the artifact.
    alpha = GaussianPacket(0.0, sigma_a, k_alpha)
    beta = GaussianPacket(d, sigma_b, k_alpha + sign * detune)
    dk = beta.k0 - alpha.k0  # not detune: k_alpha + detune is rounded
    s2 = sigma_a**2 + sigma_b**2
    exponent = (dk * sigma_a * sigma_b) ** 2 / (2.0 * s2) + d**2 / (2.0 * s2)
    assume(exponent < 600.0)  # |eps| stays a normal double
    closed = math.sqrt(2.0 * sigma_a * sigma_b / s2) * math.exp(-exponent)
    # 201 rows over two periods at c = 1: rows 50 apart are half a period apart
    l2_values = np.linspace(1.0, 1.0 + 4.0 * math.pi / abs(dk), 201)
    try:
        result = sweep_d2(
            alpha, beta, bs, ExperimentGeometry(1.0, 1.0, 1.0), l2_values, Preparation(0.0),
            alpha.k0, beta.k0,
        )
    except DegeneratePreparationError:
        assume(False)
    # exp(-exponent) carries the exponent's rounding, a few ulps of it; the
    # swing's terms, |r|^2|eps| and |t|^2|eps|, a few ulps of |eps| (worst
    # of 20,000 random draws: 6.7 EPS (exponent + 4) |eps|).
    tol = 16.0 * EPS * (exponent + 4.0) * closed
    assert abs(pairwise_max_abs(result.eps_plane_wave) - 2.0 * abs(bs.t) ** 2 * closed) <= tol


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


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
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


def _near_carriers(raw: dict) -> dict:
    """``raw`` with beta's k0 one ulp above alpha's, at alpha's sigma: the two
    c * k0 round to one double or to two a few ulps apart."""
    alpha = raw["packet_alpha"]
    k0 = math.nextafter(alpha["k0"], math.inf)
    beta = {**raw["packet_beta"], "sigma": alpha["sigma"], "k0": k0}
    return {**raw, "packet_beta": beta}


# The k0 differ, c * k0 does not; c * (k0_alpha - k0_beta) is -8.6e-16.
CARRIERS_EQUAL = {
    "packet_alpha": {"x0": 0, "sigma": 1, "k0": 12.0},
    "packet_beta": {"x0": 0, "sigma": 1, "k0": 12.000000000000002},
    "geometry": {"c": 0.4867311418958834},
}


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(gaussian_scenarios() | gaussian_scenarios().map(_near_carriers))
@example(CARRIERS_EQUAL)
def test_printed_period_and_default_span_read_the_rows_d_omega(tmp_path, capsys, raw):
    cfg = parse_config(raw)
    alpha, beta, k_alpha, k_beta = cfg.realize_packets()
    try:
        assert run_sweep(cfg, tmp_path / "sweep.csv") == 0
    except DegeneratePreparationError:
        assume(False)
    printed = capsys.readouterr().out.splitlines()[-1]
    sa, sb = split(alpha, cfg.splitter), split(beta, cfg.splitter)
    d_omega = derive_plane_wave_model(sa, sb, k_alpha, k_beta, cfg.c).delta_omega  # the rows'
    default_span = "l2_max" not in raw.get("geometry", {})
    if printed != "spatial period: inf":
        assert d_omega != 0.0, printed
        period = 2.0 * math.pi * cfg.c / abs(d_omega)
        assert printed == f"spatial period: {period:.6g}"
        assert not default_span or cfg.l2_max == cfg.l2_min + 2.0 * period
    else:
        assert d_omega == 0.0
        assert not default_span or cfg.l2_max == cfg.l2_min + FALLBACK_L2_SPAN
