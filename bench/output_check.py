"""Independent checks of `simulate` output, in pure Python.

Nothing here imports platesim: the expected values are re-derived from
the packet convention in the README,

    psi(x) = (pi sigma^2)^(-1/4) exp(-(x - x0)^2 / (2 sigma^2))
             * exp(i k0 (x - x0) + i phase),

so a bug shared by the program and its own overlap code cannot hide.
Each check returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import cmath
import csv
import io
import math

SWEEP_HEADER = [
    "l2", "t2", "eps_exact_re", "eps_exact_im",
    "eps_wss_re", "eps_wss_im", "rate_exact", "rate_wss",
]
INVARIANCE_HEADER = ["t", "eps_re", "eps_im", "abs_dev_from_t0"]

EXACT_TOL = 1e-12
RATE_TOL = 1e-10
# The sampled representation matches the closed form only to quadrature
# accuracy, which the acceptance gate pins at 1e-6.
SAMPLED_TOL = 1e-6
DEFAULT_ANALYTIC_TOL = 1e-12
DEFAULT_GRID_TOL = 1e-8


def gaussian_overlap(a: dict, b: dict) -> complex:
    """<a|b> in closed form, integrated in the frame centred on ``a``.

    With u = x - a.x0 and d = b.x0 - a.x0 the integrand is
    exp(-P u^2 + Q u + R), whose integral is sqrt(pi/P) exp(Q^2/(4P) + R).
    """
    sa, sb = a["sigma"], b["sigma"]
    d = b["x0"] - a["x0"]
    p = 1.0 / (2.0 * sa * sa) + 1.0 / (2.0 * sb * sb)
    q = d / (sb * sb) + 1j * (b["k0"] - a["k0"])
    r = -d * d / (2.0 * sb * sb) - 1j * b["k0"] * d + 1j * (
        b.get("phase", 0.0) - a.get("phase", 0.0)
    )
    norm = (math.pi * sa * sa) ** -0.25 * (math.pi * sb * sb) ** -0.25
    return norm * math.sqrt(math.pi / p) * cmath.exp(q * q / (4.0 * p) + r)


def _amplitudes(scn: dict) -> tuple[complex, complex]:
    s = scn["splitter"]
    return complex(s["r_re"], s["r_im"]), complex(s["t_re"], s["t_im"])


def _rate(n_arm: float, x: complex, eps: complex, phi: float) -> float:
    rot = cmath.exp(1j * phi)
    raw = (2.0 * n_arm + 2.0 * (rot * x).real) / (2.0 + 2.0 * (rot * eps).real)
    return min(1.0, max(0.0, raw))


def _parse(text: str, header: list[str]) -> tuple[list[list[float]], list[str]]:
    lines = list(csv.reader(io.StringIO(text)))
    if not lines or lines[0] != header:
        return [], [f"bad header: {lines[0] if lines else 'empty file'}"]
    try:
        rows = [[float(v) for v in line] for line in lines[1:]]
    except ValueError as exc:
        return [], [f"unparsable value: {exc}"]
    if any(len(row) != len(header) for row in rows):
        return [], ["row with the wrong number of fields"]
    return rows, []


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def check_sweep(text: str, scn: dict) -> list[str]:
    """Problems with a `simulate sweep` CSV of a Gaussian scenario."""
    rows, problems = _parse(text, SWEEP_HEADER)
    if problems:
        return problems
    geo = scn["geometry"]
    n, c = geo["n_points"], geo["c"]
    if len(rows) != n:
        return [f"expected {n} rows, got {len(rows)}"]
    a, b = scn["packet_alpha"], scn["packet_beta"]
    r, t = _amplitudes(scn)
    phi = scn["preparation_phi"]
    eps = gaussian_overlap(a, b)
    d_omega = c * a["k0"] - c * b["k0"]
    l2_min = geo["l2_min"]
    l2_max = l2_min + 2.0 * (2.0 * math.pi * c / abs(d_omega))
    step = (l2_max - l2_min) / (n - 1) if n > 1 else 0.0
    t1 = geo["l1"] / c
    x1_wss = abs(r) ** 2 * eps * cmath.exp(1j * d_omega * t1)
    rate_exact = _rate(abs(r) ** 2, abs(r) ** 2 * eps, eps, phi)

    for i, (l2, t2, e_re, e_im, w_re, w_im, q_exact, q_wss) in enumerate(rows):
        where = f"row {i + 1}"
        if not _close(l2, l2_min + i * step, EXACT_TOL):
            problems.append(f"{where}: l2 {l2!r} off the requested range")
        if not _close(t2, l2 / c, EXACT_TOL):
            problems.append(f"{where}: t2 {t2!r} != l2/c")
        if abs(complex(e_re, e_im) - eps) > EXACT_TOL:
            problems.append(f"{where}: eps_exact {complex(e_re, e_im)} != {eps}")
        wss = eps * (abs(r) ** 2 * cmath.exp(1j * d_omega * t1)
                     + abs(t) ** 2 * cmath.exp(1j * d_omega * t2))
        if abs(complex(w_re, w_im) - wss) > EXACT_TOL:
            problems.append(f"{where}: eps_wss {complex(w_re, w_im)} != {wss}")
        if q_exact != rows[0][6]:
            problems.append(f"{where}: rate_exact is not constant")
        if abs(q_exact - rate_exact) > RATE_TOL:
            problems.append(f"{where}: rate_exact {q_exact!r} != {rate_exact!r}")
        want = _rate(abs(r) ** 2, x1_wss, wss, phi)
        if abs(q_wss - want) > RATE_TOL:
            problems.append(f"{where}: rate_wss {q_wss!r} != {want!r}")
    return problems


def check_invariance(text: str, stdout: str, scn: dict, times: list[float]) -> list[str]:
    """Problems with a `simulate invariance` CSV and its summary."""
    rows, problems = _parse(text, INVARIANCE_HEADER)
    if problems:
        return problems
    if "invariance: ok" not in stdout.splitlines():
        problems.append("summary does not report 'invariance: ok'")
    if len(rows) != len(times):
        return problems + [f"expected {len(times)} rows, got {len(rows)}"]
    tols = scn.get("tolerances", {})
    if scn.get("representation") == "grid":
        tol = tols.get("grid_tol", DEFAULT_GRID_TOL)
    else:
        tol = tols.get("analytic_tol", DEFAULT_ANALYTIC_TOL)
    eps = gaussian_overlap(scn["packet_alpha"], scn["packet_beta"])
    for i, ((t, e_re, e_im, dev), want_t) in enumerate(zip(rows, times)):
        where = f"row {i + 1}"
        if t != want_t:
            problems.append(f"{where}: t {t!r} != requested {want_t!r}")
        if not 0.0 <= dev <= tol:
            problems.append(f"{where}: abs_dev {dev!r} outside [0, {tol:g}]")
        if abs(complex(e_re, e_im) - eps) > SAMPLED_TOL:
            problems.append(f"{where}: eps {complex(e_re, e_im)} far from {eps}")
    return problems
