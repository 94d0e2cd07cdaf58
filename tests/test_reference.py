"""High-precision reference for the exceptional-point search and the pair models.

The optical matrix A(p) of each builtin crystal is rebuilt at 50 digits
straight from the formulas of ``crystal_optics`` (direction on the upper
hemisphere, eta = U + G(gamma . s), A = (I - s s^T) eta), and its spectrum
and largest singular value come from mpmath, not from LAPACK. At the p_star
of crystal-example-1's find-ep golden file the closest eigenvalue pair must
then meet the search's own convergence test, max(EP_GAP_TOL (1 + |lam|),
2 sqrt(eps) sigma_max): the golden point is an exceptional point to the
precision the search can resolve. (crystal-example-2's search converges on
its diabolic point, which find-ep refuses.)

At p = 0 the Jordan chain of crystal-example-1 and the bi-orthonormal frame
of crystal-example-2 are built in mpmath from a 50-digit SVD of A(0) - lam0 I,
and dA/dp by 50-digit central differences of A(p), not by
``family.derivative``. The closed forms of the ``ep_asymptotics`` and
``dp_asymptotics`` docstrings then give every number of the scenario and loop
golden files, which must agree to RTOL relative to max(1, |reference|); a
complex number counts as one number.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from eigencoupling import cli, crystal_optics, degeneracy, pairmodel

GOLDEN = Path(__file__).parent / "golden"
DIGITS = 50
RTOL = 1e-14
#: the inputs of the golden cases in tests/test_golden.py
OFFSET = 0.01
LOOP = (0.003, -0.002, 0.01)


def reference_matrix(spec, p):
    """A(p) of a DielectricSpec at DIGITS digits."""
    s1, s2 = (mpmath.mpf(x) for x in p)
    s = [s1, s2, mpmath.sqrt(1 - s1 * s1 - s2 * s2)]

    def entry(z):
        return mpmath.mpc(float(z.real), float(z.imag))

    g = [sum(entry(spec.activity[i, j]) * s[j] for j in range(3)) for i in range(3)]
    skew = [[0, -g[2], g[1]], [g[2], 0, -g[0]], [-g[1], g[0], 0]]
    eta = mpmath.matrix(3, 3)
    for i in range(3):
        for j in range(3):
            eta[i, j] = entry(spec.anisotropy[i, j]) + 1j * skew[i][j]
    projector = mpmath.eye(3) - mpmath.matrix(s) * mpmath.matrix(s).T
    return projector * eta


@pytest.mark.parametrize("family", ["crystal-example-1"])
def test_golden_p_star_is_an_exceptional_point(family):
    report = json.loads((GOLDEN / f"{family}.find-ep.json").read_text())
    p_star = report["p_star"]
    with mpmath.workdps(DIGITS):
        a = reference_matrix(crystal_optics.builtin_specs()[family], p_star)
        values = mpmath.eig(a, left=False, right=False)
        gap, lam = min((abs(values[i] - values[j]), (values[i] + values[j]) / 2)
                       for i in range(3) for j in range(i + 1, 3))
        sigma_max = max(mpmath.svd_c(a, compute_uv=False))
        floor = 2.0 * math.sqrt(np.finfo(float).eps) * float(sigma_max)
        threshold = max(degeneracy.EP_GAP_TOL * (1.0 + float(abs(lam))), floor)
        assert float(gap) <= threshold
    if family == "crystal-example-1":
        # the exceptional direction of the first crystal is s = (0, 0, 1)
        assert math.hypot(*p_star) <= 1e-15


def inner(x, y):
    """(x, y) = sum_i x_i conj(y_i) of two mpmath columns."""
    return mpmath.fsum(x[i] * mpmath.conj(y[i]) for i in range(x.rows))


def anchor(family):
    """lam0, the SVD U S V of A(0) - lam0 I, and dA/dp_s by central differences.

    lam0 is the mean of the closest eigenvalue pair of A(0); the mean is
    analytic at a double eigenvalue, so it is good to about DIGITS digits
    even where the two eigenvalues themselves are only good to half of them.
    """
    spec = crystal_optics.builtin_specs()[family]
    a = reference_matrix(spec, (0, 0))
    values = mpmath.eig(a, left=False, right=False)
    _, lam0 = min((abs(values[i] - values[j]), (values[i] + values[j]) / 2)
                  for i in range(3) for j in range(i + 1, 3))
    h = mpmath.mpf(10) ** -17      # truncation h^2 and rounding 10^-DIGITS / h about balance
    derivs = [(reference_matrix(spec, e) - reference_matrix(spec, [-x for x in e])) / (2 * h)
              for e in ((h, 0), (0, h))]
    return (lam0, *mpmath.svd_c(a - lam0 * mpmath.eye(3)), derivs)


def ep_reference():
    """lam0, split and drift of crystal-example-1 at p = 0 (ep_asymptotics)."""
    lam0, u, s, v, derivs = anchor("crystal-example-1")
    assert s[2] < 1e-40 < s[1]        # a one-dimensional kernel
    shifted = u * mpmath.diag(s) * v

    def solve(b, left, right):      # minimum-norm solve off the trailing singular pair
        return sum((inner(b, left(k)) / s[k] * right(k) for k in range(2)), mpmath.zeros(3, 1))

    u0 = v[2, :].H
    u1 = solve(u0, lambda k: u[:, k], lambda k: v[k, :].H)
    v0 = u[:, 2] / mpmath.conj(inner(u1, u[:, 2]))
    v1 = solve(v0, lambda k: v[k, :].H, lambda k: u[:, k])
    v1 = v1 - mpmath.conj(inner(u1, v1)) * v0
    assert mpmath.mnorm(shifted * u1 - u0, 1) < 1e-40
    assert mpmath.mnorm(shifted.H * v1 - v0, 1) < 1e-40
    split = [inner(d * u0, v0) for d in derivs]
    drift = [inner(d * u0, v1) + inner(d * u1, v0) for d in derivs]
    return lam0, split, drift


def dp_reference():
    """lam0 and the quadratic form (c11, c12, c22) of c(dp) of
    crystal-example-2 at p = 0 (dp_asymptotics)."""
    lam0, u, s, v, derivs = anchor("crystal-example-2")
    assert s[1] < 1e-40 < s[0]        # a two-dimensional kernel
    right, left = v[1:3, :].H, u[:, 1:3]
    gram = left.H * right              # gram[j, k] = (u_k, z_j)
    dual = left * mpmath.inverse(gram).H
    assert mpmath.mnorm(dual.H * right - mpmath.eye(2), 1) < 1e-40
    d = [[[inner(ds * right[:, i], dual[:, j]) for ds in derivs] for j in range(2)]
         for i in range(2)]
    diff = [d[0][0][s] - d[1][1][s] for s in range(2)]
    c11 = diff[0] ** 2 / 4 + d[0][1][0] * d[1][0][0]
    c12 = diff[0] * diff[1] / 2 + d[0][1][0] * d[1][0][1] + d[1][0][0] * d[0][1][1]
    c22 = diff[1] ** 2 / 4 + d[0][1][1] * d[1][0][1]
    return lam0, c11, c12, c22


def ep_scenario_offset():
    """cross_section of the EP model at the fixed offset dp2 = OFFSET."""
    lam0, split, drift = ep_reference()
    (f1, f2), (g1, g2) = ([z.real for z in split], [z.imag for z in split])
    (h1, h2), (r1, r2) = ([z.real for z in drift], [z.imag for z in drift])
    rest = mpmath.mpf(OFFSET)
    gamma = (f2 * g1 - f1 * g2) * rest
    report = {"kind": "EP", "gamma": gamma, "p1_cross": -g2 * rest / g1,
              "re_level": lam0.real - (h1 * g2 - g1 * h2) * rest / (2 * g1),
              "im_level": lam0.imag - (r1 * g2 - g1 * r2) * rest / (2 * g1),
              "re_slopes": None, "im_slopes": None, "vertical_tangents": False}
    if gamma / g1 < 0:
        half = g1 / 2 * mpmath.sqrt(-g1 / gamma)
        report.update(crossing="re", re_slopes=[h1 / 2 + half, h1 / 2 - half])
    else:
        half = g1 / 2 * mpmath.sqrt(g1 / gamma)
        report.update(crossing="im", im_slopes=[r1 / 2 + half, r1 / 2 - half])
    return report


def ep_loop():
    """loop_trajectory's report on the circle dp = LOOP (inside the EP) and
    the model pair lam0 + <drift, dp>/2 +- sqrt(F + iG) as a function of phi."""
    lam0, split, drift = ep_reference()
    (f1, f2), (g1, g2) = ([z.real for z in split], [z.imag for z in split])
    a, b, r = (mpmath.mpf(x) for x in LOOP)
    assert a * a + b * b < r * r
    kappa, denom, t = f2 * g1 - f1 * g2, g1 * g1 + g2 * g2, g2 * a - g1 * b
    root = mpmath.sqrt(t * t + (r * r - a * a - b * b) * denom)
    crossings = []
    for sign in (1, -1):
        for axis, val in (("re", kappa * (t + sign * root) / denom),
                          ("im", kappa * (-t + sign * root) / denom)):
            if val > 0:
                crossings += [{"axis": axis, "ordinate": o}
                              for o in (mpmath.sqrt(val), -mpmath.sqrt(val))]
    sigma = kappa * (g1 * b - g2 * a)
    # inside: both branches join into one curve about lam0, winding with the
    # orientation of dp -> F + iG
    report = {"regime": "inside", "n_curves": 1, "winding_number": 1 if kappa < 0 else -1,
              "sigma": sigma, "sigma_sign": 1 if sigma > 0 else -1, "axis_crossings": crossings}

    def pair(phi):
        dp = (a + r * mpmath.cos(phi), b + r * mpmath.sin(phi))
        mid = lam0 + (drift[0] * dp[0] + drift[1] * dp[1]) / 2
        w = mpmath.sqrt(split[0] * dp[0] + split[1] * dp[1])
        return mid + w, mid - w

    return report, pair


def dp_scenario():
    """surface_classification_2p of the DP model."""
    _, c11, c12, c22 = dp_reference()
    disc = c12.imag ** 2 - 4 * c11.imag * c22.imag
    assert disc > 0 and c11.imag != 0
    root = mpmath.sqrt(disc)
    lines = []
    for x, y in ((-(c12.imag + root), 2 * c11.imag), (-(c12.imag - root), 2 * c11.imag)):
        norm = mpmath.sqrt(x * x + y * y) * (1 if x > 0 or (x == 0 and y > 0) else -1)
        lines.append([x / norm, y / norm])
    signs = [1 if (c11 * x * x + c12 * x * y + c22 * y * y).real > 0 else -1 for x, y in lines]
    kind = ("one-re-one-im-line" if signs[0] != signs[1]
            else "re-cluster-of-shells" if signs[0] < 0 else "im-double-intersection")
    return {"kind": "DP", "type": kind, "discriminant": disc, "c11": c11, "c12": c12,
            "c22": c22, "lines": lines, "line_signs": signs, "chart_degenerate": False}


def dp_scenario_offset():
    """avoided_crossing_1p of the DP model at the fixed offset dp2 = OFFSET:
    c(dp1) = c2 dp1^2 + c1 dp1 + c0."""
    _, c11, c12, c22 = dp_reference()
    rest = mpmath.mpf(OFFSET)
    c0, c1, c2 = c22 * rest ** 2, c12 * rest, c11
    disc = c1.imag ** 2 - 4 * c0.imag * c2.imag
    assert disc > 0
    roots = [(-c1.imag - sign * mpmath.sqrt(disc)) / (2 * c2.imag) for sign in (1, -1)]
    values = [(c0 + c1 * x + c2 * x * x).real for x in roots]
    signs = [1 if x > 0 else -1 for x in values]
    scenario = ("one-re-one-im" if signs[0] != signs[1]
                else "two-re" if signs[0] < 0 else "two-im")
    return {"kind": "DP-1p", "scenario": scenario, "discriminant": disc, "c0": c0,
            "c1": c1, "c2": c2, "dp1_roots": roots, "c_values": values}


REFERENCES = {
    "crystal-example-1.scenario-offset.json": ep_scenario_offset,
    "crystal-example-1.loop.json": lambda: ep_loop()[0],
    "crystal-example-2.scenario.json": dp_scenario,
    "crystal-example-2.scenario-offset.json": dp_scenario_offset,
}


def distances(got, ref, path=""):
    """(path, got, ref, |got - ref| / max(1, |ref|)) for each number of a
    golden report; a {re, im} object is one complex number. Anything else
    must be equal."""
    if isinstance(ref, mpmath.mpc):
        got = mpmath.mpc(got["re"], got["im"])
    if isinstance(ref, (mpmath.mpf, mpmath.mpc)):
        return [(path, got, ref, float(abs(got - ref) / max(1, abs(ref))))]
    if isinstance(ref, dict):
        assert sorted(got) == sorted(ref), path
        return [x for key in sorted(ref) for x in distances(got[key], ref[key], f"{path}.{key}")]
    if isinstance(ref, list):
        assert len(got) == len(ref), path
        return [x for k, (g, r) in enumerate(zip(got, ref)) for x in distances(g, r, f"{path}[{k}]")]
    assert got == ref, path
    return []


def loop_csv_distances(text):
    """Per loop.csv row: phi against 2 pi k / n, and the row's two eigenvalues
    against the unordered reference pair."""
    _, pair = ep_loop()
    rows = [[float(x) for x in line.split(",")] for line in text.splitlines()[1:]]
    out = []
    for k, (phi, re_p, im_p, re_m, im_m) in enumerate(rows):
        plus, minus = pair(mpmath.mpf(phi))
        got = (mpmath.mpc(re_p, im_p), mpmath.mpc(re_m, im_m))
        dist = min(max(abs(got[0] - x) / max(1, abs(x)), abs(got[1] - y) / max(1, abs(y)))
                   for x, y in ((plus, minus), (minus, plus)))
        ref_phi = 2 * mpmath.pi * k / len(rows)
        out.append((f"row {k}", float(abs(phi - ref_phi) / max(1, ref_phi)), float(dist)))
    return out


def test_chain_and_frame_reference_values():
    """The paper's crystals at 50 digits: split (-4i, 4) and drift (-4i, 0)
    at the EP, c11 = 45 + 8i, c12 = 128i and c22 = -83 + 8i at the DP."""
    with mpmath.workdps(DIGITS):
        lam0, split, drift = ep_reference()
        assert abs(lam0 - 2) < 1e-40
        for got, want in zip(split + drift, (-4j, 4, -4j, 0)):
            assert abs(got - want) < 1e-30
        lam0, *c = dp_reference()
        assert abs(lam0 - (1 + 5j)) < 1e-40
        for got, want in zip(c, (45 + 8j, 128j, -83 + 8j)):
            assert abs(got - want) < 1e-30


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_golden_report_against_reference(name):
    report = json.loads((GOLDEN / name).read_text())
    with mpmath.workdps(DIGITS):
        found = distances(report, REFERENCES[name]())
    worst = max(found, key=lambda x: x[3])
    assert worst[3] <= RTOL, f"{name}{worst[0]}: {worst[1]} vs {worst[2]}"


def test_golden_loop_csv_against_reference():
    with mpmath.workdps(DIGITS):
        found = loop_csv_distances((GOLDEN / "crystal-example-1.loop.csv").read_text())
    assert len(found) == 720
    worst = max(found, key=lambda x: max(x[1:]))
    assert max(worst[1:]) <= RTOL, worst


@pytest.mark.parametrize("direction", [(0.0, 1.0), (0.6, 0.8)])
def test_ep_model_order_of_accuracy(ep_model, direction):
    """The EP model's pair at dp = t d against the 50-digit spectrum of
    A(t d), t from 1e-2 to 1e-6: the model keeps the sqrt(t) and t terms of
    the Puiseux series, so its error falls like t^(3/2). (Along d = (1, 0) the
    t^(3/2) term of crystal-example-1 vanishes and the error falls like t^2.)"""
    spec = crystal_optics.builtin_specs()["crystal-example-1"]
    ts = np.logspace(-2, -6, 9)
    pairs = pairmodel.sheets(ep_model, np.outer(ts, direction)).pair
    errors = []
    with mpmath.workdps(DIGITS):
        for t, pair in zip(ts, pairs):
            values = mpmath.eig(reference_matrix(spec, t * np.array(direction)),
                                left=False, right=False)
            plus, minus = (mpmath.mpc(complex(z)) for z in pair)
            errors.append(float(min(max(abs(plus - values[i]), abs(minus - values[j]))
                                    for i in range(3) for j in range(3) if i != j)))
    slope = np.polyfit(np.log(ts), np.log(errors), 1)[0]
    assert abs(slope - 1.5) <= 0.05, errors


@pytest.mark.parametrize("direction", [(0.0, 1.0), (0.6, 0.8)])
def test_dp_model_order_of_accuracy(direction):
    """The DP model that the command line shares between its commands at
    crystal-example-2's anchor, its pair at dp = t d against the 50-digit
    spectrum of A(t d), t from 1e-2 to 1e-6: along a line the pair of a DP
    splits like t, the model keeps those terms, and its error falls like t^2.
    The reference shares no code with the frame, the coupling or the model."""
    model = cli._anchor(cli._load_family("crystal-example-2"), np.zeros(2).tobytes(),
                        degeneracy.DEFAULT_CLUSTER_TOL, degeneracy.DEFAULT_RANK_TOL).model
    spec = crystal_optics.builtin_specs()["crystal-example-2"]
    ts = np.logspace(-2, -6, 9)
    pairs = pairmodel.sheets(model, np.outer(ts, direction)).pair
    errors = []
    with mpmath.workdps(DIGITS):
        for t, pair in zip(ts, pairs):
            values = mpmath.eig(reference_matrix(spec, t * np.array(direction)),
                                left=False, right=False)
            plus, minus = (mpmath.mpc(complex(z)) for z in pair)
            errors.append(float(min(max(abs(plus - values[i]), abs(minus - values[j]))
                                    for i in range(3) for j in range(3) if i != j)))
    slope = np.polyfit(np.log(ts), np.log(errors), 1)[0]
    assert abs(slope - 2.0) <= 0.05, errors
