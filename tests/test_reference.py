"""High-precision reference for the exceptional-point search.

The optical matrix A(p) of each builtin crystal is rebuilt at 50 digits
straight from the formulas of ``crystal_optics`` (direction on the upper
hemisphere, eta = U + G(gamma . s), A = (I - s s^T) eta), and its spectrum
and largest singular value come from mpmath, not from LAPACK. At the p_star
of the find-ep golden files the closest eigenvalue pair must then meet the
search's own convergence test, max(EP_GAP_TOL (1 + |lam|), 2 sqrt(eps)
sigma_max): the golden points are exceptional points to the precision the
search can resolve.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from eigencoupling import crystal_optics, degeneracy

GOLDEN = Path(__file__).parent / "golden"
DIGITS = 50


def reference_matrix(spec, p):
    """A(p) of a DielectricSpec at DIGITS digits."""
    s1, s2 = (mpmath.mpf(float(x)) for x in p)
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


@pytest.mark.parametrize("family", ["crystal-example-1", "crystal-example-2"])
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
