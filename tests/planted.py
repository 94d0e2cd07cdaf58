"""Planted families: a double eigenvalue of known kind at a known point.

``planted(seed, kind, m, n)`` builds

    A(p) = S (J + sum_i (p_i - p*_i) B_i) S^-1

over n parameters, the construction of the benchmark's generator
(``bench/gen.py``), rebuilt here so that the tests import nothing from the
benchmark. J holds a 2x2 Jordan block at lam0 (kind "EP") or lam0 I2 (kind
"DP") and m - 2 further eigenvalues on a circle of radius 1.5-2.5 around
lam0; S = I + 0.25 G / sqrt(m) with cond(S) < 10, G complex Gaussian; B_i =
0.5 G_i / sqrt(m). At an EP the entries (B_0)[1, 0] and (B_1)[1, 0], the
split coefficients (B_s u0, v0) in the Jordan basis, get moduli in [0.5, 1]
at an angle of 60-120 degrees, so that the Newton Jacobian of the EP search
is well conditioned. lam0 and p* have four decimals, p* in [-0.2, 0.2]^n.

The family is parsed from its JSON document, as the command line reads a
family file, with the terms 1, p_1, ..., p_n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from eigencoupling.family import PolynomialFamily, parse_family


@dataclass(frozen=True)
class Planted:
    """A planted family and what was planted in it."""

    family: PolynomialFamily
    kind: str                   # "EP" | "DP"
    lam0: complex
    p_star: tuple


def _num(x) -> float:
    return float(round(float(x), 4))


def _complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def planted(seed: int, kind: str, m: int, n: int = 2) -> Planted:
    """The planted family of ``kind`` ("EP" or "DP"), m x m over n
    parameters, drawn from ``numpy.random.default_rng(seed)``; m >= 2, and
    n >= 2 for an EP."""
    if kind not in ("EP", "DP") or m < 2 or n < (2 if kind == "EP" else 1):
        raise ValueError(f"no planted {kind} family with m = {m}, n = {n}")
    rng = np.random.default_rng(seed)
    lam0 = complex(_num(rng.uniform(-1, 1)), _num(rng.uniform(-1, 1)))
    j_mat = np.zeros((m, m), dtype=complex)
    j_mat[0, 0] = j_mat[1, 1] = lam0
    if kind == "EP":
        j_mat[0, 1] = 1.0
    theta0 = rng.uniform(0.0, 2.0 * math.pi)
    for k in range(m - 2):
        radius = rng.uniform(1.5, 2.5)
        j_mat[k + 2, k + 2] = lam0 + radius * np.exp(1j * (theta0 + 2.0 * math.pi * k / (m - 2)))
    while True:
        s_mat = np.eye(m) + 0.25 * _complex_gaussian(rng, (m, m)) / math.sqrt(m)
        if np.linalg.cond(s_mat) < 10.0:
            break
    b_mats = [0.5 * _complex_gaussian(rng, (m, m)) / math.sqrt(m) for _ in range(n)]
    if kind == "EP":
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        beta = rng.choice((-1.0, 1.0)) * rng.uniform(math.pi / 3, 2 * math.pi / 3)
        b_mats[0][1, 0] = rng.uniform(0.5, 1.0) * np.exp(1j * alpha)
        b_mats[1][1, 0] = rng.uniform(0.5, 1.0) * np.exp(1j * (alpha + beta))
    p_star = tuple(_num(rng.uniform(-0.2, 0.2)) for _ in range(n))
    s_inv = np.linalg.inv(s_mat)
    c0 = s_mat @ (j_mat - sum(x * b for x, b in zip(p_star, b_mats))) @ s_inv
    terms = [([0] * n, c0)] + [([int(i == s) for i in range(n)], s_mat @ b @ s_inv)
                               for s, b in enumerate(b_mats)]
    document = {"m": m, "n": n, "terms": [
        {"exp": exps, "re": coeff.real.tolist(), "im": coeff.imag.tolist()}
        for exps, coeff in terms]}
    return Planted(family=parse_family(json.dumps(document)), kind=kind, lam0=lam0,
                   p_star=p_star)
