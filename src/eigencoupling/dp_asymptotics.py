"""Weak-coupling asymptotics near a diabolic point.

The pair splitting is governed by the 2x2 reduced problem in the
bi-orthonormal frame and by the coupling derivative vectors

    coupling[i, j, s] = (dA/dp_s u_{i+1}, v_{j+1}),

combined into the complex scalar

    c(dp) = <coupling11 - coupling22, dp>^2 / 4
            + <coupling12, dp> <coupling21, dp>,

    lam_pm = lam0 + <coupling11 + coupling22, dp>/2 +- sqrt(c).

Re c < 0 on the locus Im c = 0 makes the Re sheets cross; Re c > 0 makes the
Im sheets cross. Restricting c to one sweep parameter (quadratic in dp_1) or
to a two-parameter chart (homogeneous quadratic) classifies the avoided
crossings and the local surface type by the discriminant of Im c and the
signs of the real values of c on its root lines.

This is the shared pair model of ``pairmodel`` with radicand c(dp).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import family as family_mod
from .degeneracy import DPFrame
from .errors import ChartError, DimensionError
from .numkit import as_cmatrix
from .pairmodel import (PairPoint, _linear, coupling, offsets, pair_at, projection,
                        rest_offsets)

#: Relative tolerance of the DP scenarios: a quantity within it of the sum
#: of the terms it is made of counts as zero (see ``_zero_lines``).
DEGENERACY_TOL = 1e-10

#: the labels of no zero lines, mixed signs, both negative and both positive
_SWEEP_LABELS = ("no-crossing", "one-re-one-im", "two-re", "two-im")
_CHART_LABELS = ("cone-no-intersection", "one-re-one-im-line", "re-cluster-of-shells",
                 "im-double-intersection")


@dataclass(frozen=True)
class ReducedProblem:
    """2x2 reduced eigenvalue problem of the pair along one direction."""

    matrix: np.ndarray        # [j, k] = (A1 u_{k+1}, v_{j+1})
    mu_plus: complex
    mu_minus: complex
    vec_plus: np.ndarray      # (alpha, beta) coordinates in the u-frame
    vec_minus: np.ndarray


@dataclass(frozen=True)
class DPLocalModel:
    """First-order local model of the pair at a diabolic point."""

    p0: np.ndarray
    lam0: complex
    coupling: np.ndarray      # shape (2, 2, n) complex

    @property
    def n_params(self) -> int:
        return self.coupling.shape[2]

    def pair_terms(self, dps):
        """Pair mean lam0 + <d11 + d22, dp>/2 and radicand c at (N, n) offsets."""
        d = self.coupling
        diff = _linear(dps, d[0, 0] - d[1, 1])
        radicand = diff * diff / 4.0 + _linear(dps, d[0, 1]) * _linear(dps, d[1, 0])
        return self.lam0 + _linear(dps, d[0, 0] + d[1, 1]) / 2.0, radicand


@dataclass(frozen=True)
class PersistenceReport:
    """Double-eigenvalue persistence data at one offset.

    ``re_c``/``im_c`` must both vanish for the pair to stay double (it then
    turns defective); the six ``frame_residuals`` must vanish for it to stay
    semisimple (codimension 6).
    """

    re_c: float
    im_c: float
    frame_residuals: tuple    # Re/Im of <d11-d22, dp>, <d12, dp>, <d21, dp>


@dataclass(frozen=True)
class AvoidedCrossingReport:
    """One-parameter avoided-crossing scenario at fixed other offsets."""

    c0: complex
    c1: complex
    c2: complex
    discriminant: float       # (Im c1)^2 - 4 Im c0 Im c2
    dp1_roots: Optional[tuple]    # the real roots of Im c found; None when none
    c_values: Optional[tuple]     # the real value of c at each of them
    scenario: str             # no-crossing | one-re-one-im | two-re | two-im | degenerate


@dataclass(frozen=True)
class SurfaceTypeReport:
    """Two-parameter local surface type of the pair."""

    c11: complex
    c12: complex
    c22: complex
    discriminant: float       # (Im c12)^2 - 4 Im c11 Im c22
    lines: Optional[tuple]    # the two unit directions of the Im c = 0 lines
    line_signs: Optional[tuple]   # sign of (real) c on each line
    type: str                 # cone-no-intersection | one-re-one-im-line |
    #                           re-cluster-of-shells | im-double-intersection | degenerate
    chart_degenerate: bool = False


def reduced_problem(a1, frame: DPFrame) -> ReducedProblem:
    """Project a perturbation direction onto the 2x2 reduced problem."""
    mat = projection(as_cmatrix(a1), (frame.u1, frame.u2), (frame.v1, frame.v2)).T
    mu_p, mu_m = _eigenvalues(mat)

    def eigvec(mu):
        # null vector of (mat - mu I), larger of the two analytic candidates
        c1 = np.array([mat[0, 1], mu - mat[0, 0]])
        c2 = np.array([mu - mat[1, 1], mat[1, 0]])
        vec = c1 if np.linalg.norm(c1) >= np.linalg.norm(c2) else c2
        nrm = np.linalg.norm(vec)
        return vec / nrm if nrm > 0 else np.array([1.0 + 0j, 0.0 + 0j])

    return ReducedProblem(
        matrix=mat, mu_plus=mu_p, mu_minus=mu_m,
        vec_plus=eigvec(mu_p), vec_minus=eigvec(mu_m),
    )


def _eigenvalues(mat):
    """The eigenvalues mean +- rad of a 2x2 matrix."""
    mean = (mat[0, 0] + mat[1, 1]) / 2.0
    rad = cmath.sqrt((mat[0, 0] - mat[1, 1]) ** 2 / 4.0 + mat[0, 1] * mat[1, 0])
    return complex(mean + rad), complex(mean - rad)


def dp_sensitivities(fam: family_mod.MatrixFamily, frame: DPFrame, p0) -> DPLocalModel:
    """Coupling derivative vectors of the pair in the given frame at p0.

    Individual vectors are frame-dependent; the scalar c and the pair values
    built from them are not.
    """
    p0 = fam._point(p0)
    return DPLocalModel(p0=p0, lam0=frame.lam0, coupling=coupling(
        fam, p0, (frame.u1, frame.u2), (frame.v1, frame.v2)))


def split_multiparam(model: DPLocalModel, dp) -> PairPoint:
    """Pair values lam0 + trace-term/2 +- sqrt(c), their Re/Im sheets and c."""
    return pair_at(model, dp)


def persistence_conditions(model: DPLocalModel, dp) -> PersistenceReport:
    """Residuals of the persistence systems at one offset, each linear form
    summed as ``pair_terms`` sums it."""
    dps = offsets(model, dp)[:1]
    d = model.coupling
    c = complex(model.pair_terms(dps)[1][0])
    forms = [complex(_linear(dps, v)[0]) for v in (d[0, 0] - d[1, 1], d[0, 1], d[1, 0])]
    return PersistenceReport(re_c=c.real, im_c=c.imag,
                             frame_residuals=tuple(x for z in forms for x in (z.real, z.imag)))


def one_param_slopes(model: DPLocalModel):
    """The two pair slopes d lam/d p_1 when only p_1 varies.

    Equal to the eigenvalues of the reduced problem for the p_1 direction.
    """
    return _eigenvalues(model.coupling[:, :, 0])


def _quadratic_form(model: DPLocalModel, x, y):
    """(cxx, cxy, cyy) with c(a x + b y) = cxx a^2 + cxy a b + cyy b^2, where
    x and y read a coupling vector at the two directions."""
    d = model.coupling
    vectors = (d[0, 0] - d[1, 1], d[0, 1], d[1, 0])
    dx, ux, wx = (x(v) for v in vectors)
    dy, uy, wy = (y(v) for v in vectors)
    return dx ** 2 / 4.0 + ux * wx, dx * dy / 2.0 + ux * wy + wx * uy, dy ** 2 / 4.0 + uy * wy


def avoided_crossing_1p(model: DPLocalModel, dp_rest) -> AvoidedCrossingReport:
    """Classify the avoided crossing along p_1 at fixed offsets of p_2..p_n.

    c = c0 + c1 dp1 + c2 dp1^2 is c on the plane of dp1 and the rest
    offsets, decided by ``_zero_lines``: the signs of Re c at the real roots
    of Im c decide which sheets intersect there. A zero line along dp1 does
    not cross the sweep: one leaves a single root and "degenerate", two
    "no-crossing". An all-zero rest is degenerate (Im c = Im c2 dp1^2).

    All of it is computed at dp_rest 2^-k, 2^k the power of two above
    max |dp_rest|, so no scale of dp_rest under- or overflows c (homogeneous
    of degree 2) or sways the label; the report scales back exactly. The
    discriminant scales back to inf (JSON null) past the doubles, as the
    two-parameter report's does; a coefficient, root or c value there raises.
    """
    rest = rest_offsets(model, dp_rest)
    k = math.frexp(float(np.abs(rest).max(initial=0.0)))[1]
    c2, c1, c0 = _quadratic_form(model, lambda v: v[0], lambda v: v[1:] @ np.ldexp(rest, -k))
    disc, lines, _, scenario = _zero_lines((c2, c1, c0), _SWEEP_LABELS)
    with np.errstate(over="ignore", invalid="ignore"):     # a far root: _scaled refuses
        roots = [x / y for x, y in lines or () if y]
        values = [float((c0 + c1 * x + c2 * x * x).real) for x in roots]
        disc = float(np.ldexp(disc, 2 * k))     # degree 4: inf past the doubles
    if lines and len(roots) < 2:    # a line along dp1 (y = 0) has no root
        scenario = ("no-crossing", "degenerate")[len(roots)]
    return AvoidedCrossingReport(
        c0=_scaled(c0, 2 * k), c1=_scaled(c1, k), c2=complex(c2),
        discriminant=disc,
        dp1_roots=tuple(_scaled(x, k) for x in roots) or None,
        c_values=tuple(_scaled(x, 2 * k) for x in values) or None,
        scenario=scenario,
    )


def _scaled(x, k):
    """x 2^k, exact; DimensionError where no double holds it."""
    try:
        if not cmath.isfinite(x):   # a root or its c past the doubles
            raise OverflowError
        if isinstance(x, complex):
            return complex(math.ldexp(x.real, k), math.ldexp(x.imag, k))
        return math.ldexp(x, k)
    except OverflowError:
        raise DimensionError("the DP-1p scenario overflows at this offset") from None


def _zero_lines(q, labels):
    """The zero lines of Im c on a plane and the scenario they carry.

    q = (qxx, qxy, qyy) makes c = qxx x^2 + qxy x y + qyy y^2, and a, b, cc
    are their imaginary parts. Returns the discriminant b^2 - 4 a cc, the
    two lines (x, y) where Im c = 0 (or None), the signs of Re c on them and
    the label they pick from ``labels`` (no lines, mixed, negative,
    positive) or "degenerate". Each threshold compares a quantity with the
    terms it is made of, so rescaling an axis changes no decision. Im c
    vanishes when every |Im q_i| <= TOL |q_i|; the lines coincide when
    |disc| <= TOL max(b^2, |4 a cc|); Re c is zero on a line when
    |Re c(x, y)| <= TOL (|qxx| x^2 + |qxy x y| + |qyy| y^2). TOL is
    DEGENERACY_TOL. A line lies along the first axis, (1, 0), only when a = 0.
    All of it is decided on q 2^-e, 2^e the power of two above max |q_i|, so
    no scale of c under- or overflows; disc scales back (to inf or 0 past the doubles).
    """
    e = math.frexp(max(abs(z) for z in q))[1]
    q = [complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)) for z in q]
    a, b, cc = (z.imag for z in q)
    disc = b ** 2 - 4.0 * a * cc
    with np.errstate(over="ignore"):
        reported = float(np.ldexp(disc, 2 * e))
    if all(abs(z.imag) <= DEGENERACY_TOL * abs(z) for z in q):
        return reported, None, None, "degenerate"
    if abs(disc) <= DEGENERACY_TOL * max(b ** 2, abs(4.0 * a * cc)):
        # a double line; the first axis when a = 0, and then b = 0 too
        return reported, None if a else ((1.0, 0.0),) * 2, None, "degenerate"
    if disc < 0.0:
        return reported, None, None, labels[0]
    if a == 0:  # Im c = y (b x + cc y)
        lines = ((1.0, 0.0), (-cc, b))
    else:
        root = math.sqrt(disc)
        lines = [(-b - root, 2.0 * a), (-b + root, 2.0 * a)]
        if cc and abs(4.0 * a * cc) <= DEGENERACY_TOL * b ** 2:
            # -b +- root cancels on the side of sign(b), leaving under 6
            # digits; Vieta gives that line from the other as (2 cc, -b -+ root)
            k = int(b > 0)
            lines[k] = (2.0 * cc, lines[1 - k][0])
    signs = []
    for x, y in lines:
        size = max(abs(x), abs(y))     # c at a unit-sized point: no overflow
        x, y = x / size, y / size
        re = q[0].real * x * x + q[1].real * x * y + q[2].real * y * y
        terms = abs(q[0]) * x * x + abs(q[1] * x * y) + abs(q[2]) * y * y
        if abs(re) <= DEGENERACY_TOL * terms:
            return reported, lines, None, "degenerate"
        signs.append(1 if re > 0 else -1)
    label = labels[1] if signs[0] != signs[1] else labels[2] if signs[0] < 0 else labels[3]
    return reported, lines, tuple(signs), label


def surface_classification_2p(model: DPLocalModel) -> SurfaceTypeReport:
    """Local type of the Re/Im eigenvalue surfaces over a two-parameter chart.

    c is the homogeneous quadratic c11 dp1^2 + c12 dp1 dp2 + c22 dp2^2, which
    ``_zero_lines`` decides: the lines where Im c = 0 carry real c of one
    sign each, deciding whether the Re or the Im sheets intersect along
    them. The chart is degenerate when Im c11 = 0 puts a line along dp1.
    """
    if model.n_params != 2:
        raise ChartError("surface classification needs a two-parameter model")
    c11, c12, c22 = _quadratic_form(model, lambda v: v[0], lambda v: v[1])
    disc, lines, signs, surface = _zero_lines((c11, c12, c22), _CHART_LABELS)

    def unit(direction):
        vec = np.asarray(direction, dtype=float)
        vec = vec / np.linalg.norm(vec)
        return -vec if vec[0] < 0 or (vec[0] == 0 and vec[1] < 0) else vec

    return SurfaceTypeReport(
        c11=complex(c11), c12=complex(c12), c22=complex(c22), discriminant=float(disc),
        lines=lines and tuple(unit(line) for line in lines), line_signs=signs,
        type=surface, chart_degenerate=bool(lines and c11.imag == 0),
    )
