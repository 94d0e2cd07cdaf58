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
from .pairmodel import PairPoint, coupling, offsets, pair_at, projection, rest_offsets

#: Relative tolerance deciding when a discriminant / critical value is
#: treated as exactly zero (degenerate scenario).
DEGENERACY_TOL = 1e-10


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
        diff = dps @ (d[0, 0] - d[1, 1])
        radicand = diff * diff / 4.0 + (dps @ d[0, 1]) * (dps @ d[1, 0])
        return self.lam0 + dps @ (d[0, 0] + d[1, 1]) / 2.0, radicand


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
    """Residuals of the persistence systems at one offset."""
    dp = offsets(model, dp)[0]
    c = complex(model.pair_terms(dp[None])[1][0])
    diff = (model.coupling[0, 0] - model.coupling[1, 1]) @ dp
    off12 = model.coupling[0, 1] @ dp
    off21 = model.coupling[1, 0] @ dp
    return PersistenceReport(
        re_c=float(c.real), im_c=float(c.imag),
        frame_residuals=(
            float(diff.real), float(diff.imag),
            float(off12.real), float(off12.imag),
            float(off21.real), float(off21.imag),
        ),
    )


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

    Writes c = c0 + c1 dp1 + c2 dp1^2; the real roots of Im c (when the
    discriminant is positive) carry real values of c whose signs decide
    which sheets intersect there.

    All of it is computed at dp_rest 2^-k, 2^k the power of two above
    max |dp_rest|, so no scale of dp_rest under- or overflows c (homogeneous
    of degree 2) or sways the label; the report scales back exactly.
    """
    rest = rest_offsets(model, dp_rest)
    k = math.frexp(float(np.abs(rest).max(initial=0.0)))[1]
    c2, c1, c0 = _quadratic_form(model, lambda v: v[0], lambda v: v[1:] @ np.ldexp(rest, -k))

    def report(disc, roots=(), cs=(), scenario="degenerate"):
        return AvoidedCrossingReport(
            c0=_scaled(c0, 2 * k), c1=_scaled(c1, k), c2=complex(c2),
            discriminant=_scaled(disc, 2 * k),
            dp1_roots=tuple(_scaled(x, k) for x in roots) or None,
            c_values=tuple(_scaled(x, 2 * k) for x in cs) or None, scenario=scenario,
        )

    if not np.any(rest != 0.0):
        # exact coupling: c vanishes at dp1 = 0 with no transversal offset
        return report(0.0)
    im0, im1, im2 = c0.imag, c1.imag, c2.imag
    coeff_scale = max(abs(im0), abs(im1), abs(im2))
    if coeff_scale <= DEGENERACY_TOL * max(abs(c0), abs(c1), abs(c2), 1e-300):
        return report(0.0)      # Im c identically ~0: crossing structure degenerate
    disc = im1 ** 2 - 4.0 * im0 * im2
    if abs(im2) <= DEGENERACY_TOL * coeff_scale:
        if abs(im1) <= DEGENERACY_TOL * coeff_scale:
            return report(disc, scenario="no-crossing")     # Im c ~ Im c0 != 0
        # quadratic degenerates: Im c is linear with a single root
        root = -im0 / im1
        c_root = c0 + c1 * root + c2 * root * root
        return report(disc, (float(root),), (float(c_root.real),))
    if abs(disc) <= DEGENERACY_TOL * max(im1 ** 2, abs(4.0 * im0 * im2)):
        return report(disc)
    if disc < 0.0:
        return report(disc, scenario="no-crossing")
    root = math.sqrt(disc)
    dp1_a = (-im1 - root) / (2.0 * im2)
    dp1_b = (-im1 + root) / (2.0 * im2)

    def c_at(x):
        return c0 + c1 * x + c2 * x * x

    ca, cb = c_at(dp1_a), c_at(dp1_b)
    value_scale = max(abs(ca), abs(cb), 1e-300)
    if min(abs(ca.real), abs(cb.real)) <= DEGENERACY_TOL * value_scale:
        return report(disc, (dp1_a, dp1_b), (float(ca.real), float(cb.real)))
    _, scenario = _sign_ladder((ca, cb), "one-re-one-im", "two-re", "two-im")
    return report(disc, (float(dp1_a), float(dp1_b)),
                  (float(ca.real), float(cb.real)), scenario)


def _scaled(x, k):
    """x 2^k, exact; DimensionError where no double holds it."""
    try:
        if isinstance(x, complex):
            return complex(math.ldexp(x.real, k), math.ldexp(x.imag, k))
        return math.ldexp(x, k)
    except OverflowError:
        raise DimensionError("the DP-1p scenario overflows at this offset") from None


def _sign_ladder(values, mixed, negative, positive):
    """The signs of Re c (nonzero) at the two roots or lines of Im c, and
    the label they decide; by the signs, as a product of two tiny values
    underflows."""
    signs = tuple(1 if v.real > 0 else -1 for v in values)
    if signs[0] != signs[1]:
        return signs, mixed
    return signs, negative if signs[0] < 0 else positive


def surface_classification_2p(model: DPLocalModel) -> SurfaceTypeReport:
    """Local type of the Re/Im eigenvalue surfaces over a two-parameter chart.

    c is the homogeneous quadratic c11 dp1^2 + c12 dp1 dp2 + c22 dp2^2; the
    lines where Im c = 0 (when the discriminant of Im c is positive) carry
    real c of one sign each, deciding whether the Re or the Im sheets
    intersect along them.
    """
    if model.n_params != 2:
        raise ChartError("surface classification needs a two-parameter model")
    c11, c12, c22 = _quadratic_form(model, lambda v: v[0], lambda v: v[1])

    def c_on(direction):
        x, y = direction
        return c11 * x * x + c12 * x * y + c22 * y * y

    def unit(direction):
        vec = np.asarray(direction, dtype=float)
        vec = vec / np.linalg.norm(vec)
        if vec[0] < 0 or (vec[0] == 0 and vec[1] < 0):
            vec = -vec
        return vec

    def report(disc, lines=None, signs=None, surface="degenerate", chart_degenerate=False):
        return SurfaceTypeReport(
            c11=complex(c11), c12=complex(c12), c22=complex(c22),
            discriminant=float(disc), lines=lines, line_signs=signs,
            type=surface, chart_degenerate=bool(chart_degenerate),
        )

    im_scale = max(abs(c11.imag), abs(c12.imag), abs(c22.imag))
    full_scale = max(abs(c11), abs(c12), abs(c22), 1e-300)
    disc = c12.imag ** 2 - 4.0 * c11.imag * c22.imag
    if im_scale <= DEGENERACY_TOL * full_scale:
        return report(disc)     # Im c identically ~0
    if abs(disc) <= DEGENERACY_TOL * im_scale ** 2:
        return report(disc)     # lines coincide (or nearly so)
    if disc < 0.0:
        return report(disc, surface="cone-no-intersection")
    root = math.sqrt(disc)
    chart_degenerate = abs(c11.imag) <= DEGENERACY_TOL * im_scale
    if chart_degenerate:
        # Im c = dp2 (Im c12 dp1 + Im c22 dp2): solve the lines in dp2
        lines = (np.array([1.0, 0.0]), unit([-c22.imag, c12.imag]))
    else:
        lines = (unit([-(c12.imag + root), 2.0 * c11.imag]),
                 unit([-(c12.imag - root), 2.0 * c11.imag]))
    values = [c_on(line) for line in lines]
    value_scale = max(max(abs(v) for v in values), 1e-300)
    if min(abs(v.real) for v in values) <= DEGENERACY_TOL * value_scale:
        return report(disc, lines, chart_degenerate=chart_degenerate)
    signs, surface = _sign_ladder(values, "one-re-one-im-line", "re-cluster-of-shells",
                                  "im-double-intersection")
    return report(disc, lines, signs, surface, chart_degenerate)
