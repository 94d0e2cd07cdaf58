"""Strong-coupling asymptotics near an exceptional point.

Everything here is driven by four real n-vectors measured at the EP from the
Jordan chain and the family derivatives:

    split_re_s + i split_im_s = (dA/dp_s u0, v0)            (squared-gap gradient)
    drift_re_s + i drift_im_s = (dA/dp_s u0, v1) + (dA/dp_s u1, v0)

With F = <split_re, dp>, G = <split_im, dp> the two eigenvalues split as

    lam_pm = lam0 + (<drift_re, dp> + i <drift_im, dp>)/2 +- sqrt(F + i G),

which yields the sheet formulas

    Re lam_pm = Re lam0 + <drift_re, dp>/2 +- sqrt((F + rho)/2),
    Im lam_pm = Im lam0 + <drift_im, dp>/2 +- sqrt((rho - F)/2),
    rho = sqrt(F^2 + G^2),

the branch-cut rays (G = 0 with a sign condition on F), the complex-plane
conics traced under one-parameter sweeps, the cross-section cusps/tangents,
and the closed trajectories traced under cyclic parameter loops.

This is the shared pair model of ``pairmodel`` with radicand F + iG. Its
branch pairing (the principal square root ties the +- signs of the Re and
Im radicals) makes both squared-gap relations (Re d)^2 - (Im d)^2 = F and
2 Re d Im d = G hold exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import family as family_mod
from .degeneracy import JordanChain
from .errors import (
    ChartError,
    DegenerateModelError,
    DimensionError,
    ResolutionError,
)
from .numkit import as_cmatrix
from .pairmodel import (PairPoint, _linear, coupling, offsets, pair_at, projection,
                        rest_offsets, sheets, sweep)


@dataclass(frozen=True)
class EPLocalModel:
    """First-order local model of the eigenvalue pair at an exceptional point."""

    p0: np.ndarray
    lam0: complex
    split_re: np.ndarray     # gradient of Re of the squared half-gap
    split_im: np.ndarray     # gradient of Im of the squared half-gap
    drift_re: np.ndarray     # gradient of 2 Re of the pair-mean shift
    drift_im: np.ndarray     # gradient of 2 Im of the pair-mean shift

    @property
    def n_params(self) -> int:
        return len(self.split_re)

    def pair_terms(self, dps):
        """Pair mean lam0 + <drift, dp>/2 and radicand F + iG at (N, n) offsets."""
        return (self.lam0 + _linear(dps, 0.5 * (self.drift_re + 1j * self.drift_im)),
                _linear(dps, self.split_re + 1j * self.split_im))


@dataclass(frozen=True)
class EPCurveSplit:
    """One-parameter splitting lam0 +- sqrt(mu1 eps) + mu2 eps with vector maps."""

    lam0: complex
    mu1: complex
    mu2: complex
    lam_plus: object          # eps -> complex
    lam_minus: object
    u_plus: object            # eps -> vector
    u_minus: object


@dataclass(frozen=True)
class BranchCut:
    """Ray set where two sheets of one surface are glued.

    Points dp with <normal, dp> = 0 and sign * <sign_coeff, dp> >= 0; on the
    ray the glued sheet level is level_base + <level_coeff, dp>.
    """

    kind: str                 # "re" | "im"
    normal: np.ndarray        # <split_im, dp> = 0
    sign_coeff: np.ndarray    # split_re
    sign: int                 # -1: <f, dp> <= 0 (re cut), +1: >= 0 (im cut)
    level_base: float
    level_coeff: np.ndarray

    def ray_points(self, radii) -> tuple:
        """Polyline along the cut (two-parameter charts): (offsets, levels).

        The ray direction is the in-plane direction orthogonal to ``normal``
        whose sign condition admits it.
        """
        if len(self.normal) != 2:
            raise ChartError("ray sampling is defined for two-parameter charts")
        direction = np.array([-self.normal[1], self.normal[0]])
        direction = direction / np.linalg.norm(direction)
        if self.sign * (self.sign_coeff @ direction) < 0:
            direction = -direction
        offsets = np.array([r * direction for r in np.atleast_1d(radii)])
        levels = self.level_base + offsets @ self.level_coeff
        return offsets, levels


@dataclass(frozen=True)
class BranchCutSet:
    re_cut: BranchCut
    im_cut: BranchCut


@dataclass(frozen=True)
class LoopSpec:
    """Circular parameter loop dp = (a + r cos phi, b + r sin phi)."""

    a: float
    b: float
    r: float
    samples: int = 720

    def __post_init__(self):
        if self.r <= 0:
            raise DimensionError("loop radius must be positive")
        if self.samples < 16:
            raise DimensionError("need at least 16 loop samples")
        if not (math.isfinite(self.a * self.a + self.b * self.b)
                and math.isfinite(self.r * self.r)):
            raise DimensionError("loop centre and radius must have finite squares")


def curve_split(chain: JordanChain, a0, a1) -> EPCurveSplit:
    """Eigenvalue/eigenvector splitting along one curve direction.

    mu1 = (A1 u0, v0), mu2 = ((A1 u0, v1) + (A1 u1, v0))/2; the eigenvector
    maps use the bordered inverse of A0 - lam0 I + u1 v1*.
    """
    a0 = as_cmatrix(a0)
    a1 = as_cmatrix(a1)
    proj = projection(a1, (chain.u0, chain.u1), (chain.v0, chain.v1))
    mu1 = proj[0, 0]
    mu2 = (proj[0, 1] + proj[1, 0]) / 2.0
    m = a0.shape[0]
    bordered = a0 - chain.lam0 * np.eye(m) + np.outer(chain.u1, chain.v1.conj())
    if np.linalg.cond(bordered) > 1e10:
        raise DegenerateModelError("bordered matrix A0 - lam0 I + u1 v1* is numerically singular")
    correction = np.linalg.solve(bordered, a1 @ chain.u0)
    lam0, u0, u1 = chain.lam0, chain.u0, chain.u1
    linear_term = mu1 * u0 + mu2 * u1 - correction

    def lam_of(eps, sign):
        return lam0 + sign * cmath.sqrt(mu1 * eps) + mu2 * eps

    def u_of(eps, sign):
        return u0 + sign * u1 * cmath.sqrt(mu1 * eps) + linear_term * eps

    return EPCurveSplit(
        lam0=lam0, mu1=complex(mu1), mu2=complex(mu2),
        lam_plus=lambda eps: lam_of(eps, +1),
        lam_minus=lambda eps: lam_of(eps, -1),
        u_plus=lambda eps: u_of(eps, +1),
        u_minus=lambda eps: u_of(eps, -1),
    )


def sensitivities(fam: family_mod.MatrixFamily, chain: JordanChain, p0) -> EPLocalModel:
    """Measure the four sensitivity vectors of the local model at p0; all
    four are invariant under the gauge freedom of the chain."""
    p0 = fam._point(p0)
    d = coupling(fam, p0, (chain.u0, chain.u1), (chain.v0, chain.v1))
    split, drift = d[0, 0], d[0, 1] + d[1, 0]
    return EPLocalModel(
        p0=p0, lam0=chain.lam0,
        split_re=split.real.copy(), split_im=split.imag.copy(),
        drift_re=drift.real.copy(), drift_im=drift.imag.copy(),
    )


def tangency_conditions(model: EPLocalModel, dp):
    """(F, G) = (<split_re, dp>, <split_im, dp>) at one offset, the real and
    imaginary part of the model's radicand; (0, 0) keeps the pair double."""
    radicand = complex(model.pair_terms(offsets(model, dp)[:1])[1][0])
    return radicand.real, radicand.imag


def surface_eval(model: EPLocalModel, dp) -> PairPoint:
    """The four Re/Im sheet values and the eigenvalue pair at offset dp."""
    return pair_at(model, dp)


def branch_cuts(model: EPLocalModel) -> BranchCutSet:
    """The two rays where the Re (resp. Im) sheets are glued.

    Re sheets connect where <split_im, dp> = 0 and <split_re, dp> <= 0 at
    level <drift_re, dp>/2; Im sheets where <split_re, dp> >= 0 at level
    <drift_im, dp>/2. Undefined when split_im vanishes identically.
    """
    if np.linalg.norm(model.split_im) < 1e-14:
        raise DegenerateModelError("split_im = 0: branch-cut directions undefined")
    re_cut = BranchCut(
        kind="re", normal=model.split_im.copy(), sign_coeff=model.split_re.copy(),
        sign=-1, level_base=model.lam0.real, level_coeff=0.5 * model.drift_re,
    )
    im_cut = BranchCut(
        kind="im", normal=model.split_im.copy(), sign_coeff=model.split_re.copy(),
        sign=+1, level_base=model.lam0.imag, level_coeff=0.5 * model.drift_im,
    )
    return BranchCutSet(re_cut=re_cut, im_cut=im_cut)


@dataclass(frozen=True)
class ConicReport:
    """Complex-plane trajectory of the pair when only p_1 varies.

    The eigenvalue offsets d = lam - lam0 obey
    g1 (Re d)^2 - 2 f1 Re d Im d - g1 (Im d)^2 = gamma; gamma = 0 gives a
    perpendicular line pair, gamma != 0 a hyperbola with those asymptotes.
    """

    gamma: float
    quad_coeffs: tuple         # (g1, -2 f1, -g1)
    kind: str                  # "perpendicular-lines" | "hyperbola"
    asymptote_slopes: tuple    # two slopes in the (Re, Im) plane
    hyperbola_rhs: float       # gamma * g1 in the squared normal form
    samples: np.ndarray        # trajectory points (complex) for plotting


@np.errstate(over="ignore")    # an overflowing gamma is reported, not warned about
def _fixed_rest(model: EPLocalModel, fixed_rest):
    """The frozen offsets of parameters 2..n (zeros when None) and
    gamma = <f_rest g1 - f1 g_rest, rest>, which shapes the conic and the
    section; DimensionError where gamma overflows."""
    rest = rest_offsets(model, fixed_rest)
    f1, g1 = model.split_re[0], model.split_im[0]
    gamma = float(np.sum((model.split_re[1:] * g1 - f1 * model.split_im[1:]) * rest))
    if not math.isfinite(gamma):
        raise DimensionError("gamma overflows at these offsets")
    return rest, gamma


def complex_plane_conic(model: EPLocalModel, fixed_rest=None) -> ConicReport:
    """Conic traced by the pair in the complex plane as p_1 sweeps.

    ``fixed_rest`` holds the frozen offsets of parameters 2..n. Requires
    g1 != 0 for the asymptote/hyperbola normal forms (reindex otherwise).
    """
    rest, gamma = _fixed_rest(model, fixed_rest)
    f1, g1 = model.split_re[0], model.split_im[0]
    if f1 * f1 + g1 * g1 < 1e-28:
        raise DegenerateModelError("f1 = g1 = 0: pair insensitive to p_1")
    if abs(g1) < 1e-14:
        raise ChartError(
            "g1 = 0: asymptote/hyperbola forms need a parameter reindexing"
        )
    root = math.hypot(f1, g1)
    slopes = (g1 / (f1 + root), g1 / (f1 - root))
    kind = "perpendicular-lines" if gamma == 0.0 else "hyperbola"
    # sampled offsets satisfy the conic exactly: the linear drift terms are
    # not part of the squared-gap relation the conic is built from
    root = sheets(model, sweep(rest)).root
    return ConicReport(
        gamma=gamma, quad_coeffs=(float(g1), float(-2 * f1), float(-g1)),
        kind=kind, asymptote_slopes=slopes, hyperbola_rhs=float(gamma * g1),
        samples=(model.lam0 + np.column_stack((root, -root))).ravel(),
    )


@dataclass(frozen=True)
class SectionReport:
    """One-parameter cross-section of the eigenvalue surfaces.

    At the crossing abscissa the Re curves intersect when gamma/g1 < 0, the
    Im curves when gamma/g1 > 0; gamma = 0 collapses both tangent pairs to
    the vertical double-cusp configuration.
    """

    gamma: float
    p1_cross: float            # absolute p_1 of the crossing
    re_level: float
    im_level: float
    crossing: str              # "re" | "im" | "cusp"
    re_slopes: Optional[tuple]
    im_slopes: Optional[tuple]
    vertical_tangents: bool
    cusp_re_coeffs: Optional[tuple] = field(repr=False)   # ((f1+rho1)/2, (f1-rho1)/2, h1/2)
    cusp_im_coeffs: Optional[tuple] = field(repr=False)   # ((rho1-f1)/2, -(f1+rho1)/2, r1/2)


def cross_section(model: EPLocalModel, fixed_rest=None) -> SectionReport:
    """Cross-section lam(p_1) at fixed offsets of the other parameters.

    Tangent slopes at the crossing: Re curves drift_re[0]/2 +- (g1/2)
    sqrt(-g1/gamma), Im curves drift_im[0]/2 +- (g1/2) sqrt(g1/gamma).
    At the crossing abscissa <split_re, dp> equals gamma/g1, so the Re pair
    crosses (real slopes) exactly when gamma/g1 < 0 and the Im pair when
    gamma/g1 > 0; the radicand signs encode that dichotomy. An offset so
    small that the slopes overflow raises DimensionError.
    """
    rest, gamma = _fixed_rest(model, fixed_rest)
    f1, g1 = float(model.split_re[0]), float(model.split_im[0])
    h1, r1 = model.drift_re[0], model.drift_im[0]
    if abs(g1) < 1e-14:
        raise ChartError("g1 = 0: cross-section formulas need reindexing")
    im_rest = float(np.sum(model.split_im[1:] * rest))
    dp1_cross = -im_rest / g1
    re_level = model.lam0.real - (
        float(np.sum((h1 * model.split_im[1:] - g1 * model.drift_re[1:]) * rest))
        / (2.0 * g1))
    im_level = model.lam0.imag - (
        float(np.sum((r1 * model.split_im[1:] - g1 * model.drift_im[1:]) * rest))
        / (2.0 * g1))
    rho1 = math.hypot(f1, g1)
    # gamma is the difference of these two terms; it counts as zero once
    # it is lost in their rounding, on any scale of the offsets
    gamma_scale = abs(g1 * float(np.sum(model.split_re[1:] * rest))) + abs(f1 * im_rest)
    re_slopes = im_slopes = None
    if abs(gamma) <= 1e-12 * gamma_scale:
        crossing = "cusp"
    else:
        crossing = "re" if gamma / g1 < 0 else "im"
        half = 0.5 * g1 * math.sqrt(abs(g1 / gamma))
        if not math.isfinite(half):
            raise DimensionError("the cross-section's tangent slopes overflow at this offset")
        if crossing == "re":
            re_slopes = (0.5 * h1 + half, 0.5 * h1 - half)
        else:
            im_slopes = (0.5 * r1 + half, 0.5 * r1 - half)
    offsets_zero = bool(np.all(rest == 0.0))
    cusp_re = ((f1 + rho1) / 2.0, (f1 - rho1) / 2.0, h1 / 2.0) if offsets_zero else None
    cusp_im = ((rho1 - f1) / 2.0, -(f1 + rho1) / 2.0, r1 / 2.0) if offsets_zero else None
    return SectionReport(
        gamma=gamma, p1_cross=float(model.p0[0] + dp1_cross),
        re_level=re_level, im_level=im_level, crossing=crossing,
        re_slopes=re_slopes, im_slopes=im_slopes, vertical_tangents=crossing == "cusp",
        cusp_re_coeffs=cusp_re, cusp_im_coeffs=cusp_im,
    )


@dataclass(frozen=True)
class AxisCrossing:
    axis: str                  # "re": crossing of Re lam = Re lam0; "im": the other
    ordinate: float            # the nonzero offset coordinate of the crossing point


@dataclass(frozen=True)
class LoopReport:
    """Eigenvalue trajectories under a cyclic parameter loop."""

    regime: str                # "inside" | "on" | "outside"
    sigma: float
    sigma_sign: int
    n_curves: int              # 1: branches join into a single closed curve
    winding_number: Optional[int]   # of the closed curve about lam0
    axis_crossings: tuple      # AxisCrossing entries from the closed-form loci
    phis: np.ndarray = field(repr=False)        # the samples: the CLI's CSV, not its JSON
    lam_plus: np.ndarray = field(repr=False)    # full model trajectories (with drift)
    lam_minus: np.ndarray = field(repr=False)
    core_plus: np.ndarray = field(repr=False)   # +-sqrt(F + iG) parts, branch-tracked in phi
    core_minus: np.ndarray = field(repr=False)


def _axis_crossings(model, a, b, r):
    f1, f2 = model.split_re[:2]
    g1, g2 = model.split_im[:2]
    kappa = f2 * g1 - f1 * g2
    denom = g1 * g1 + g2 * g2
    if denom == 0.0 or kappa == 0.0:
        return ()
    s = g2 * a - g1 * b
    disc = s * s + (r * r - a * a - b * b) * denom
    if not math.isfinite(disc):
        raise DimensionError("the axis crossings overflow on this loop; shrink the loop")
    if disc < 0.0:
        return ()
    root = math.sqrt(disc)
    out = []
    for sign in (+1.0, -1.0):
        val = kappa * (s + sign * root) / denom          # (Im d)^2 on Re-axis line
        if val > 0.0:
            out.extend(AxisCrossing(axis="re", ordinate=o)
                       for o in (math.sqrt(val), -math.sqrt(val)))
        val = kappa * (-s + sign * root) / denom         # (Re d)^2 on Im-axis line
        if val > 0.0:
            out.extend(AxisCrossing(axis="im", ordinate=o)
                       for o in (math.sqrt(val), -math.sqrt(val)))
    return tuple(out)


def _track_branch(roots: np.ndarray) -> np.ndarray:
    """Branch a of the pair +-roots, tracked as ``loop_trajectory`` states.

    Keeping the sign s = s_{k-1} costs 2 |s r[k-1] - r[k]| and swapping
    costs 2 |s r[k-1] + r[k]|. IEEE negation and rounding are symmetric in
    sign, so both costs are 2 near or 2 far, and the keep-or-swap decisions
    reduce to: near < far keeps s, near > far flips it, a tie restarts at +1
    and an unordered (NaN) pair restarts at -1. s_k is then the parity of
    the flips since the last restart, decided bit for bit as a per-sample
    keep-or-swap loop decides it.
    """
    near = np.abs(roots[:-1] - roots[1:])
    far = np.abs(roots[:-1] + roots[1:])
    flip = np.concatenate(([False], near > far))
    restart = np.concatenate(([True], ~((near < far) | (near > far))))
    unordered = np.concatenate(([False], ~((near <= far) | (near > far))))
    start = np.maximum.accumulate(np.where(restart, np.arange(len(roots)), 0))
    flips = np.cumsum(flip)
    negated = ((flips - flips[start]) & 1).astype(bool) ^ unordered[start]
    return np.negative(roots, out=roots.copy(), where=negated)


def _turn(core_a: np.ndarray, core_b: np.ndarray, n_curves: int) -> float:
    """The angle the closed trajectory of nonzero cores turns about lam0:
    core_a alone for two curves; for one, core_a and then core_b = -core_a,
    whose steps repeat core_a's bit for bit ((-x)/(-y) is x/y), so core_a's
    steps count twice, plus the two junctions between the halves."""
    if n_curves == 2:
        return np.angle(core_a / np.roll(core_a, 1)).sum()
    return (2.0 * np.angle(core_a[1:] / core_a[:-1]).sum()
            + np.angle(core_a[0] / core_b[-1]) + np.angle(core_b[0] / core_a[-1]))


# overflow is detected and reported as DimensionError, not warned about
@np.errstate(over="ignore", invalid="ignore")
def loop_trajectory(model: EPLocalModel, spec: LoopSpec) -> LoopReport:
    """Trace the eigenvalue pair around a circular parameter loop.

    The core parts +-sqrt(F + iG) are branch-tracked by nearest-neighbour
    matching between consecutive samples. With r[k] the principal root at
    sample k, branch a is s_k r[k] (s_0 = +1) and branch b is -s_k r[k]; with
    near = |r[k-1] - r[k]| and far = |r[k-1] + r[k]|, the sign s_k keeps
    s_{k-1} when near < far, flips it when near > far, and restarts at +1 on
    an exact tie (near == far, as at an exact zero root). A jump of branch
    a above 0.3 (|a[k]| + |a[k-1]|), away from lam0, raises ResolutionError;
    a loop whose squares, pair mean, radicand, sigma or axis crossings
    overflow raises DimensionError. The full trajectories add the pair mean;
    mean and radicand come from ``pair_terms``. Regime: the loop encloses the
    EP (single closed curve winding once about lam0), touches it, or misses
    it (two "kidneys"). The sign of
    sigma = (f2 g1 - f1 g2)(g1 b - g2 a) selects which axis line the
    trajectories cross in the on/outside regimes.
    """
    if model.n_params != 2:
        raise ChartError("loop trajectories need a two-parameter chart")
    nphi = spec.samples
    phis = np.linspace(0.0, 2.0 * math.pi, nphi, endpoint=False)
    dps = np.column_stack((spec.a + spec.r * np.cos(phis),
                           spec.b + spec.r * np.sin(phis)))
    mid, radicand = model.pair_terms(dps)
    if not (np.isfinite(mid).all() and np.isfinite(radicand).all()):
        raise DimensionError("the pair mean or the radicand F + iG overflows on this loop; "
                             "shrink the loop")
    roots = np.sqrt(radicand)
    core_a = _track_branch(roots)
    core_b = -core_a
    # |core_a| = |core_b| = |roots| bit for bit: the cores are +-roots
    size = np.abs(roots)
    scale = float(size.max(initial=0.0))
    jump = np.abs(core_a[1:] - core_a[:-1])
    span = size[1:] + size[:-1]
    # near the trajectory's passage through lam0 the root speed is
    # genuinely unbounded; only police jumps away from that region
    bad = np.flatnonzero((span > 0.1 * scale) & (jump > 0.3 * span))
    if bad.size:
        k = bad[0]
        raise ResolutionError(
            f"branch jump {jump[k]:.3e} at phi={phis[k + 1]:.3f} too large; "
            f"increase samples (currently {nphi})"
        )
    # closure: does branch a return to itself after one loop, or cross over?
    end_keep = abs(core_a[-1] - core_a[0]) + abs(core_b[-1] - core_b[0])
    end_swap = abs(core_a[-1] - core_b[0]) + abs(core_b[-1] - core_a[0])
    n_curves = 2 if end_keep <= end_swap else 1
    rho2 = spec.a ** 2 + spec.b ** 2
    if abs(rho2 - spec.r ** 2) <= 1e-12 * max(rho2, spec.r ** 2):
        regime = "on"
    elif rho2 < spec.r ** 2:
        regime = "inside"
    else:
        regime = "outside"
    f1, f2 = model.split_re[:2]
    g1, g2 = model.split_im[:2]
    sigma = (f2 * g1 - f1 * g2) * (g1 * spec.b - g2 * spec.a)
    sigma_sign = 0 if sigma == 0.0 else (1 if sigma > 0 else -1)
    crossings = _axis_crossings(model, spec.a, spec.b, spec.r)
    if not all(math.isfinite(x) for x in (sigma, *(c.ordinate for c in crossings))):
        raise DimensionError("sigma or an axis crossing overflows on this loop; "
                             "shrink the loop")
    winding = None
    if regime != "on":
        if float(size.min()) > 0.0:
            winding = int(round(_turn(core_a, core_b, n_curves) / (2.0 * math.pi)))
    return LoopReport(
        regime=regime, sigma=float(sigma), sigma_sign=sigma_sign,
        phis=phis, lam_plus=mid + core_a, lam_minus=mid + core_b,
        core_plus=core_a, core_minus=core_b,
        n_curves=n_curves, winding_number=winding, axis_crossings=crossings,
    )
