"""Detection and classification of double eigenvalues.

Finds near-coincident eigenvalue pairs, decides diabolic (semisimple, two
eigenvectors) versus exceptional (defective, Jordan block) by geometric
multiplicity, builds the associated vector frames with the normalizations

    EP chain:  (A0 - lam0 I) u0 = 0,   (A0 - lam0 I) u1 = u0,
               (A0* - conj(lam0) I) v0 = 0,  (A0* - conj(lam0) I) v1 = v0,
               (u1, v0) = 1, (u1, v1) = 0,

    DP frame:  A0 u_k = lam0 u_k, A0* v_k = conj(lam0) v_k,
               (u_k, v_l) = delta_kl,

and locates exceptional points of two-parameter families by damped Newton
iteration on the analytic scalar ((lam_plus - lam_minus)/2)^2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import family as family_mod
from . import numkit
from .errors import ClassificationError, ConvergenceError, DimensionError, DomainError
from .numkit import _modulus, hermitian_inner

#: Relative eigenvalue-distance threshold for treating a pair as a cluster.
DEFAULT_CLUSTER_TOL = 1e-6
#: Rank threshold of ``classify``, relative to sigma_max(A): singular values
#: of A - lam0 I at or below it count as zero.
DEFAULT_RANK_TOL = 1e-8
#: Newton iteration cap of the exceptional-point search.
DEFAULT_MAX_ITER = 30
#: Relative pair-gap target of the exceptional-point search.
EP_GAP_TOL = 1e-8
#: Its eigensolver noise floor of the pair gap, relative to sigma_max(A).
_EPS_FLOOR = 2.0 * math.sqrt(np.finfo(float).eps)
#: Residual bound of chain and frame vectors, relative to max(sigma_max(A), 1).
_FRAME_TOL = 1e-8


@dataclass(frozen=True)
class SpectralCluster:
    """A near-double eigenvalue pair."""

    center: complex          # arithmetic mean of the two eigenvalues
    internal_gap: float      # |lam_i - lam_j|
    external_gap: float      # distance from center to the nearest non-member


@dataclass(frozen=True)
class DegeneracyClass:
    """EP or DP, with what decided it: the factorisation of A - lam0 I,
    which the chain and frame builders reuse instead of factorising again,
    and sigma_max(A), against which they bound their residuals."""

    kind: str                     # "EP" | "DP"
    geometric_multiplicity: int
    lam0: complex = field(compare=False, repr=False)
    shifted: numkit.SVD = field(compare=False, repr=False)    # of A - lam0 I
    sigma_max: float = field(compare=False, repr=False)       # sigma_max(A)


@dataclass(frozen=True)
class JordanChain:
    """Eigen/associated vector chain of a defective double eigenvalue."""

    lam0: complex
    u0: np.ndarray
    u1: np.ndarray
    v0: np.ndarray
    v1: np.ndarray


@dataclass(frozen=True)
class DPFrame:
    """Bi-orthonormal right/left eigenvector frame of a semisimple pair."""

    lam0: complex
    u1: np.ndarray
    u2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray


@dataclass(frozen=True)
class EPSearchResult:
    """Converged exceptional-point search."""

    p_star: np.ndarray
    lambda0: complex
    iterations: int
    residual_history: list      # |lam_plus - lam_minus| per iterate
    gap: float                  # final pair separation


def _nearest_pairs(row):
    """(gap, i, j) of every pair i < j of a list of Python complex, nearest
    first; ties go to the lowest (i, j). A gap past the largest double is inf."""
    m = len(row)
    return sorted((_modulus(row[i] - row[j]), i, j) for i in range(m) for j in range(i + 1, m))


def _isolation(values, i, j):
    """Centre of the pair (i, j) of an eigenvalue array, and the nearest value
    of another index with its distance to the centre (inf and None when
    there is none)."""
    center = complex(values[i] / 2.0 + values[j] / 2.0)     # halves first: no overflow
    external, k = min(((_modulus(z - center), k) for k, z in enumerate(values.tolist())
                       if k != i and k != j), default=(math.inf, None))
    return center, external, None if k is None else values[k]


def find_double_eigenvalues(a, tol_cluster: float = DEFAULT_CLUSTER_TOL):
    """All near-double eigenvalue pairs of a matrix, nearest pairs first.

    Pairs with |lam_i - lam_j| <= tol * (1 + max|lam|) are greedily matched
    by increasing gap, ties to the lowest (i, j); each eigenvalue joins at
    most one cluster. A third eigenvalue within 10x tol of a cluster center
    raises ClassificationError (triple or higher coincidences are out of scope).
    """
    if not 0 < tol_cluster < math.inf:
        raise ValueError("tol_cluster must be positive and finite")
    w = numkit.eigvals(numkit.as_cmatrix(a))
    row = w.tolist()
    # bounds in Python floats, which overflow to inf without a warning
    sizes = [_modulus(z) for z in row]
    widest = tol_cluster * (1.0 + max(sizes, default=0.0))
    used = set()
    clusters = []
    for gap, i, j in _nearest_pairs(row):
        if not gap <= widest:       # nor is any later, wider gap
            break
        if i in used or j in used or not gap <= tol_cluster * (1.0 + max(sizes[i], sizes[j])):
            continue
        used.update((i, j))
        center, external, z = _isolation(w, i, j)
        if z is not None and external <= 10.0 * tol_cluster * (1.0 + _modulus(center)):
            raise ClassificationError(
                f"third eigenvalue {z:.6g} within 10x tolerance of the "
                f"cluster at {center:.6g}; multiplicity > 2 unsupported"
            )
        if external <= gap:
            raise ClassificationError(
                f"cluster at {center:.6g} not isolated: external gap "
                f"{external:.3e} <= internal gap {gap:.3e}"
            )
        clusters.append(SpectralCluster(center=center, internal_gap=gap, external_gap=external))
    return clusters


def classify(a, lam0: complex, tol_rank: float = DEFAULT_RANK_TOL) -> DegeneracyClass:
    """EP or DP for a (near-)double eigenvalue lam0 of A.

    Geometric multiplicity = m - rank(A - lam0 I); multiplicity 1 is an EP
    (Jordan block), 2 a DP. The rank threshold tol_rank * sigma_max(A) is
    anchored to A so that a semisimple pair (A - lam0 I ~ 0) is not misread
    as full rank. A singular value within a factor 10 of the threshold makes
    the decision ambiguous and raises ClassificationError carrying the
    spectrum. At multiplicity 1 the unit kernel vectors of A - lam0 I and
    its adjoint are orthogonal if lam0 is double; |(u0, v0)| = 1/cond(lam0)
    above 10 sqrt(tol_rank) refuses lam0 as simple, and within a factor 10
    of it is indeterminate. The result keeps the SVD of A - lam0 I and
    sigma_max(A) for the builders.
    """
    if not 0 < tol_rank < math.inf:
        raise ValueError("tol_rank must be positive and finite")
    return _classify(numkit.as_cmatrix(a), lam0, tol_rank)


def _classify(arr, lam0, tol_rank, sigma_max=None) -> DegeneracyClass:
    """``classify`` of a checked matrix (``numkit.as_cmatrix``), reusing
    sigma_max(A) where the caller has taken it."""
    shifted = numkit.SVD(arr - lam0 * np.eye(arr.shape[0]))
    s = shifted.s
    if sigma_max is None:
        sigma_max = float(np.linalg.svd(arr, compute_uv=False)[0])
    threshold = tol_rank * max(sigma_max, 1e-300)     # threshold * 10 may be inf
    values = s.tolist()
    ambiguous = [x for x in values if threshold / 10.0 < x < threshold * 10.0]
    if ambiguous:
        raise ClassificationError(
            f"singular values [{', '.join(f'{x:.3e}' for x in ambiguous)}] within a factor 10 "
            f"of the rank threshold {threshold:.3e}", singular_values=s,
        )
    gm = sum(not x > threshold for x in values)
    if gm not in (1, 2):
        raise ClassificationError(
            f"geometric multiplicity {gm} outside {{1, 2}} for lam0 = {lam0:.6g}"
        )
    if gm == 1:
        # |(u0, v0)| of the unit kernel vectors u0 = conj(vh[-1]), v0 = u[:, -1]
        overlap = abs(shifted.vh[-1] @ shifted.u[:, -1])
        simple = math.sqrt(tol_rank)
        if overlap > 10.0 * simple:
            raise ClassificationError(f"lam0 = {lam0:.6g} is a simple eigenvalue: "
                                      f"|(u0, v0)| = {overlap:.3e} > 10 x {simple:.3e}")
        if overlap > simple / 10.0:
            raise ClassificationError(f"|(u0, v0)| = {overlap:.3e} within a factor 10 of "
                                      f"the threshold {simple:.3e}", singular_values=s)
    return DegeneracyClass(
        kind="EP" if gm == 1 else "DP", geometric_multiplicity=gm,
        lam0=complex(lam0), shifted=shifted, sigma_max=sigma_max,
    )


def _check_chain(shifted, chain: JordanChain):
    """Residuals of the six defining/normalization relations of a chain at A - lam0 I."""
    adj = shifted.conj().T
    return {
        "eigvec": float(np.linalg.norm(shifted @ chain.u0)),
        "assoc": float(np.linalg.norm(shifted @ chain.u1 - chain.u0)),
        "left_eigvec": float(np.linalg.norm(adj @ chain.v0)),
        "left_assoc": float(np.linalg.norm(adj @ chain.v1 - chain.v0)),
        "norm_one": abs(hermitian_inner(chain.u1, chain.v0) - 1.0),
        "norm_zero": abs(hermitian_inner(chain.u1, chain.v1)),
    }


def _chain_head(shifted: numkit.SVD):
    """(u0, u1, v0) at M = A - lam0 I from its SVD: u0 the gauge-fixed kernel vector,
    u1 the minimum-norm solve of M u1 = u0, and v0 = u[:, -1], the kernel of
    M* = V S U*, scaled to (u1, v0) = 1; ClassificationError when (u1, v0) vanishes."""
    u0 = shifted.null_vector()
    u1 = shifted.solve(u0)
    v0 = shifted.u[:, -1]
    scale = hermitian_inner(u1, v0)
    big = float(np.abs(u1).max())
    # the scaled norm: u1 / big has entries up to 1, so its squares cannot
    # overflow; a largest entry of 0, inf or NaN fails as its NaN norm would
    if not (0.0 < big < math.inf
            and abs(scale) > 1e-12 * (float(np.linalg.norm(u1 / big)) * big)):
        raise ClassificationError("(u1, v0) vanishes; chain normalization impossible")
    return u0, u1, v0 * np.conj(1.0 / scale)


def jordan_chain(kind: DegeneracyClass) -> JordanChain:
    """Jordan chain (u0, u1, v0, v1) of a double eigenvalue classified as EP.

    Construction: (u0, u1, v0) as in ``_chain_head``, and v1 as the
    minimum-norm adjoint solve corrected by a multiple of v0 so that
    (u1, v1) = 0. Every vector comes from the classification's factorisation
    of A - lam0 I, read the other way, V S U*, for the adjoint. The solves
    check nothing; ``_check_chain`` does, and an inconsistent chain raises
    ClassificationError.
    """
    if kind.kind != "EP":
        raise ClassificationError("jordan_chain needs an EP; classify says DP")
    u0, u1, v0 = _chain_head(kind.shifted)
    v1 = kind.shifted.adjoint().solve(v0)
    v1 = v1 - np.conj(hermitian_inner(u1, v1)) * v0
    chain = JordanChain(lam0=kind.lam0, u0=u0, u1=u1, v0=v0, v1=v1)
    with np.errstate(over="ignore", invalid="ignore"):     # inf or NaN fails the bound
        residuals = _check_chain(kind.shifted.matrix, chain)
    if not all(r <= _FRAME_TOL * max(kind.sigma_max, 1.0) for r in residuals.values()):
        raise ClassificationError(
            f"chain residuals too large ({residuals}); lam0 may not be a "
            "double eigenvalue at this point"
        )
    return chain


def dp_frame(kind: DegeneracyClass, right_basis=None) -> DPFrame:
    """Bi-orthonormalized frame (u1, u2, v1, v2) of a pair classified as DP.

    ``right_basis`` optionally pins the right eigenvectors (two vectors of
    the eigenspace, held to the chain residuals' bound); the left vectors are
    then the unique solutions of (u_k, v_l) = delta_kl inside the left
    eigenspace. Without it the gauge-fixed kernel basis is used.

    ``classify`` has decided the two-dimensional kernel against sigma_max(A),
    so the two trailing right and left singular vectors of A - lam0 I span
    the right and the left eigenspace. (A threshold relative to
    ||A - lam0 I|| would misjudge a scalar A, where that norm is rounding
    noise.)
    """
    if kind.kind != "DP":
        raise ClassificationError("dp_frame needs a DP; classify says EP")
    m = kind.shifted.matrix.shape[0]
    if right_basis is None:
        u_mat = np.column_stack([numkit.gauge_fix(v.conj()) for v in kind.shifted.vh[-2:]])
    else:
        vecs = np.asarray(right_basis, dtype=complex)
        if vecs.shape != (2, m):
            raise ClassificationError("right_basis must supply two vectors of length m")
        u_mat = vecs.T.copy()
        residuals = np.linalg.norm(kind.shifted.matrix @ u_mat, axis=0)
        bound = _FRAME_TOL * max(kind.sigma_max, 1.0) * np.linalg.norm(u_mat, axis=0)
        if not np.all(residuals <= bound):
            raise ClassificationError(f"right_basis leaves the eigenspace: ||(A - lam0 I) u||"
                                      f" = {residuals.tolist()} > {bound.tolist()}")
    z_mat = kind.shifted.u[:, -2:]          # the kernel of (A - lam0 I)* = V S U*
    gram = z_mat.conj().T @ u_mat          # gram[j, k] = (u_k, z_j)
    if np.linalg.cond(gram) > 1e8:
        raise ClassificationError("Gram matrix of the candidate frames is near singular")
    v_mat = z_mat @ np.linalg.inv(gram).conj().T
    return DPFrame(
        lam0=kind.lam0,
        u1=u_mat[:, 0], u2=u_mat[:, 1],
        v1=v_mat[:, 0], v2=v_mat[:, 1],
    )


#: Codimension of each degeneracy per matrix type (None = cannot occur).
_CODIMENSION_TABLE = {
    ("real-symmetric", "DP"): 2,
    ("real-symmetric", "EP"): None,
    ("real-nonsymmetric", "DP"): 3,
    ("real-nonsymmetric", "EP"): 1,
    ("Hermitian", "DP"): 3,
    ("Hermitian", "EP"): None,
    ("complex-symmetric", "DP"): 4,
    ("complex-symmetric", "EP"): 2,
    ("complex-nonsymmetric", "DP"): 6,
    ("complex-nonsymmetric", "EP"): 2,
}


def codimension(matrix_type: str, kind: str) -> Optional[int]:
    """Number of real conditions for the degeneracy; None when non-existent."""
    key = (matrix_type, kind)
    if key not in _CODIMENSION_TABLE:
        types = sorted({t for t, _ in _CODIMENSION_TABLE})
        raise ValueError(f"matrix_type must be one of {types} and kind 'DP'|'EP'")
    return _CODIMENSION_TABLE[key]


def _approximate_split_gradient(fam, p, shifted):
    """Columns f_s + i g_s = (dA/dp_s u0, v0) of the Newton Jacobian at the
    iterate p, on the approximate (u0, v0) that ``_chain_head`` builds from
    one SVD of ``shifted`` = A(p) - mean I: the entries of
    ``pairmodel.coupling``, one ``vdot`` per partial."""
    try:
        u0, _, v0 = _chain_head(numkit.SVD(shifted))
    except ClassificationError as exc:
        raise ConvergenceError("approximate chain normalization broke down") from exc
    return np.array([np.vdot(v0, d @ u0) for d in family_mod.derivative(fam, p)])


def _converged(a, mean, gap) -> tuple:
    """find_ep's stopping rule, gap <= max(EP_GAP_TOL (1 + |mean|),
    _EPS_FLOOR sigma_max(A)) for a finite A, and the sigma_max(A) it took
    (None if untaken). As sigma_max(A) <= ||A||_F, the SVD is taken only for
    a gap within _EPS_FLOOR ||A||_F, the only gaps the floor can decide; 1%
    to spare covers the rounding of both norms."""
    if gap <= EP_GAP_TOL * (1.0 + abs(mean)):
        return True, None
    frobenius = math.sqrt(np.vdot(a, a).real)     # inf, silently, where it overflows
    if not gap <= 1.01 * _EPS_FLOOR * frobenius:
        return False, None
    sigma_max = float(np.linalg.svd(a, compute_uv=False)[0])
    return gap <= _EPS_FLOOR * sigma_max, sigma_max


def _accepted(history) -> str:
    """'1 accepted step' or 'k accepted steps' of a search's residual history."""
    steps = len(history) - 1
    return f"{steps} accepted step{'s' * (steps != 1)}"


# overflow is refused as DimensionError or a non-finite point, not warned about
@np.errstate(over="ignore", invalid="ignore")
def find_ep(fam: family_mod.MatrixFamily, p_guess) -> EPSearchResult:
    """Newton search for an exceptional point of a two-parameter family.

    Iterates on the analytic scalar z(p) = ((lam_plus - lam_minus)/2)^2 whose
    first-order model is <f, dp> + i <g, dp>; the Jacobian columns f + i g are
    recomputed each step from the approximate chain of the tracked pair.
    Damped with step halving (up to 10 halvings per step, also of a trial
    ``evaluate`` refuses), at most ``DEFAULT_MAX_ITER`` steps. A family of
    another shape raises DimensionError; an unconverged search,
    ConvergenceError naming its stop: the iteration cap, no full or halved
    step inside the domain that lowers |z|, or a step below 1e-14 (1 + |p|).

    Convergence: pair gap below max(EP_GAP_TOL * (1 + |mean|), eigensolver noise
    floor 2 sqrt(eps) sigma_max(A)); at a defective matrix the computed pair
    gap saturates near sqrt(eps)||A|| even though the parameter error is many
    orders smaller (the squared half-gap is linear in dp near the EP).

    The converged point is classified at the pair mean: a DP, or a double
    eigenvalue ``classify`` refuses, or an undecidable rank raises
    ClassificationError naming p_star.
    """
    if fam.n_params != 2 or fam.dim < 2:
        raise DimensionError("find-ep needs a two-parameter family of dimension >= 2")
    p = fam._point(p_guess)
    eye = np.eye(fam.dim)

    def probe(point, prev=None):
        """The iterate's matrix, pair (as Python complex), mean, squared half-gap,
        gap, convergence and the floor test's sigma_max(A) (None if untaken); the
        first probe takes the nearest pair, which must stand apart, later ones the
        previous pair's match. ``evaluate`` has checked the matrix."""
        a = family_mod.evaluate(fam, point)
        values = numkit.eigvals(a)
        row = values.tolist()
        if prev is None:
            gap, i, j = _nearest_pairs(row)[0]
            _, external, third = _isolation(values, i, j)
            # only a real third eigenvalue refuses; a bound past the doubles is inf
            if third is not None and external <= 1.2 * gap:
                raise ConvergenceError(
                    f"eigenvalue pair not separated from the rest of the spectrum "
                    f"(external gap {external:.3e} vs internal {gap:.3e})"
                )
        else:
            i, j, _ = numkit._assign_row(row, *prev)
        lam_p, lam_m = values[i], values[j]
        mean = lam_p / 2.0 + lam_m / 2.0     # halves first: no overflow
        z = ((lam_p - lam_m) / 2.0) ** 2
        if not cmath.isfinite(z):
            raise DimensionError(f"the squared half-gap of the pair overflows at point "
                                 f"{point.tolist()}")
        gap = abs(lam_p - lam_m)
        return (a, (row[i], row[j]), mean, z, gap) + _converged(a, mean, gap)

    a, pair, mean, z, gap, converged, sigma_max = probe(p)
    history = [gap]
    stop = f"within {DEFAULT_MAX_ITER} iterations"
    for iteration in range(DEFAULT_MAX_ITER):
        if converged:
            break
        cols = _approximate_split_gradient(fam, p, a - mean * eye)
        jac = np.array([cols.real, cols.imag])
        try:
            step = np.linalg.solve(jac, -np.array([z.real, z.imag]))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"singular Newton Jacobian at iterate {iteration}",
                residual_history=history,
            ) from exc
        for halving in range(11):
            trial = p + step / (2 ** halving)
            try:
                a_t, pair_t, mean_t, z_t, gap_t, conv_t, sigma_t = probe(trial, prev=pair)
            except DomainError:     # outside the domain, or not finite
                continue
            if abs(z_t) < abs(z) or conv_t:
                p, a, pair, mean, z, gap, converged, sigma_max = (
                    trial, a_t, pair_t, mean_t, z_t, gap_t, conv_t, sigma_t)
                history.append(gap)
                break
        else:       # no trial step accepted
            stop = (f"after {_accepted(history)}: no full or halved Newton step inside "
                    f"the domain lowers |z|")
            break
        size = np.linalg.norm(step)
        if size <= 1e-14 * (1.0 + np.linalg.norm(p)):
            stop = f"after {_accepted(history)}: the Newton step stalled at |dp| = {size:.3e}"
            break
    if converged:
        try:
            kind = _classify(a, mean, DEFAULT_RANK_TOL, sigma_max).kind
        except ClassificationError as exc:
            raise ClassificationError(f"at p_star = {p.tolist()}: {exc}",
                                      singular_values=exc.singular_values) from exc
        if kind != "EP":
            raise ClassificationError(f"the search converged on a {kind}, not an EP, "
                                      f"at p_star = {p.tolist()}")
        return EPSearchResult(
            p_star=p, lambda0=complex(mean), iterations=len(history) - 1,
            residual_history=history, gap=float(gap),
        )
    raise ConvergenceError(f"no exceptional point {stop} (last gap {gap:.3e})",
                           residual_history=history)
