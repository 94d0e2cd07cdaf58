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

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import family as family_mod
from . import numkit
from .errors import (
    ClassificationError,
    ConvergenceError,
    FrameError,
    IndeterminateRankError,
    MultiplicityError,
    TrackingError,
)
from .numkit import hermitian_inner

#: Relative eigenvalue-distance threshold for treating a pair as a cluster.
DEFAULT_CLUSTER_TOL = 1e-6
#: Default Newton iteration cap for the exceptional-point search.
DEFAULT_MAX_ITER = 30


@dataclass(frozen=True)
class SpectralCluster:
    """A near-double eigenvalue pair."""

    center: complex          # arithmetic mean of the two members
    members: tuple           # the two eigenvalues
    internal_gap: float      # |lam_i - lam_j|
    external_gap: float      # distance from center to the nearest non-member


@dataclass(frozen=True)
class DegeneracyClass:
    """EP or DP, with the factorisation of A - lam0 I that decided it; the
    chain and frame builders ``*_of`` reuse it instead of factorising again."""

    kind: str                     # "EP" | "DP"
    geometric_multiplicity: int
    lam0: complex = field(compare=False, repr=False)
    shifted: numkit.SVD = field(compare=False, repr=False)    # of A - lam0 I
    sigma_max: float = field(compare=False, repr=False)       # sigma_max(A)
    tol_rank: float = field(compare=False, repr=False)


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
    lam0: complex
    iterations: int
    residual_history: list      # |lam_plus - lam_minus| per iterate
    gap: float                  # final pair separation


def find_double_eigenvalues(a, tol_cluster: float = DEFAULT_CLUSTER_TOL):
    """All near-double eigenvalue pairs of a matrix, nearest pairs first.

    Pairs with |lam_i - lam_j| <= tol * (1 + max|lam|) are greedily matched
    by increasing gap; each eigenvalue joins at most one cluster. A third
    eigenvalue within 10x tol of a cluster center raises MultiplicityError
    (triple or higher coincidences are out of scope).
    """
    if tol_cluster <= 0:
        raise ValueError("tol_cluster must be positive")
    w = numkit.eigvals(a)
    m = len(w)
    candidates = []
    for i in range(m):
        for j in range(i + 1, m):
            gap = abs(w[i] - w[j])
            scale = 1.0 + max(abs(w[i]), abs(w[j]))
            if gap <= tol_cluster * scale:
                candidates.append((gap, i, j))
    candidates.sort(key=lambda t: t[0])
    used = set()
    clusters = []
    for gap, i, j in candidates:
        if i in used or j in used:
            continue
        used.update((i, j))
        center = (w[i] + w[j]) / 2.0
        rest = [w[k] for k in range(m) if k not in (i, j)]
        external = min((abs(z - center) for z in rest), default=math.inf)
        for z in rest:
            if abs(z - center) <= 10.0 * tol_cluster * (1.0 + abs(center)):
                raise MultiplicityError(
                    f"third eigenvalue {z:.6g} within 10x tolerance of the "
                    f"cluster at {center:.6g}; multiplicity > 2 unsupported"
                )
        if external <= gap:
            raise MultiplicityError(
                f"cluster at {center:.6g} not isolated: external gap "
                f"{external:.3e} <= internal gap {gap:.3e}"
            )
        clusters.append(SpectralCluster(
            center=complex(center), members=(complex(w[i]), complex(w[j])),
            internal_gap=float(gap), external_gap=float(external),
        ))
    return clusters


def classify(a, lam0: complex, tol_rank: float = numkit.DEFAULT_RANK_TOL) -> DegeneracyClass:
    """EP or DP for a (near-)double eigenvalue lam0 of A.

    Geometric multiplicity = m - rank(A - lam0 I); multiplicity 1 is an EP
    (Jordan block), 2 a DP. The rank threshold is anchored to sigma_max(A)
    so that a semisimple pair (A - lam0 I ~ 0) is not misread as full rank.
    A singular value within a factor 10 of the threshold makes the decision
    ambiguous and raises IndeterminateRankError carrying the spectrum. The
    result keeps the SVD of A - lam0 I and sigma_max(A) for the builders.
    """
    arr = numkit.as_cmatrix(a)
    shifted = numkit.SVD(arr - lam0 * np.eye(arr.shape[0]))
    s = shifted.s
    sigma_max = numkit.singular_values(arr)[0]
    threshold = tol_rank * max(sigma_max, 1e-300)
    ambiguous = [x for x in s if threshold / 10.0 < x < threshold * 10.0]
    if ambiguous:
        raise IndeterminateRankError(
            f"singular values {ambiguous} within a factor 10 of the rank "
            f"threshold {threshold:.3e}", singular_values=s,
        )
    gm = len(s) - int(np.count_nonzero(s > threshold))
    if gm not in (1, 2):
        raise ClassificationError(
            f"geometric multiplicity {gm} outside {{1, 2}} for lam0 = {lam0:.6g}"
        )
    return DegeneracyClass(
        kind="EP" if gm == 1 else "DP", geometric_multiplicity=gm,
        lam0=complex(lam0), shifted=shifted, sigma_max=sigma_max, tol_rank=tol_rank,
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


def jordan_chain(a, lam0: complex, tol_rank: float = numkit.DEFAULT_RANK_TOL) -> JordanChain:
    """Jordan chain (u0, u1, v0, v1) of a defective double eigenvalue lam0 of A."""
    return jordan_chain_of(classify(a, lam0, tol_rank))


def jordan_chain_of(kind: DegeneracyClass) -> JordanChain:
    """Jordan chain (u0, u1, v0, v1) of a double eigenvalue classified as EP.

    Construction: u0 from the kernel (gauge-fixed), u1 as the minimum-norm
    solution of the chain equation (which fixes the residual freedom
    u1 -> u1 + beta*u0 by (u1, u0) = 0), v0 as the adjoint kernel vector
    rescaled to (u1, v0) = 1, and v1 as the minimum-norm adjoint solve
    corrected by a multiple of v0 so that (u1, v1) = 0. The right vectors
    come from the classification's factorisation, the left ones from one
    factorisation of the adjoint.
    """
    if kind.kind != "EP":
        raise ClassificationError("jordan_chain needs an EP; classify says DP")
    shifted, tol_rank = kind.shifted, kind.tol_rank
    u0 = shifted.null_vector(tol_rank)
    u1 = shifted.solve(u0, tol_rank)
    adjoint = numkit.SVD(shifted.matrix.conj().T)
    v0_raw = adjoint.null_vector(tol_rank)
    scale = hermitian_inner(u1, v0_raw)
    if abs(scale) < 1e-12 * np.linalg.norm(u1):
        raise FrameError("(u1, v0) vanishes; chain normalization impossible")
    v0 = v0_raw * np.conj(1.0 / scale)
    v1 = adjoint.solve(v0, tol_rank)
    v1 = v1 - np.conj(hermitian_inner(u1, v1)) * v0
    chain = JordanChain(lam0=kind.lam0, u0=u0, u1=u1, v0=v0, v1=v1)
    residuals = _check_chain(shifted.matrix, chain)
    worst = max(residuals.values())
    if worst > 1e-8 * max(kind.sigma_max, 1.0):
        raise FrameError(
            f"chain residuals too large ({residuals}); lam0 may not be a "
            "double eigenvalue at this point"
        )
    return chain


def dp_frame(a, lam0: complex, right_basis=None,
             tol_rank: float = numkit.DEFAULT_RANK_TOL) -> DPFrame:
    """Bi-orthonormalized frame (u1, u2, v1, v2) of a semisimple double pair
    lam0 of A; ``right_basis`` as in ``dp_frame_of``."""
    return dp_frame_of(classify(a, lam0, tol_rank), right_basis)


def dp_frame_of(kind: DegeneracyClass, right_basis=None) -> DPFrame:
    """Bi-orthonormalized frame (u1, u2, v1, v2) of a pair classified as DP.

    ``right_basis`` optionally pins the right eigenvectors (columns or a
    sequence of two vectors); the left vectors are then the unique solutions
    of (u_k, v_l) = delta_kl inside the left eigenspace. Without it the
    gauge-fixed kernel basis is used.

    ``classify`` has decided the two-dimensional kernel against sigma_max(A),
    so both eigenspaces are spanned by the two trailing right singular
    vectors of A - lam0 I and of its adjoint. (A threshold relative to
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
        if vecs.shape == (2, m):          # two row vectors
            u_mat = vecs.T.copy()
        elif vecs.shape == (m, 2):        # two column vectors
            u_mat = vecs.copy()
        else:
            raise FrameError("right_basis must supply two vectors of length m")
    z_mat = numkit.SVD(kind.shifted.matrix.conj().T).vh[-2:].conj().T
    gram = z_mat.conj().T @ u_mat          # gram[j, k] = (u_k, z_j)
    if np.linalg.cond(gram) > 1e8:
        raise FrameError("Gram matrix of the candidate frames is near singular")
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


def _select_pair(values, which, prev=None):
    """Pick the tracked eigenvalue pair out of the full spectrum."""
    m = len(values)
    if m < 2:
        raise TrackingError("family dimension < 2 has no eigenvalue pairs")
    if prev is not None:
        # assignment of the two previous values to the closest new ones
        i, j, _ = numkit.pair_assignment(values[None], np.array([prev]))
        return values[i[0]], values[j[0]]
    if which is not None:
        order = sorted(range(m), key=lambda k: abs(values[k] - which))
        return values[order[0]], values[order[1]]
    # the closest pair; ties go to the lowest (i, j)
    _, i, j = min((abs(values[i] - values[j]), i, j)
                  for i in range(m) for j in range(i + 1, m))
    return values[i], values[j]


def _approximate_split_gradient(a, derivs, mean):
    """Columns f_s + i g_s of the Newton Jacobian from the nearest-to-defective
    chain approximation at the current iterate."""
    arr = numkit.as_cmatrix(a)
    m = arr.shape[0]
    shifted = arr - mean * np.eye(m)
    u, s, vh = np.linalg.svd(shifted)
    u0 = vh[-1].conj()
    v0 = u[:, -1]
    # rank-(m-1) pseudo-solve of (A - mean I) u1 = u0
    coeffs = u.conj().T @ u0
    u1 = np.zeros(m, dtype=complex)
    for k in range(m - 1):
        if s[k] > 0:
            u1 += (coeffs[k] / s[k]) * vh[k].conj()
    scale = hermitian_inner(u1, v0)
    if abs(scale) < 1e-300:
        raise TrackingError("approximate chain normalization broke down")
    v0 = v0 * np.conj(1.0 / scale)
    return np.array([hermitian_inner(d @ u0, v0) for d in derivs])


def find_ep(fam: family_mod.MatrixFamily, p_guess, which=None,
            tol_gap: float = 1e-8, max_iter: int = DEFAULT_MAX_ITER) -> EPSearchResult:
    """Newton search for an exceptional point of a two-parameter family.

    Iterates on the analytic scalar z(p) = ((lam_plus - lam_minus)/2)^2 whose
    first-order model is <f, dp> + i <g, dp>; the Jacobian columns f + i g are
    recomputed each step from the approximate chain of the tracked pair.
    Damped with step halving (up to 10 halvings per step).

    Convergence: pair gap below max(tol_gap * (1 + |mean|), eigensolver noise
    floor 2 sqrt(eps) sigma_max(A)); at a defective matrix the computed pair
    gap saturates near sqrt(eps)||A|| even though the parameter error is many
    orders smaller (the squared half-gap is linear in dp near the EP).
    """
    if fam.n_params != 2:
        raise TrackingError("find_ep requires a two-parameter family")
    p = fam._point(p_guess)
    eps_floor = 2.0 * math.sqrt(np.finfo(float).eps)

    def probe(point, prev=None):
        a = family_mod.evaluate(fam, point)
        values = numkit.eigvals(a)
        lam_p, lam_m = _select_pair(values, which, prev)
        mean = (lam_p + lam_m) / 2.0
        z = ((lam_p - lam_m) / 2.0) ** 2
        gap = abs(lam_p - lam_m)
        floor = eps_floor * numkit.singular_values(a)[0]
        converged = gap <= max(tol_gap * (1.0 + abs(mean)), floor)
        return a, values, (lam_p, lam_m), mean, z, gap, converged

    a, values, pair, mean, z, gap, converged = probe(p)
    external = min((abs(lam - mean) for lam in values
                    if min(abs(lam - pair[0]), abs(lam - pair[1])) > 1e-14),
                   default=math.inf)
    if external <= 1.2 * gap:
        raise TrackingError(
            f"eigenvalue pair not separated from the rest of the spectrum "
            f"(external gap {external:.3e} vs internal {gap:.3e})"
        )
    history = [gap]
    for iteration in range(max_iter):
        if converged:
            break
        derivs = [family_mod.derivative(fam, p, s) for s in range(2)]
        cols = _approximate_split_gradient(a, derivs, mean)
        jac = np.array([[cols[0].real, cols[1].real],
                        [cols[0].imag, cols[1].imag]])
        try:
            step = np.linalg.solve(jac, -np.array([z.real, z.imag]))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"singular Newton Jacobian at iterate {iteration}",
                residual_history=history,
            ) from exc
        for halving in range(11):
            trial = p + step / (2 ** halving)
            if not fam.contains(trial):
                continue
            a_t, _, pair_t, mean_t, z_t, gap_t, conv_t = probe(trial, prev=pair)
            if abs(z_t) < abs(z) or conv_t:
                p, a, pair, mean, z, gap, converged = trial, a_t, pair_t, mean_t, z_t, gap_t, conv_t
                history.append(gap)
                break
        else:       # no trial step accepted
            break
        if np.linalg.norm(step) <= 1e-14 * (1.0 + np.linalg.norm(p)):
            break
    if converged:
        return EPSearchResult(
            p_star=p, lam0=complex(mean), iterations=len(history) - 1,
            residual_history=history, gap=float(gap),
        )
    raise ConvergenceError(
        f"no exceptional point within {max_iter} iterations "
        f"(last gap {gap:.3e})", residual_history=history,
    )
