"""The first-order pair model shared by exceptional and diabolic points.

Near the degenerate point p0 both regimes give the eigenvalue pair as

    lam_pm(dp) = mid(dp) +- sqrt(q(dp)),    mid = lam0 + <mean, dp>,

with a radicand q that is linear in dp at an EP (F + iG) and quadratic at a
DP (c(dp)). Both are read off ``coupling``, the restriction of each dA/dp_s
to the pair's two-dimensional subspace. A local model supplies mid and q at
N offsets at once through its ``pair_terms(dps)`` method; ``sheets`` turns
them into the four Re/Im sheets and the paired eigenvalues, and ``pair_at``
gives the same at one offset as a ``PairPoint`` record.

Branch pairing: the +- signs of the Re and Im radicals are not independent.
The principal root w = sqrt(q) ties them, so the two eigenvalues are
mid + w and mid - w, while the sheets take Re w >= 0 and |Im w| apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import family as family_mod
from .errors import DimensionError


#: the p_1 sweep of cross-sections and conics: dp_1 in [-SWEEP_SPAN,
#: SWEEP_SPAN] at SWEEP_SAMPLES evenly spaced points
SWEEP_SPAN = 0.1
SWEEP_SAMPLES = 401


@dataclass(frozen=True)
class PairSheets:
    """The model pair at N offsets."""

    radicand: np.ndarray      # (N,) complex: q(dp)
    root: np.ndarray          # (N,) complex: principal sqrt(q)
    sheets: np.ndarray        # (N, 4): re_plus, re_minus, im_plus, im_minus
    pair: np.ndarray          # (N, 2) complex: mid + root, mid - root


@dataclass(frozen=True)
class PairPoint:
    """The model pair at one offset: row 0 of ``sheets``."""

    re_plus: float
    re_minus: float
    im_plus: float
    im_minus: float
    lam_plus: complex         # mid + principal sqrt(q)
    lam_minus: complex        # mid - principal sqrt(q)
    radicand: complex         # q(dp)


def projection(d, us, vs) -> np.ndarray:
    """The 2x2 restriction of a matrix d to the pair: [i, j] = (d u_i, v_j),
    the Hermitian inner product of ``numkit.hermitian_inner``.

    ``us`` and ``vs`` are the pair's right and left vectors: the Jordan
    chain (u0, u1), (v0, v1) at an EP, the bi-orthonormal frame at a DP.
    """
    images = [d @ u for u in us]
    return np.array([[np.vdot(v, image) for v in vs] for image in images])


def coupling(fam, p0, us, vs) -> np.ndarray:
    """[i, j, s] = (dA/dp_s u_i, v_j) at p0: ``projection`` of each of the
    family's derivatives, stacked along the last axis."""
    out = np.empty((len(us), len(vs), fam.n_params), dtype=complex)
    for s in range(fam.n_params):
        out[:, :, s] = projection(family_mod.derivative(fam, p0, s), us, vs)
    return out


def _linear(dps, coeffs) -> np.ndarray:
    """sum_s dps[:, s] coeffs[s] at (N, n) offsets, summed from +0 in
    parameter order on numpy's own loops, so that the bits depend neither on
    the BLAS library nor on its thread count. For n <= 3 and N >= 2 they are
    those of ``dps @ coeffs`` on OpenBLAS; from n = 4 on its blocked sums may
    round otherwise, and a single offset goes to its dot, which may fuse
    multiply-adds."""
    total = 0.0
    for s, coeff in enumerate(coeffs.tolist()):
        total = total + dps[:, s] * coeff
    return total


def offsets(model, dps) -> np.ndarray:
    """Parameter offsets as an (N, n) float array; one offset (n,) gives N = 1."""
    arr = np.asarray(dps, dtype=float)
    if arr.ndim < 2:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != model.n_params:
        raise DimensionError(
            f"offset must have {model.n_params} components, got {np.shape(dps)}")
    return arr


def rest_offsets(model, rest) -> np.ndarray:
    """The fixed offsets of parameters 2..n as an (n - 1,) float array; None gives zeros."""
    n = model.n_params
    arr = np.zeros(n - 1) if rest is None else np.atleast_1d(np.asarray(rest, dtype=float))
    if arr.shape != (n - 1,):
        raise DimensionError(f"offsets of parameters 2..n must have {n - 1} components")
    return arr


def sweep(rest) -> np.ndarray:
    """(SWEEP_SAMPLES, n) offsets: dp_1 on the sweep grid, dp_2..n fixed at rest."""
    grid = np.linspace(-SWEEP_SPAN, SWEEP_SPAN, SWEEP_SAMPLES)
    return np.column_stack((grid, np.broadcast_to(rest, (SWEEP_SAMPLES, len(rest)))))


# overflow is refused as DimensionError, not warned about
@np.errstate(over="ignore", invalid="ignore")
def sheets(model, dps) -> PairSheets:
    """Sheets and paired eigenvalues of an EP or DP local model at offsets dps."""
    mid, radicand = model.pair_terms(offsets(model, dps))
    if not (np.isfinite(mid).all() and np.isfinite(radicand).all()):
        raise DimensionError("the pair model overflows at these offsets")
    root = np.sqrt(radicand)
    spread = np.abs(root.imag)
    return PairSheets(
        radicand=radicand, root=root,
        sheets=np.column_stack((mid.real + root.real, mid.real - root.real,
                                mid.imag + spread, mid.imag - spread)),
        pair=np.column_stack((mid + root, mid - root)),
    )


def pair_at(model, dp) -> PairPoint:
    """The sheets, eigenvalues and radicand of an EP or DP model at one offset."""
    one = sheets(model, dp)
    return PairPoint(*one.sheets[0].tolist(), *one.pair[0].tolist(), complex(one.radicand[0]))
