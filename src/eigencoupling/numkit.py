"""Dense complex linear-algebra kernel.

Self-contained routines used by every other module: full eigendecomposition,
rank and null-space decisions, and minimum-norm solves of singular systems.
Everything works on plain ``complex128`` ndarrays in double precision; the
problem sizes of interest are tiny (m = 2..10), so robustness is preferred
over asymptotic speed and the routines lean on LAPACK throughout.

Gauge convention: every reported eigenvector or null vector is scaled so that
its largest-magnitude entry is real positive, ties broken by lowest index.
This makes repeated calls on the same input bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DegeneracyError, DimensionError, NumericError

#: Default relative threshold (w.r.t. the largest singular value) separating
#: "numerically zero" from "numerically nonzero" singular values.
DEFAULT_RANK_TOL = 1e-8


def as_cvector(u) -> np.ndarray:
    """Coerce to a finite 1-d complex128 array."""
    arr = np.asarray(u, dtype=complex)
    if arr.ndim != 1:
        raise DimensionError(f"expected a vector, got shape {arr.shape}")
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise DimensionError("vector has non-finite entries")
    return arr


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a finite square 2-d complex128 array."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise DimensionError("matrix has non-finite entries")
    return arr


def hermitian_inner(u, v) -> complex:
    """Hermitian inner product (u, v) = sum_i u_i * conj(v_i).

    Conjugate-symmetric: ``hermitian_inner(u, v) == conj(hermitian_inner(v, u))``.
    """
    ua = as_cvector(u)
    va = as_cvector(v)
    if ua.shape != va.shape:
        raise DimensionError(f"length mismatch: {ua.shape[0]} vs {va.shape[0]}")
    return complex(np.vdot(va, ua))


def gauge_fix(x: np.ndarray) -> np.ndarray:
    """Rotate a complex vector so its largest-|.| entry is real positive.

    Ties in magnitude are broken by the lowest index. The zero vector is
    returned unchanged.
    """
    x = as_cvector(x)
    mags = np.abs(x)
    top = float(mags.max(initial=0.0))
    if top == 0.0:
        return x.copy()
    # lowest index among entries within one ulp-ish of the max magnitude
    idx = int(np.flatnonzero(mags >= top * (1.0 - 1e-12))[0])
    phase = x[idx] / abs(x[idx])
    return x / phase


@dataclass(frozen=True)
class EigenSet:
    """All eigenvalues of a matrix with unit-norm right eigenvectors.

    ``values[k]`` pairs with the column ``vectors[:, k]``; entries are sorted
    by (real, imag) of the eigenvalue for reproducibility.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __iter__(self):
        return ((self.values[k], self.vectors[:, k]) for k in range(len(self.values)))


def _sorted_spectrum(a, vectors: bool):
    """Eigenvalues sorted by (Re, Im), and the matching eigenvector columns or None."""
    arr = as_cmatrix(a)
    try:
        w, v = np.linalg.eig(arr) if vectors else (np.linalg.eigvals(arr), None)
    except np.linalg.LinAlgError as exc:  # iteration cap inside LAPACK
        raise NumericError(f"eigensolver did not converge: {exc}") from exc
    order = np.lexsort((w.imag, w.real))
    return w[order], (v[:, order] if vectors else None)


def eigvals(a) -> np.ndarray:
    """All eigenvalues with multiplicity, sorted by (Re, Im) like ``eig_all``."""
    return _sorted_spectrum(a, vectors=False)[0]


def eig_all(a) -> EigenSet:
    """Full eigendecomposition (values with multiplicity + right eigenvectors).

    Eigenvectors are unit-norm and gauge-fixed; the set is sorted by
    (Re, Im) of the eigenvalue so identical inputs give identical output.
    """
    w, v = _sorted_spectrum(a, vectors=True)
    cols = [gauge_fix(col / np.linalg.norm(col)) for col in v.T]   # LAPACK's columns are nonzero
    return EigenSet(values=w, vectors=np.column_stack(cols))


def singular_values(a) -> np.ndarray:
    """Singular values in descending order."""
    return np.linalg.svd(as_cmatrix(a), compute_uv=False)


class SVD:
    """A matrix with its full singular value decomposition, from one LAPACK call.

    ``matrix = u @ diag(s) @ vh`` with ``s`` descending. The rank threshold,
    the kernel and the minimum-norm solve below are the package's only
    copies; callers that need several of them factorise once and share it.
    """

    def __init__(self, m):
        self.matrix = as_cmatrix(m)
        self.u, self.s, self.vh = np.linalg.svd(self.matrix)

    def rank(self, tol_rank: float = DEFAULT_RANK_TOL) -> int:
        """Number of singular values above ``tol_rank * sigma_max`` (0 for a zero matrix)."""
        s = self.s
        if s.size == 0 or s[0] == 0.0:
            return 0
        return int(np.count_nonzero(s > tol_rank * s[0]))

    def null_basis(self, tol_rank: float = DEFAULT_RANK_TOL) -> np.ndarray:
        """Orthonormal basis of the numerical kernel, as columns (may be empty)."""
        return self.vh[self.rank(tol_rank):].conj().T

    def null_vector(self, tol_rank: float = DEFAULT_RANK_TOL) -> np.ndarray:
        """The kernel vector of a rank-(m-1) matrix, unit-norm and gauge-fixed.

        Raises DegeneracyError unless the numerical kernel is exactly
        one-dimensional at the given threshold.
        """
        basis = self.null_basis(tol_rank)
        if basis.shape[1] != 1:
            raise DegeneracyError(
                f"kernel dimension is {basis.shape[1]}, expected 1 "
                f"(tol_rank={tol_rank:g})"
            )
        return gauge_fix(basis[:, 0])

    def solve(self, b, tol_rank: float = DEFAULT_RANK_TOL) -> np.ndarray:
        """Minimum-norm solution of M x = b for a (possibly) singular M.

        Singular directions below ``tol_rank * sigma_max`` are excluded, so
        the returned x is orthogonal to the numerical kernel of M. Raises
        ConsistencyError when b has a component outside the range of M, i.e.
        the residual exceeds ``tol_rank * (||M|| ||x|| + ||b||)``.
        """
        rhs = as_cvector(b)
        if rhs.shape[0] != self.matrix.shape[0]:
            raise DimensionError("right-hand side length does not match the matrix")
        rank = self.rank(tol_rank)
        inv = np.zeros_like(self.s)
        inv[:rank] = 1.0 / self.s[:rank]
        x = self.vh.conj().T @ (inv * (self.u.conj().T @ rhs))
        residual = np.linalg.norm(self.matrix @ x - rhs)
        smax = self.s[0] if self.s.size else 0.0
        bound = tol_rank * (smax * np.linalg.norm(x) + np.linalg.norm(rhs))
        if residual > bound:
            raise ConsistencyError(
                f"inconsistent right-hand side: residual {residual:.3e} "
                f"exceeds {bound:.3e}"
            )
        return x


def rank_at(m, tol_rank: float = DEFAULT_RANK_TOL) -> int:
    """Numerical rank at a positive ``tol_rank``; see ``SVD.rank``."""
    if tol_rank <= 0:
        raise ValueError("tol_rank must be positive")
    return SVD(m).rank(tol_rank)


def null_basis(m, tol_rank: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical kernel, as columns (may be empty)."""
    return SVD(m).null_basis(tol_rank)


def null_vector(m, tol_rank: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """The kernel vector of a rank-(m-1) matrix; see ``SVD.null_vector``."""
    return SVD(m).null_vector(tol_rank)


def solve_on_complement(m, b, tol_rank: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Minimum-norm solution of M x = b; see ``SVD.solve``."""
    return SVD(m).solve(b, tol_rank)


def pair_assignment(values, targets):
    """Assign two eigenvalues to each target pair, many spectra at once.

    ``values`` is (N, m), ``targets`` is (N, 2). For each row the ordered pair
    (i, j), i != j, minimises |values[i] - targets[0]| + |values[j] - targets[1]|;
    ties go to the lowest i, then the lowest j. Returns the index arrays i, j
    and the margin: second-lowest cost minus lowest. Needs m >= 2.
    """
    values = np.asarray(values, dtype=complex)
    targets = np.asarray(targets, dtype=complex)
    n, m = values.shape
    # hypot rounds like abs() of a Python complex, unlike numpy's complex abs
    d0 = values - targets[:, :1]
    d1 = values - targets[:, 1:]
    cost = (np.hypot(d0.real, d0.imag)[:, :, None]
            + np.hypot(d1.real, d1.imag)[:, None, :])
    flat = cost.reshape(n, m * m)
    flat[:, ::m + 1] = np.inf          # the diagonal: i == j
    best = np.argmin(flat, axis=1)     # first minimum: lowest i, then lowest j
    rows = np.arange(n)
    lowest = flat[rows, best]
    flat[rows, best] = np.inf          # what is left holds the second-lowest cost
    return best // m, best % m, flat.min(axis=1) - lowest
