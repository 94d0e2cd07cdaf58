"""Dense complex linear-algebra kernel.

Self-contained routines used by every other module: full eigendecomposition,
kernel vectors, and minimum-norm solves of singular systems.
Everything works on plain ``complex128`` ndarrays in double precision; the
problem sizes of interest are tiny (m = 2..10), so robustness is preferred
over asymptotic speed and the routines lean on LAPACK throughout.

Gauge convention: every reported eigenvector or null vector is scaled so that
its largest-magnitude entry is real positive, ties broken by lowest index.
This makes repeated calls on the same input bit-for-bit reproducible.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ClassificationError, DimensionError, EigenCouplingError


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a finite square 2-d complex128 array."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DimensionError("matrix has non-finite entries")
    return arr


def hermitian_inner(u, v) -> complex:
    """Hermitian inner product (u, v) = sum_i u_i * conj(v_i).

    Conjugate-symmetric: ``hermitian_inner(u, v) == conj(hermitian_inner(v, u))``.
    The vectors are the library's own, built from checked matrices.
    """
    if len(u) != len(v):
        raise DimensionError(f"length mismatch: {len(u)} vs {len(v)}")
    return complex(np.vdot(v, u))


def gauge_fix(x: np.ndarray) -> np.ndarray:
    """Rotate a complex vector so its largest-|.| entry is real positive.

    Ties in magnitude are broken by the lowest index. The zero vector is
    returned unchanged.
    """
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


def _sorted_spectrum(arr, vectors: bool):
    """Eigenvalues of a checked matrix (``as_cmatrix``) sorted by (Re, Im),
    and the matching eigenvector columns or None."""
    try:
        w, v = np.linalg.eig(arr) if vectors else (np.linalg.eigvals(arr), None)
    except np.linalg.LinAlgError as exc:  # iteration cap inside LAPACK
        raise EigenCouplingError(f"eigensolver did not converge: {exc}") from exc
    order = np.lexsort((w.imag, w.real))
    return w[order], (v[:, order] if vectors else None)


def eigvals(arr) -> np.ndarray:
    """All eigenvalues with multiplicity, sorted by (Re, Im) like ``eig_all``,
    of a finite square complex128 array: one that ``as_cmatrix`` or
    ``family.evaluate`` returned. Where a caller's matrix comes in, the
    caller checks it (``degeneracy.find_double_eigenvalues``)."""
    return _sorted_spectrum(arr, vectors=False)[0]


def eig_all(a) -> EigenSet:
    """Full eigendecomposition (values with multiplicity + right eigenvectors).

    Eigenvectors are unit-norm and gauge-fixed; the set is sorted by
    (Re, Im) of the eigenvalue so identical inputs give identical output.
    """
    w, v = _sorted_spectrum(as_cmatrix(a), vectors=True)
    cols = [gauge_fix(col / np.linalg.norm(col)) for col in v.T]   # LAPACK's columns are nonzero
    return EigenSet(values=w, vectors=np.column_stack(cols))


class SVD:
    """A matrix with its full singular value decomposition, from one LAPACK call.

    ``matrix = u @ diag(s) @ vh`` with ``s`` descending. The kernel vector
    and the minimum-norm solve below are the package's only copies; callers
    that need both factorise once and share it. Neither decides a rank: the
    caller has decided (``degeneracy.classify``) that the trailing singular
    direction spans the kernel.
    """

    def __init__(self, m):
        self.matrix = as_cmatrix(m)
        self.u, self.s, self.vh = np.linalg.svd(self.matrix)

    def null_vector(self) -> np.ndarray:
        """The trailing right singular vector, unit-norm and gauge-fixed."""
        return gauge_fix(self.vh[-1].conj())

    def solve(self, b) -> np.ndarray:
        """Minimum-norm solution of M x = b on the complement of the trailing
        right singular vector (the kernel of a rank-(m-1) M).

        The returned x is orthogonal to that vector; ClassificationError where a
        singular value has no finite reciprocal. The residual M x - b is not
        checked: away from a double eigenvalue b need not lie in the
        range of M, and ``degeneracy.jordan_chain`` checks the chain
        equations it needs to hold.
        """
        inv = np.zeros_like(self.s)
        if len(inv) > 1:
            # s descends, so every reciprocal is finite where the largest, 1/s[-2], is
            low = float(self.s[-2])
            if low == 0.0 or 1.0 / low == math.inf:
                raise ClassificationError(f"singular value {low:.3e} has no finite reciprocal")
            inv[:-1] = 1.0 / self.s[:-1]
        return self.vh.conj().T @ (inv * (self.u.conj().T @ b))

    def adjoint(self) -> "SVD":
        """The SVD of M* = V S U*, read from these factors without a second call."""
        adj = copy.copy(self)
        adj.matrix, adj.u, adj.vh = self.matrix.conj().T, self.vh.conj().T, self.u.conj().T
        return adj


def _modulus(z: complex) -> float:
    """|z| of a Python complex: libm's hypot, as numpy's scalar abs and
    ``np.hypot`` round it (numpy's array abs may not), and inf where it
    overflows, which abs() raises as OverflowError."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def pair_assignment(values, targets):
    """Assign two eigenvalues to each target pair, many spectra at once.

    ``values`` is (N, m), ``targets`` is (N, 2), all finite. For each row the
    ordered pair (i, j), i != j, minimises |values[i] - targets[0]| +
    |values[j] - targets[1]|; ties go to the lowest i, then the lowest j.
    Returns the index arrays i, j and the margin: second-lowest cost minus
    lowest. A cost that overflows counts as the largest double, so two such
    tie at margin 0. Needs m >= 2. ``_assign_row`` assigns one spectrum on
    Python floats, with the same bits.
    """
    values = np.asarray(values, dtype=complex)
    targets = np.asarray(targets, dtype=complex)
    n, m = values.shape
    # hypot rounds like abs() of a Python complex, unlike numpy's complex abs
    with np.errstate(over="ignore"):
        d0 = values - targets[:, :1]
        d1 = values - targets[:, 1:]
        cost = (np.hypot(d0.real, d0.imag)[:, :, None]
                + np.hypot(d1.real, d1.imag)[:, None, :])
    flat = np.minimum(cost, np.finfo(float).max).reshape(n, m * m)
    flat[:, ::m + 1] = np.inf          # the diagonal: i == j, above every cost
    best = np.argmin(flat, axis=1)     # first minimum: lowest i, then lowest j
    rows = np.arange(n)
    lowest = flat[rows, best]
    flat[rows, best] = np.inf          # what is left holds the second-lowest cost
    return best // m, best % m, flat.min(axis=1) - lowest


def _assign_row(row, first: complex, second: complex):
    """``pair_assignment`` of one spectrum ``row`` (a list of Python complex)
    to the targets (first, second): i, j and the margin, as Python numbers.
    The costs are the batched path's sums of the same hypot values, capped
    alike; the scan in (i, j) order keeps the first of equal costs, as argmin
    does. Rounding is monotonic, so no cost of row i is below |values[i] -
    first| plus the least |values[j] - second|, and a row whose bound does
    not beat the second-lowest cost so far is skipped."""
    to_first = [_modulus(z - first) for z in row]
    to_second = [_modulus(z - second) for z in row]
    largest = sys.float_info.max
    least = min(to_second)
    lowest = runner_up = math.inf
    best = None
    for i, cost_i in enumerate(to_first):
        if min(cost_i + least, largest) >= runner_up:
            continue
        for j, cost_j in enumerate(to_second):
            cost = cost_i + cost_j
            if cost > largest:
                cost = largest
            if cost < runner_up and i != j:
                if cost < lowest:
                    lowest, runner_up, best = cost, lowest, (i, j)
                else:
                    runner_up = cost
    return best[0], best[1], runner_up - lowest
