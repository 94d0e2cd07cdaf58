"""The exceptional-point search as it stood before each Newton step did
its work once: ``find_ep`` and the private helpers it calls, copied
unchanged from ``degeneracy`` and ``numkit``.

``degeneracy.find_ep`` must return what this copy returns, bit for bit, or
raise the same error; ``test_find_ep_oracle`` compares the two on drawn
inputs. The function bodies are the old ones word for word, but for the
call of the domain test that ``MatrixFamily`` no longer has, now
``_contains`` here; ``numkit`` below is a namespace that sends their
``numkit.`` calls to the copies here, and to the package for what has not
changed (``SVD``). The constants are copied too, so that a change of the
package's does not move the oracle.
"""

from __future__ import annotations

import cmath
import math
import sys
import types

import numpy as np

from eigencoupling import family as family_mod
from eigencoupling import numkit as _package_numkit
from eigencoupling.degeneracy import EPSearchResult, DegeneracyClass
from eigencoupling.errors import (ClassificationError, ConvergenceError, DimensionError,
                                  EigenCouplingError)
from eigencoupling.numkit import hermitian_inner
from eigencoupling.pairmodel import coupling

DEFAULT_RANK_TOL = 1e-8
DEFAULT_MAX_ITER = 30
EP_GAP_TOL = 1e-8
_EPS_FLOOR = 2.0 * math.sqrt(np.finfo(float).eps)


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a finite square 2-d complex128 array."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DimensionError("matrix has non-finite entries")
    return arr


def _sorted_spectrum(a, vectors: bool):
    """Eigenvalues sorted by (Re, Im), and the matching eigenvector columns or None."""
    arr = as_cmatrix(a)
    try:
        w, v = np.linalg.eig(arr) if vectors else (np.linalg.eigvals(arr), None)
    except np.linalg.LinAlgError as exc:  # iteration cap inside LAPACK
        raise EigenCouplingError(f"eigensolver did not converge: {exc}") from exc
    order = np.lexsort((w.imag, w.real))
    return w[order], (v[:, order] if vectors else None)


def eigvals(a) -> np.ndarray:
    """All eigenvalues with multiplicity, sorted by (Re, Im) like ``eig_all``."""
    return _sorted_spectrum(a, vectors=False)[0]


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
    tie at margin 0. Needs m >= 2. One row (N = 1) is assigned on Python
    floats by ``_assign_row``, with the same bits.
    """
    values = np.asarray(values, dtype=complex)
    targets = np.asarray(targets, dtype=complex)
    n, m = values.shape
    if n == 1:
        i, j, margin = _assign_row(values[0].tolist(), *targets[0].tolist())
        return np.array([i]), np.array([j]), np.array([margin])
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


def _classify(a, lam0, tol_rank, sigma_max=None) -> DegeneracyClass:
    """``classify``, reusing sigma_max(A) where the caller has taken it."""
    if not 0 < tol_rank < math.inf:
        raise ValueError("tol_rank must be positive and finite")
    arr = numkit.as_cmatrix(a)
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


def _approximate_split_gradient(fam, p, a, mean):
    """Columns f_s + i g_s = (dA/dp_s u0, v0) of the Newton Jacobian at the
    iterate p, A = A(p), on the approximate (u0, v0) that ``_chain_head``
    builds from one SVD of A - mean I."""
    try:
        u0, _, v0 = _chain_head(numkit.SVD(a - mean * np.eye(len(a))))
    except ClassificationError as exc:
        raise ConvergenceError("approximate chain normalization broke down") from exc
    return coupling(fam, p, (u0,), (v0,))[0, 0]


def _converged(a, mean, gap, floor=None) -> bool:
    """find_ep's stopping rule: gap <= max(EP_GAP_TOL (1 + |mean|),
    _EPS_FLOOR sigma_max(A)) for a finite A. As sigma_max(A) <= ||A||_F, the
    SVD is taken only for a gap within _EPS_FLOOR ||A||_F, the only gaps the
    floor can decide; 1% to spare covers the rounding of both norms. The
    sigma_max(A) it takes goes to the list ``floor``, if one is given."""
    if gap <= EP_GAP_TOL * (1.0 + abs(mean)):
        return True
    frobenius = math.sqrt(np.vdot(a, a).real)     # inf, silently, where it overflows
    if not gap <= 1.01 * _EPS_FLOOR * frobenius:
        return False
    sigma_max = float(np.linalg.svd(a, compute_uv=False)[0])
    if floor is not None:
        floor.append(sigma_max)
    return gap <= _EPS_FLOOR * sigma_max


def _contains(fam, p) -> bool:
    """Whether ``p`` lies in the domain of ``fam``: the removed ``MatrixFamily.contains``."""
    p = fam._point(p)
    return fam.domain_guard is None or bool(fam.domain_guard(p))


# overflow is refused as DimensionError or a non-finite point, not warned about
@np.errstate(over="ignore", invalid="ignore")
def find_ep(fam: family_mod.MatrixFamily, p_guess) -> EPSearchResult:
    """Newton search for an exceptional point of a two-parameter family.

    Iterates on the analytic scalar z(p) = ((lam_plus - lam_minus)/2)^2 whose
    first-order model is <f, dp> + i <g, dp>; the Jacobian columns f + i g are
    recomputed each step from the approximate chain of the tracked pair.
    Damped with step halving (up to 10 halvings per step), at most
    ``DEFAULT_MAX_ITER`` steps.

    Convergence: pair gap below max(EP_GAP_TOL * (1 + |mean|), eigensolver noise
    floor 2 sqrt(eps) sigma_max(A)); at a defective matrix the computed pair
    gap saturates near sqrt(eps)||A|| even though the parameter error is many
    orders smaller (the squared half-gap is linear in dp near the EP).

    The converged point is classified at the pair mean: a DP, or a double
    eigenvalue ``classify`` refuses, or an undecidable rank raises
    ClassificationError naming p_star.
    """
    if fam.n_params != 2:
        raise ConvergenceError("find_ep requires a two-parameter family")
    p = fam._point(p_guess)
    # without a guard, evaluate's own point check is all that _contains() adds
    guarded = fam.domain_guard is not None

    def probe(point, prev=None):
        """The iterate's matrix, pair, mean, squared half-gap, gap, convergence
        and the floor test's sigma_max(A) (None if untaken); the first probe takes
        the nearest pair, which must stand apart, later ones the previous pair's match."""
        a = family_mod.evaluate(fam, point)
        values = numkit.eigvals(a)
        if prev is None:
            pairs = _nearest_pairs(values.tolist())
            if not pairs:
                raise ConvergenceError("family dimension < 2 has no eigenvalue pairs")
            gap, i, j = pairs[0]
            _, external, third = _isolation(values, i, j)
            # only a real third eigenvalue refuses; a bound past the doubles is inf
            if third is not None and external <= 1.2 * gap:
                raise ConvergenceError(
                    f"eigenvalue pair not separated from the rest of the spectrum "
                    f"(external gap {external:.3e} vs internal {gap:.3e})"
                )
        else:
            (i,), (j,), _ = numkit.pair_assignment(values[None], [prev])
        lam_p, lam_m = values[i], values[j]
        mean = lam_p / 2.0 + lam_m / 2.0     # halves first: no overflow
        z = ((lam_p - lam_m) / 2.0) ** 2
        if not cmath.isfinite(z):
            raise DimensionError(f"the squared half-gap of the pair overflows at point "
                                 f"{point.tolist()}")
        gap = abs(lam_p - lam_m)
        floor = [None]      # _converged, evaluated before floor[-1], appends any it takes
        return a, (lam_p, lam_m), mean, z, gap, _converged(a, mean, gap, floor), floor[-1]

    a, pair, mean, z, gap, converged, sigma_max = probe(p)
    history = [gap]
    for iteration in range(DEFAULT_MAX_ITER):
        if converged:
            break
        cols = _approximate_split_gradient(fam, p, a, mean)
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
            if guarded and not _contains(fam, trial):
                continue
            a_t, pair_t, mean_t, z_t, gap_t, conv_t, sigma_t = probe(trial, prev=pair)
            if abs(z_t) < abs(z) or conv_t:
                p, a, pair, mean, z, gap, converged, sigma_max = (
                    trial, a_t, pair_t, mean_t, z_t, gap_t, conv_t, sigma_t)
                history.append(gap)
                break
        else:       # no trial step accepted
            break
        if np.linalg.norm(step) <= 1e-14 * (1.0 + np.linalg.norm(p)):
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
    raise ConvergenceError(
        f"no exceptional point within {DEFAULT_MAX_ITER} iterations "
        f"(last gap {gap:.3e})", residual_history=history,
    )


numkit = types.SimpleNamespace(as_cmatrix=as_cmatrix, eigvals=eigvals, SVD=_package_numkit.SVD,
                               pair_assignment=pair_assignment)
