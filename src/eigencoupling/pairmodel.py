"""The first-order pair model shared by exceptional and diabolic points.

Near the degenerate point p0 both regimes give the eigenvalue pair as

    lam_pm(dp) = mid(dp) +- sqrt(q(dp)),    mid = lam0 + <mean, dp>,

with a radicand q that is linear in dp at an EP (F + iG) and quadratic at a
DP (c(dp)). A local model supplies mid and q at N offsets at once through
its ``pair_terms(dps)`` method; ``sheets`` turns them into the four Re/Im
sheets and the paired eigenvalues.

Branch pairing: the +- signs of the Re and Im radicals are not independent.
The principal root w = sqrt(q) ties them, so the two eigenvalues are
mid + w and mid - w, while the sheets take Re w >= 0 and |Im w| apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError


@dataclass(frozen=True)
class PairSheets:
    """The model pair at N offsets."""

    radicand: np.ndarray      # (N,) complex: q(dp)
    root: np.ndarray          # (N,) complex: principal sqrt(q)
    sheets: np.ndarray        # (N, 4): re_plus, re_minus, im_plus, im_minus
    pair: np.ndarray          # (N, 2) complex: mid + root, mid - root


def offsets(model, dps) -> np.ndarray:
    """Parameter offsets as an (N, n) float array; one offset (n,) gives N = 1."""
    arr = np.asarray(dps, dtype=float)
    if arr.ndim < 2:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != model.n_params:
        raise DimensionError(
            f"offset must have {model.n_params} components, got {np.shape(dps)}")
    return arr


def sweep(rest, p1_span, samples) -> np.ndarray:
    """(samples, n) offsets: dp_1 on a symmetric grid, dp_2..n fixed at rest."""
    grid = np.linspace(-p1_span, p1_span, samples)
    return np.column_stack((grid, np.broadcast_to(rest, (samples, len(rest)))))


def complex_array(re, im) -> np.ndarray:
    """re + i im, exact (signed zeros included)."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def sheets(model, dps) -> PairSheets:
    """Sheets and paired eigenvalues of an EP or DP local model at offsets dps."""
    mid, radicand = model.pair_terms(offsets(model, dps))
    root = np.sqrt(radicand)
    spread = np.abs(root.imag)
    return PairSheets(
        radicand=radicand, root=root,
        sheets=np.column_stack((mid.real + root.real, mid.real - root.real,
                                mid.imag + spread, mid.imag - spread)),
        pair=np.column_stack((mid + root, mid - root)),
    )
