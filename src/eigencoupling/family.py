"""Parameter-dependent matrix families A(p).

A family bundles an evaluator over n real parameters with first and second
parameter derivatives (analytic when available, 4th-order central finite
differences otherwise) and Taylor data A0, A1, A2 along parametrized curves
p(eps), where

    A(p(eps)) = A0 + eps*A1 + eps^2/2 * A2 + o(eps^2),
    A1 = sum_i dA/dp_i * dp_i/deps,
    A2 = sum_i dA/dp_i * d2p_i/deps2 + sum_{i,j} d2A/dp_i dp_j * dp_i' dp_j'.

Concrete analytic families are polynomial in the parameters and can be read
from / written to a small JSON format (see ``parse_family``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionError, DomainError, FamilyParseError

#: Relative finite-difference step; balances truncation vs roundoff at 4th order.
FD_STEP = 1e-5


@dataclass(frozen=True)
class DirectionalCurve:
    """Curve p(eps) through ``origin`` with given velocity and acceleration."""

    origin: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray

    def __post_init__(self):
        for name in ("origin", "velocity", "acceleration"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise DimensionError(f"curve {name} has non-finite entries")
            object.__setattr__(self, name, arr)
        if not (self.origin.shape == self.velocity.shape == self.acceleration.shape):
            raise DimensionError("curve fields must have matching lengths")


@dataclass(frozen=True)
class TaylorTriple:
    """Matrices A0, A1, A2 of the expansion along a curve."""

    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray


class MatrixFamily:
    """Evaluator of an m x m complex matrix over n real parameters.

    Parameters
    ----------
    dim:
        Matrix dimension m.
    n_params:
        Number of real parameters n.
    evaluator:
        Callable p -> (m, m) complex array.
    deriv, second_deriv:
        Optional analytic derivatives, ``deriv(p, i)`` and
        ``second_deriv(p, i, j)``. When absent, finite differences are used.
    domain_guard:
        Optional predicate; points where it returns False raise DomainError.
    vectorized:
        True when ``evaluator`` and ``domain_guard`` broadcast over a leading
        axis: (N, n) points -> (N, m, m) matrices and N booleans. Otherwise
        ``evaluate_many`` calls them once per point.
    """

    def __init__(self, dim, n_params, evaluator,
                 deriv=None, second_deriv=None, domain_guard=None, vectorized=False):
        self.dim = int(dim)
        self.n_params = int(n_params)
        self._evaluator = evaluator
        self._deriv = deriv
        self._second_deriv = second_deriv
        self.domain_guard = domain_guard
        self.vectorized = bool(vectorized)
        if self.dim < 1 or self.n_params < 1:
            raise DimensionError("dim and n_params must be at least 1")

    def contains(self, p) -> bool:
        p = self._point(p)
        return self.domain_guard is None or bool(self.domain_guard(p))

    def _point(self, p) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(p, dtype=float))
        if arr.shape != (self.n_params,):
            raise DimensionError(
                f"expected {self.n_params} parameters, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise DomainError("parameter point has non-finite entries")
        return arr


def _checked(a, shape) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.shape != shape:
        raise DimensionError(f"evaluator returned shape {a.shape}, expected {shape}")
    return a


def evaluate(fam: MatrixFamily, p) -> np.ndarray:
    """A(p). Raises DomainError outside the family's validity domain."""
    pt = fam._point(p)
    if fam.vectorized:
        return evaluate_many(fam, pt[None])[0]
    if not fam.contains(pt):
        raise DomainError(f"point {pt.tolist()} outside the family domain")
    return _checked(fam._evaluator(pt), (fam.dim, fam.dim))


def evaluate_many(fam: MatrixFamily, points) -> np.ndarray:
    """A(p) at every row of an (N, n) point array, as an (N, m, m) array.

    Makes the checks of ``evaluate`` at every point. Vectorized families are
    evaluated in one call; the others point by point.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != fam.n_params:
        raise DimensionError(
            f"expected points of shape (N, {fam.n_params}), got shape {pts.shape}")
    if not fam.vectorized:
        out = np.empty((len(pts), fam.dim, fam.dim), dtype=complex)
        for k, pt in enumerate(pts):
            out[k] = evaluate(fam, pt)
        return out
    if not np.all(np.isfinite(pts)):
        raise DomainError("parameter point has non-finite entries")
    if fam.domain_guard is not None:
        inside = np.asarray(fam.domain_guard(pts), dtype=bool)
        if not inside.all():
            bad = pts[int(np.argmin(inside))]
            raise DomainError(f"point {bad.tolist()} outside the family domain")
    return _checked(fam._evaluator(pts), (len(pts), fam.dim, fam.dim))


def _fd4(sample: Callable[[float], np.ndarray], h: float) -> np.ndarray:
    # 4th-order central stencil: (-f(2h) + 8f(h) - 8f(-h) + f(-2h)) / 12h
    return (-sample(2 * h) + 8 * sample(h) - 8 * sample(-h) + sample(-2 * h)) / (12 * h)


def derivative(fam: MatrixFamily, p, i: int) -> np.ndarray:
    """dA/dp_i at p; analytic when the family provides it, else FD4."""
    pt = fam._point(p)
    if not 0 <= i < fam.n_params:
        raise DimensionError(f"parameter index {i} out of range")
    if fam._deriv is not None:
        return np.asarray(fam._deriv(pt, i), dtype=complex)
    h = FD_STEP * max(1.0, abs(pt[i]))

    def sample(delta):
        q = pt.copy()
        q[i] += delta
        return evaluate(fam, q)

    return _fd4(sample, h)


def second_derivative(fam: MatrixFamily, p, i: int, j: int) -> np.ndarray:
    """d2A/dp_i dp_j at p (symmetric in i, j up to FD truncation)."""
    pt = fam._point(p)
    for k in (i, j):
        if not 0 <= k < fam.n_params:
            raise DimensionError(f"parameter index {k} out of range")
    if fam._second_deriv is not None:
        return np.asarray(fam._second_deriv(pt, i, j), dtype=complex)
    # nested first differences: outer FD in p_j of (dA/dp_i)
    h = FD_STEP * max(1.0, abs(pt[j]))

    def sample(delta):
        q = pt.copy()
        q[j] += delta
        return derivative(fam, q, i)

    return _fd4(sample, h)


def taylor_along_curve(fam: MatrixFamily, curve: DirectionalCurve) -> TaylorTriple:
    """A0, A1, A2 of the family along p(eps) = origin + eps*v + eps^2/2 * a."""
    p0 = fam._point(curve.origin)
    vel = curve.velocity
    acc = curve.acceleration
    a0 = evaluate(fam, p0)
    firsts = [derivative(fam, p0, i) for i in range(fam.n_params)]
    a1 = sum((firsts[i] * vel[i] for i in range(fam.n_params)),
             start=np.zeros_like(a0))
    a2 = sum((firsts[i] * acc[i] for i in range(fam.n_params)),
             start=np.zeros_like(a0))
    for i in range(fam.n_params):
        for j in range(fam.n_params):
            if vel[i] == 0.0 or vel[j] == 0.0:
                continue
            a2 = a2 + second_derivative(fam, p0, i, j) * vel[i] * vel[j]
    return TaylorTriple(a0=a0, a1=a1, a2=a2)


@dataclass(frozen=True)
class PolynomialFamily:
    """Matrix polynomial sum_t C_t * prod_i p_i^{e_ti}; exact derivatives."""

    dim: int
    n_params: int
    terms: tuple = field(default_factory=tuple)  # of (coeff (m,m) complex, exps tuple)

    def value(self, p: np.ndarray) -> np.ndarray:
        """A(p) for points p of shape (..., n); broadcasts over leading axes."""
        p = np.asarray(p, dtype=float)
        out = np.zeros(p.shape[:-1] + (self.dim, self.dim), dtype=complex)
        term = np.empty_like(out)
        for coeff, exps in self.terms:
            out += np.multiply(coeff, np.prod(np.power(p, exps), axis=-1)[..., None, None],
                               out=term)
        return out

    def deriv(self, p: np.ndarray, i: int) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for coeff, exps in self.terms:
            if exps[i] == 0:
                continue
            shifted = list(exps)
            shifted[i] -= 1
            out += coeff * exps[i] * np.prod(np.power(p, shifted))
        return out

    def second(self, p: np.ndarray, i: int, j: int) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for coeff, exps in self.terms:
            shifted = list(exps)
            factor = shifted[i]
            if factor == 0:
                continue
            shifted[i] -= 1
            factor *= shifted[j]
            if factor == 0:
                continue
            shifted[j] -= 1
            out += coeff * factor * np.prod(np.power(p, shifted))
        return out

    def to_family(self) -> MatrixFamily:
        fam = MatrixFamily(
            self.dim, self.n_params,
            evaluator=self.value, deriv=self.deriv, second_deriv=self.second,
            vectorized=True,
        )
        fam.polynomial = self  # keep the term list reachable for serialization
        return fam

    def to_json_dict(self) -> dict:
        return {
            "m": self.dim,
            "n": self.n_params,
            "terms": [
                {
                    "exp": [int(e) for e in exps],
                    "re": coeff.real.tolist(),
                    "im": coeff.imag.tolist(),
                }
                for coeff, exps in self.terms
            ],
        }


def _require(cond, path, message):
    if not cond:
        raise FamilyParseError(path, message)


def parse_polynomial(text: str) -> PolynomialFamily:
    """Parse the family JSON document into a PolynomialFamily.

    Schema: {"m": int, "n": int, "terms": [{"exp": [int; n],
    "re": [[float; m]; m], "im": [[float; m]; m]}]}. Violations raise
    FamilyParseError carrying the JSON path.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FamilyParseError("$", f"not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "$", "top level must be an object")
    for key in ("m", "n", "terms"):
        _require(key in doc, f"$.{key}", f"missing required key '{key}'")
    m, n = doc["m"], doc["n"]
    _require(isinstance(m, int) and m >= 1, "$.m", "must be a positive integer")
    _require(isinstance(n, int) and n >= 1, "$.n", "must be a positive integer")
    _require(isinstance(doc["terms"], list), "$.terms", "must be an array")
    terms = []
    for t, raw in enumerate(doc["terms"]):
        path = f"$.terms[{t}]"
        _require(isinstance(raw, dict), path, "must be an object")
        for key in ("exp", "re", "im"):
            _require(key in raw, f"{path}.{key}", f"missing required key '{key}'")
        exps = raw["exp"]
        _require(
            isinstance(exps, list) and len(exps) == n,
            f"{path}.exp", f"must be an array of length n={n}",
        )
        _require(
            all(isinstance(e, int) and e >= 0 for e in exps),
            f"{path}.exp", "exponents must be non-negative integers",
        )
        parts = []
        for key in ("re", "im"):
            rows = raw[key]
            good = (
                isinstance(rows, list) and len(rows) == m
                and all(isinstance(r, list) and len(r) == m for r in rows)
            )
            if not good:
                raise DimensionError(
                    f"{path}.{key}: coefficient matrix must be {m}x{m}"
                )
            try:
                parts.append(np.asarray(rows, dtype=float))
            except (TypeError, ValueError) as exc:
                raise FamilyParseError(f"{path}.{key}", "entries must be numbers") from exc
        coeff = parts[0] + 1j * parts[1]
        terms.append((coeff, tuple(int(e) for e in exps)))
    return PolynomialFamily(dim=m, n_params=n, terms=tuple(terms))


def parse_family(text: str) -> MatrixFamily:
    """Parse the family JSON document into an analytic MatrixFamily."""
    return parse_polynomial(text).to_family()


def serialize_family(fam) -> str:
    """Serialize a polynomial-backed family back to its JSON document."""
    poly = fam if isinstance(fam, PolynomialFamily) else getattr(fam, "polynomial", None)
    if poly is None:
        raise DimensionError("only polynomial-backed families can be serialized")
    return json.dumps(poly.to_json_dict(), sort_keys=True)
