"""Parameter-dependent matrix families A(p).

A family bundles an evaluator over n real parameters with the first
parameter derivatives dA/dp_i (analytic when available, 4th-order central
finite differences otherwise): the data A0 = A(p0) and A1 = sum_i dA/dp_i dp_i
that the first-order models at a double eigenvalue read.

Concrete analytic families are polynomial in the parameters and are read
from a small JSON format (see ``parse_family``).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, FamilyParseError

#: Relative finite-difference step; balances truncation vs roundoff at 4th order.
FD_STEP = 1e-5


class MatrixFamily:
    """Evaluator of an m x m complex matrix over n real parameters.

    Parameters
    ----------
    dim:
        Matrix dimension m.
    n_params:
        Number of real parameters n.
    evaluator:
        Callable p -> A(p). It and the guard broadcast over leading axes:
        ``evaluate`` calls them on one point (n,), ``evaluate_many`` once on
        an (N, n) block ((N, m, m) matrices, N booleans). An evaluator of
        single points only serves everything but ``evaluate_many``.
    deriv:
        Optional analytic derivative ``deriv(p, i)`` at one point. When
        absent, finite differences are used.
    domain_guard:
        Optional predicate; points where it returns False raise DomainError.
    """

    def __init__(self, dim, n_params, evaluator, deriv=None, domain_guard=None):
        self.dim = int(dim)
        self.n_params = int(n_params)
        self._evaluator = evaluator
        self._deriv = deriv
        self.domain_guard = domain_guard
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


def _checked(a, shape, points, name="A(p)", source="evaluator") -> np.ndarray:
    """``name`` at ``points`` ((n,) or (N, n)), as ``source`` returned it,
    refused unless it has the expected shape and finite entries."""
    a = np.asarray(a, dtype=complex)
    if a.shape != shape:
        raise DimensionError(f"{source} returned shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        finite = np.isfinite(a).all(axis=(-2, -1)).ravel()
        bad = np.reshape(points, (-1, points.shape[-1]))[int(np.argmin(finite))]
        raise DimensionError(f"{name} has non-finite entries at point {bad.tolist()}")
    return a


def _at(fam: MatrixFamily, points) -> np.ndarray:
    """A(p) at finite ``points`` of shape (n,) or (N, n): the domain guard,
    one evaluator call and the output check."""
    if fam.domain_guard is not None:
        inside = np.asarray(fam.domain_guard(points), dtype=bool)
        if not inside.all():
            bad = np.reshape(points, (-1, fam.n_params))[int(np.argmin(inside))]
            raise DomainError(f"point {bad.tolist()} outside the family domain")
    return _checked(fam._evaluator(points), points.shape[:-1] + (fam.dim, fam.dim), points)


def evaluate(fam: MatrixFamily, p) -> np.ndarray:
    """A(p). Raises DomainError outside the family's validity domain and
    DimensionError where A(p) has non-finite entries (overflow)."""
    return _at(fam, fam._point(p))


def evaluate_many(fam: MatrixFamily, points) -> np.ndarray:
    """A(p) at every row of an (N, n) point array, as an (N, m, m) array,
    from one evaluator call; makes the checks of ``evaluate`` at every point."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != fam.n_params:
        raise DimensionError(
            f"expected points of shape (N, {fam.n_params}), got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise DomainError("parameter point has non-finite entries")
    return _at(fam, pts)


def derivative(fam: MatrixFamily, p, i: int) -> np.ndarray:
    """dA/dp_i at p; analytic when the family provides it, else FD4. Raises
    DimensionError where it has non-finite entries (overflow)."""
    pt = fam._point(p)
    if not 0 <= i < fam.n_params:
        raise DimensionError(f"parameter index {i} out of range")
    if fam._deriv is not None:
        return _checked(fam._deriv(pt, i), (fam.dim, fam.dim), pt, f"dA/dp_{i}", "deriv")
    h = FD_STEP * max(1.0, abs(pt[i]))

    def sample(delta):
        q = pt.copy()
        q[i] += delta
        return evaluate(fam, q)

    # 4th-order central stencil: (-f(2h) + 8f(h) - 8f(-h) + f(-2h)) / 12h
    return (-sample(2 * h) + 8 * sample(h) - 8 * sample(-h) + sample(-2 * h)) / (12 * h)


@dataclass(frozen=True)
class PolynomialFamily:
    """Matrix polynomial sum_t C_t * prod_i p_i^{e_ti}; exact derivatives."""

    dim: int
    n_params: int
    terms: tuple = field(default_factory=tuple)  # of (coeff (m,m) complex, exps tuple)

    # overflow is refused by evaluate's finite check, not warned about
    @np.errstate(over="ignore", invalid="ignore")
    def value(self, p: np.ndarray) -> np.ndarray:
        """A(p) for points p of shape (..., n); broadcasts over leading axes."""
        p = np.asarray(p, dtype=float)
        out = np.zeros(p.shape[:-1] + (self.dim, self.dim), dtype=complex)
        term = np.empty_like(out)
        for coeff, exps in self.terms:
            out += np.multiply(coeff, np.prod(np.power(p, exps), axis=-1)[..., None, None],
                               out=term)
        return out

    @np.errstate(over="ignore", invalid="ignore")
    def to_family(self) -> MatrixFamily:
        """The MatrixFamily of ``value``; dA/dp_i is ``value`` of the i-th
        partial polynomial (terms with e_i > 0, coefficient C_t e_i, e_i - 1)."""
        partials = [
            PolynomialFamily(self.dim, self.n_params, tuple(
                (coeff * exps[i], exps[:i] + (exps[i] - 1,) + exps[i + 1:])
                for coeff, exps in self.terms if exps[i] > 0))
            for i in range(self.n_params)
        ]
        return MatrixFamily(self.dim, self.n_params, evaluator=self.value,
                            deriv=lambda p, i: partials[i].value(p))


def _require(cond, path, message):
    if not cond:
        raise FamilyParseError(path, message)


def _only_keys(obj: dict, path: str, keys):
    extra = sorted(set(obj) - set(keys))
    if extra:
        raise FamilyParseError(f"{path}.{extra[0]}", "unknown key")


def _integer(x):
    """x as an int where the schema's "integer" admits it (2 and 2.0, not
    true or 2.5); None otherwise."""
    if type(x) is float and x.is_integer():
        return int(x)
    return x if type(x) is int else None


def parse_polynomial(text: str) -> PolynomialFamily:
    """Parse the family JSON document into a PolynomialFamily.

    Schema (``schemas/family.schema.json``): {"m": int, "n": int, "terms":
    [{"exp": [int; n], "re": [[float; m]; m], "im": [[float; m]; m]}]}, no
    other keys; true and false are not numbers, integral floats such as 2.0
    are integers. Beyond the schema, every number must be a finite double
    (no 1e400, 10**400 or NaN). Violations raise FamilyParseError carrying
    the JSON path.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FamilyParseError("$", f"not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "$", "top level must be an object")
    for key in ("m", "n", "terms"):
        _require(key in doc, f"$.{key}", f"missing required key '{key}'")
    _only_keys(doc, "$", ("m", "n", "terms"))
    m, n = _integer(doc["m"]), _integer(doc["n"])
    _require(m is not None and m >= 1, "$.m", "must be a positive integer")
    _require(n is not None and n >= 1, "$.n", "must be a positive integer")
    _require(isinstance(doc["terms"], list), "$.terms", "must be an array")
    terms = []
    for t, raw in enumerate(doc["terms"]):
        path = f"$.terms[{t}]"
        _require(isinstance(raw, dict), path, "must be an object")
        for key in ("exp", "re", "im"):
            _require(key in raw, f"{path}.{key}", f"missing required key '{key}'")
        _only_keys(raw, path, ("exp", "re", "im"))
        _require(
            isinstance(raw["exp"], list) and len(raw["exp"]) == n,
            f"{path}.exp", f"must be an array of length n={n}",
        )
        exps = [_integer(e) for e in raw["exp"]]
        _require(
            all(e is not None and 0 <= e <= sys.float_info.max for e in exps),
            f"{path}.exp", "exponents must be non-negative integers within the double range",
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
            _require(all(type(x) in (int, float) for row in rows for x in row),
                     f"{path}.{key}", "entries must be numbers")
            _require(all(abs(x) <= sys.float_info.max for row in rows for x in row),
                     f"{path}.{key}", "entries must be finite doubles")
            parts.append(np.asarray(rows, dtype=float))
        coeff = parts[0] + 1j * parts[1]
        terms.append((coeff, tuple(exps)))
    return PolynomialFamily(dim=m, n_params=n, terms=tuple(terms))


def parse_family(text: str) -> MatrixFamily:
    """Parse the family JSON document into an analytic MatrixFamily."""
    return parse_polynomial(text).to_family()
