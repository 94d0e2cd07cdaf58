"""Parameter-dependent matrix families A(p).

A family bundles an evaluator over n real parameters with the analytic
first parameter derivatives dA/dp_i it is built with: the data A0 = A(p0) and
A1 = sum_i dA/dp_i dp_i that the first-order models at a double eigenvalue
read.

Concrete analytic families are polynomial in the parameters and are read
from a small JSON format (see ``parse_family``).
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, FamilyParseError


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
        Analytic derivative ``deriv(p, i)`` = dA/dp_i at one point (n,);
        required, since the models read dA/dp_i to first order.
    domain_guard:
        Optional predicate; points where it returns False raise DomainError.
    """

    def __init__(self, dim, n_params, evaluator, deriv, domain_guard=None):
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
        arr = np.asarray(p, dtype=float)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.shape != (self.n_params,):
            raise DimensionError(
                f"expected {self.n_params} parameters, got shape {arr.shape}"
            )
        if not all(map(math.isfinite, arr.tolist())):
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
    if not np.isfinite(pts).all():
        raise DomainError("parameter point has non-finite entries")
    return _at(fam, pts)


def derivative(fam: MatrixFamily, p, i: int) -> np.ndarray:
    """dA/dp_i at p from the family's analytic ``deriv``. Raises
    DimensionError where it has non-finite entries (overflow)."""
    pt = fam._point(p)
    if not 0 <= i < fam.n_params:
        raise DimensionError(f"parameter index {i} out of range")
    return _checked(fam._deriv(pt, i), (fam.dim, fam.dim), pt, f"dA/dp_{i}", "deriv")


@dataclass(frozen=True)
class PolynomialFamily:
    """Matrix polynomial sum_t C_t * prod_i p_i^{e_ti}; exact derivatives."""

    dim: int
    n_params: int
    terms: tuple = field(default_factory=tuple)  # of (coeff (m,m) complex, exps tuple)

    # overflow is refused by evaluate's finite check, not warned about
    @np.errstate(over="ignore", invalid="ignore")
    def value(self, p: np.ndarray) -> np.ndarray:
        """A(p) for points p of shape (..., n); broadcasts over leading axes.
        At one point (n,) each monomial is a Python float, the same product
        of the same powers in the same order."""
        p = np.asarray(p, dtype=float)
        out = np.zeros(p.shape[:-1] + (self.dim, self.dim), dtype=complex)
        term = np.empty_like(out)
        for coeff, exps in self.terms:
            powers = np.power(p, exps)
            monomial = (math.prod(powers.tolist()) if p.ndim == 1
                        else powers.prod(axis=-1)[..., None, None])
            out += np.multiply(coeff, monomial, out=term)
        return out

    # a coefficient C_t e_i that overflows is refused by derivative's check
    @np.errstate(over="ignore", invalid="ignore")
    def _partial(self, i: int):
        """The i-th partial polynomial (terms with e_i > 0, coefficient C_t
        e_i, e_i - 1), or, where all its exponents are 0, the matrix its
        ``value`` takes at every point: its coefficients summed from zeros in
        term order. (``value`` multiplies each by the monomial 1.0 first;
        that moves no bit of a finite sum started from +0.)"""
        partial = PolynomialFamily(self.dim, self.n_params, tuple(
            (coeff * exps[i], exps[:i] + (exps[i] - 1,) + exps[i + 1:])
            for coeff, exps in self.terms if exps[i] > 0))
        if any(any(exps) for _, exps in partial.terms):
            return partial
        constant = np.zeros((self.dim, self.dim), dtype=complex)
        for coeff, _ in partial.terms:
            constant += coeff
        return constant

    def to_family(self) -> MatrixFamily:
        """The MatrixFamily of ``value``; dA/dp_i is ``value`` of the i-th
        partial polynomial, built on the first dA/dp_i (see ``_partial``)."""
        partials = [None] * self.n_params

        def deriv(p, i):
            if partials[i] is None:
                partials[i] = self._partial(i)
            partial = partials[i]
            return partial.copy() if isinstance(partial, np.ndarray) else partial.value(p)

        return MatrixFamily(self.dim, self.n_params, evaluator=self.value, deriv=deriv)


def _require(cond, path, message):
    if not cond:
        raise FamilyParseError(path, message)


def _check_keys(obj, path: str, keys):
    """Refuse ``obj`` at ``path`` unless it is an object with exactly ``keys``."""
    _require(isinstance(obj, dict), path, "must be an object")
    for key in keys:
        _require(key in obj, f"{path}.{key}", f"missing required key '{key}'")
    extra = sorted(set(obj) - set(keys))
    if extra:
        raise FamilyParseError(f"{path}.{extra[0]}", "unknown key")


def _integer(x):
    """x as an int where the schema's "integer" admits it (2 and 2.0, not
    true or 2.5); None otherwise."""
    if type(x) is float and x.is_integer():
        return int(x)
    return x if type(x) is int else None


def _numbers(cells):
    return set(map(type, cells)) <= {int, float}    # not bool, str, None, list


def _doubles(cells):
    # exact for integers: one just above the largest double rounds down to it
    return all(abs(x) <= sys.float_info.max for x in cells)


def _refuse_first(mats, ok, message):
    """Raise at the first of ``mats`` (re and im of each term, in term
    order) whose entries fail ``ok``."""
    for k, rows in enumerate(mats):
        if not ok(list(itertools.chain.from_iterable(rows))):
            raise FamilyParseError(f"$.terms[{k // 2}].{('re', 'im')[k % 2]}", message)


def parse_polynomial(text: str) -> PolynomialFamily:
    """Parse the family JSON document into a PolynomialFamily.

    Schema (``schemas/family.schema.json``): {"m": int, "n": int, "terms":
    [{"exp": [int; n], "re": [[float; m]; m], "im": [[float; m]; m]}]}, no
    other keys; true and false are not numbers, integral floats such as 2.0
    are integers. Beyond the schema, every number must be a finite double
    (no 1e400, 10**400 or NaN). Violations raise FamilyParseError carrying
    the JSON path. The structure of every term is checked first, in term
    order; then the entries of all coefficient matrices at once, and only a
    failing check looks for the first matrix to blame.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FamilyParseError("$", f"not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "$", "top level must be an object")
    _check_keys(doc, "$", ("m", "n", "terms"))
    m, n = _integer(doc["m"]), _integer(doc["n"])
    _require(m is not None and m >= 1, "$.m", "must be a positive integer")
    _require(n is not None and n >= 1, "$.n", "must be a positive integer")
    _require(isinstance(doc["terms"], list), "$.terms", "must be an array")
    exps, mats = [], []     # mats: re and im of each term, in term order
    for t, raw in enumerate(doc["terms"]):
        if not (isinstance(raw, dict) and raw.keys() == {"exp", "re", "im"}):
            _check_keys(raw, f"$.terms[{t}]", ("exp", "re", "im"))
        exp = raw["exp"]
        if not (isinstance(exp, list) and len(exp) == n):
            raise FamilyParseError(f"$.terms[{t}].exp", f"must be an array of length n={n}")
        exp = tuple(map(_integer, exp))
        if not all(e is not None and 0 <= e <= sys.float_info.max for e in exp):
            raise FamilyParseError(f"$.terms[{t}].exp", "exponents must be non-negative "
                                   "integers within the double range")
        exps.append(exp)
        for key in ("re", "im"):
            rows = raw[key]
            # json.loads makes plain lists, so their types and lengths are one set each
            if not (isinstance(rows, list) and len(rows) == m
                    and set(map(type, rows)) == {list} and set(map(len, rows)) == {m}):
                raise DimensionError(f"$.terms[{t}].{key}: coefficient matrix must be {m}x{m}")
            mats.append(rows)
    cells = list(itertools.chain.from_iterable(itertools.chain.from_iterable(mats)))
    if not _numbers(cells):
        _refuse_first(mats, _numbers, "entries must be numbers")
    try:
        parts = np.array(cells, dtype=float).reshape(-1, 2, m, m)
        below = np.abs(parts).max(initial=0.0) < sys.float_info.max   # False for NaN
    except OverflowError:   # an integer beyond the largest double, which the walk names
        below = False
    if not below:           # also when an entry is the largest double, which passes
        _refuse_first(mats, _doubles, "entries must be finite doubles")
    coeffs = parts[:, 0] + 1j * parts[:, 1]
    return PolynomialFamily(dim=m, n_params=n, terms=tuple(zip(coeffs, exps)))


def parse_family(text: str) -> MatrixFamily:
    """Parse the family JSON document into an analytic MatrixFamily."""
    return parse_polynomial(text).to_family()
