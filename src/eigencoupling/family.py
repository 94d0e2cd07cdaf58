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
        Analytic derivatives ``deriv(p)``: all n matrices dA/dp_i at one point
        (n,), in parameter order; required, the models read them to first order.
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


def _inside(fam: MatrixFamily, points) -> np.ndarray:
    """Finite ``points`` ((n,) or (N, n)), refused unless the domain guard admits each."""
    if fam.domain_guard is not None:
        inside = np.asarray(fam.domain_guard(points), dtype=bool)
        if not inside.all():
            bad = np.reshape(points, (-1, fam.n_params))[int(np.argmin(inside))]
            raise DomainError(f"point {bad.tolist()} outside the family domain")
    return points


def _at(fam: MatrixFamily, points) -> np.ndarray:
    """A(p) at finite ``points`` of shape (n,) or (N, n): the domain guard,
    one evaluator call and the output check."""
    _inside(fam, points)
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


def derivative(fam: MatrixFamily, p) -> list:
    """[dA/dp_0, ..., dA/dp_{n-1}] at p from one call of the family's
    analytic ``deriv``. Raises DomainError outside the family's validity
    domain, as ``evaluate`` does, and DimensionError where ``deriv`` returns
    another count of matrices or one with non-finite entries (overflow)."""
    pt = _inside(fam, fam._point(p))
    partials = fam._deriv(pt)
    if len(partials) != fam.n_params:
        raise DimensionError(f"deriv returned {len(partials)} matrices, expected {fam.n_params}")
    return [_checked(d, (fam.dim, fam.dim), pt, f"dA/dp_{i}", "deriv")
            for i, d in enumerate(partials)]


class PolynomialFamily(MatrixFamily):
    """Matrix polynomial sum_t C_t * prod_i p_i^{e_ti}, evaluated by ``value``;
    dA/dp_i is ``value`` of the i-th partial polynomial, all n of them built
    on the first derivative (see ``_partial``)."""

    def __init__(self, dim, n_params, terms=()):
        # evaluator and deriv are methods: stored on the instance, bound methods
        # would make each family a reference cycle, left to the garbage collector
        self.dim, self.n_params, self.domain_guard = int(dim), int(n_params), None
        self.terms = tuple(terms)   # of (coeff (m,m) complex, exps tuple)
        self._partials = None

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

    _evaluator = value

    def _deriv(self, p) -> list:
        if self._partials is None:
            self._partials = [self._partial(i) for i in range(self.n_params)]
        return [partial.value(p) for partial in self._partials]

    # a coefficient C_t e_i that overflows is refused by derivative's check
    @np.errstate(over="ignore", invalid="ignore")
    def _partial(self, i: int) -> PolynomialFamily:
        """The i-th partial polynomial: terms with e_i > 0, coefficient
        C_t e_i, e_i - 1."""
        return PolynomialFamily(self.dim, self.n_params, tuple(
            (coeff * exps[i], exps[:i] + (exps[i] - 1,) + exps[i + 1:])
            for coeff, exps in self.terms if exps[i] > 0))


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


def parse_family(text: str) -> PolynomialFamily:
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
    except ValueError as exc:   # also an integer of more digits than int() reads
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
    coeffs.flags.writeable = False   # the command line shares a parsed family
    return PolynomialFamily(dim=m, n_params=n, terms=tuple(zip(coeffs, exps)))
