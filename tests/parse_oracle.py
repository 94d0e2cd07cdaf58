"""Term-by-term oracle for the family parser.

``family.parse_family`` checks and converts the coefficient matrices of a whole
document at once; this copy of the earlier parser checks and converts them
one matrix at a time, in term order. Tests compare the two on valid and
defective documents.
"""

import itertools
import json
import sys

import numpy as np

from eigencoupling.errors import DimensionError, FamilyParseError
from eigencoupling.family import PolynomialFamily


def _require(cond, path, message):
    if not cond:
        raise FamilyParseError(path, message)


def _only_keys(obj: dict, path: str, keys):
    extra = sorted(set(obj) - set(keys))
    if extra:
        raise FamilyParseError(f"{path}.{extra[0]}", "unknown key")


def _integer(x):
    if type(x) is float and x.is_integer():
        return int(x)
    return x if type(x) is int else None


def parse_polynomial_per_term(text: str) -> PolynomialFamily:
    """The family JSON document as a PolynomialFamily, every term checked in
    full (structure, then each matrix's types and range) before the next."""
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
                raise DimensionError(f"{path}.{key}: coefficient matrix must be {m}x{m}")
            _require(set(map(type, itertools.chain.from_iterable(rows))) <= {int, float},
                     f"{path}.{key}", "entries must be numbers")
            try:
                part = np.array(rows, dtype=float)
                below = np.abs(part).max() < sys.float_info.max  # False for NaN
            except OverflowError:  # an integer that rounds beyond the largest double
                below = False
            _require(below or all(abs(x) <= sys.float_info.max
                                  for x in itertools.chain.from_iterable(rows)),
                     f"{path}.{key}", "entries must be finite doubles")
            parts.append(part)
        coeff = parts[0] + 1j * parts[1]
        terms.append((coeff, tuple(exps)))
    return PolynomialFamily(dim=m, n_params=n, terms=tuple(terms))
