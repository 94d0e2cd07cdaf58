import json
from pathlib import Path

import numpy as np
import pytest

from eigencoupling import family as family_mod
from eigencoupling.errors import DimensionError, DomainError, FamilyParseError
from eigencoupling.family import (
    PolynomialFamily,
    derivative,
    evaluate,
    parse_family,
    parse_polynomial,
)

C = np.array([[1.0, 2j], [0.5, -1.0]])


def poly_family(*terms):
    m = terms[0][0].shape[0]
    n = len(terms[0][1])
    return PolynomialFamily(dim=m, n_params=n, terms=tuple(terms)).to_family()


def random_polynomial(rng, m=3, n=2, n_terms=4, max_exp=3):
    terms = []
    for _ in range(n_terms):
        coeff = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        exps = tuple(int(e) for e in rng.integers(0, max_exp + 1, size=n))
        terms.append((coeff, exps))
    return PolynomialFamily(dim=m, n_params=n, terms=tuple(terms))


class TestEvaluate:
    def test_constant_identity(self):
        fam = poly_family((np.eye(2, dtype=complex), (0,)))
        assert np.allclose(evaluate(fam, [3.7]), np.eye(2))

    def test_linear_term(self):
        fam = poly_family((C, (1,)))
        assert np.allclose(evaluate(fam, [2.0]), 2.0 * C)

    def test_shape_guard(self):
        fam = family_mod.MatrixFamily(2, 1, evaluator=lambda p: np.zeros((3, 3)))
        with pytest.raises(DimensionError):
            evaluate(fam, [0.0])

    def test_domain_guard(self):
        fam = family_mod.MatrixFamily(
            2, 1, evaluator=lambda p: np.eye(2),
            domain_guard=lambda p: abs(p[0]) < 1.0,
        )
        with pytest.raises(DomainError):
            evaluate(fam, [1.5])


class TestDerivative:
    def test_quadratic_power_rule(self):
        fam = poly_family((C, (2,)))
        assert np.allclose(derivative(fam, [3.0], 0), 6.0 * C)

    def test_analytic_matches_fd_on_random_families(self):
        rng = np.random.default_rng(42)
        poly = random_polynomial(rng)
        analytic = poly.to_family()
        fd = family_mod.MatrixFamily(poly.dim, poly.n_params, evaluator=poly.value)
        for _ in range(100):
            p = rng.uniform(-1.5, 1.5, size=poly.n_params)
            i = int(rng.integers(poly.n_params))
            exact = derivative(analytic, p, i)
            approx = derivative(fd, p, i)
            scale = max(np.linalg.norm(exact), 1.0)
            assert np.linalg.norm(exact - approx) < 1e-6 * scale

    def test_matches_per_term_formula_bitwise(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            poly = random_polynomial(rng, m=int(rng.integers(1, 5)), n=int(rng.integers(1, 4)),
                                     n_terms=int(rng.integers(1, 7)), max_exp=5)
            fam = poly.to_family()
            for p in rng.uniform(-2.0, 2.0, size=(10, poly.n_params)):
                for i in range(poly.n_params):
                    want = per_term_derivative(poly, p, i)
                    assert derivative(fam, p, i).tobytes() == want.tobytes()

    def test_deriv_output_shape_checked(self):
        fam = family_mod.MatrixFamily(2, 1, evaluator=lambda p: np.eye(2),
                                      deriv=lambda p, i: np.zeros((3, 3)))
        with pytest.raises(DimensionError, match="deriv returned shape"):
            derivative(fam, [0.0], 0)

    def test_index_range(self):
        fam = poly_family((C, (1,)))
        with pytest.raises(DimensionError):
            derivative(fam, [0.0], 1)


class TestParseFamily:
    DOC = json.dumps({
        "m": 2, "n": 1,
        "terms": [
            {"exp": [0], "re": [[0, 1], [0, 0]], "im": [[0, 0], [0, 0]]},
            {"exp": [1], "re": [[0, 0], [1, 0]], "im": [[0, 0], [0, 0]]},
        ],
    })

    def test_schema_round_trip(self):
        fam = parse_family(self.DOC)
        assert np.allclose(evaluate(fam, [0.25]), [[0.0, 1.0], [0.25, 0.0]])

    def test_missing_terms_path(self):
        with pytest.raises(FamilyParseError) as err:
            parse_family(json.dumps({"m": 2, "n": 1}))
        assert err.value.path == "$.terms"

    def test_exponent_length_mismatch(self):
        doc = json.dumps({
            "m": 1, "n": 2,
            "terms": [{"exp": [1], "re": [[1.0]], "im": [[0.0]]}],
        })
        with pytest.raises(FamilyParseError) as err:
            parse_family(doc)
        assert err.value.path == "$.terms[0].exp"

    def test_non_square_coefficient(self):
        doc = json.dumps({
            "m": 2, "n": 1,
            "terms": [{"exp": [0], "re": [[1.0, 0.0]], "im": [[0.0, 0.0]]}],
        })
        with pytest.raises(DimensionError):
            parse_family(doc)

    def test_invalid_json(self):
        with pytest.raises(FamilyParseError) as err:
            parse_family("{not json")
        assert err.value.path == "$"

    def test_agrees_with_schema(self):
        """Documents the schema admits parse to the same family; documents it
        refuses raise FamilyParseError at their path."""
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((Path(family_mod.__file__).parent / "schemas"
                             / "family.schema.json").read_text())
        good = json.loads(self.DOC)
        want = parse_polynomial(self.DOC)
        # the schema's "integer" admits integral floats
        floats = {**good, "m": 2.0, "n": 1.0,
                  "terms": [{**term, "exp": [float(term["exp"][0])]} for term in good["terms"]]}
        for doc in (good, floats):
            jsonschema.validate(doc, schema)
            got = parse_polynomial(json.dumps(doc))
            assert (got.dim, got.n_params) == (2, 1)
            assert all(type(e) is int for _, exps in got.terms for e in exps)
            assert np.array_equal(got.value(np.array([0.25])), want.value(np.array([0.25])))
        term = good["terms"][0]
        refused = [
            ({**good, "note": "x"}, "$.note"),
            ({**good, "m": True}, "$.m"),
            ({**good, "terms": [{**term, "exp": [True]}]}, "$.terms[0].exp"),
            ({**good, "terms": [{**term, "note": "x"}]}, "$.terms[0].note"),
            ({**good, "terms": [{**term, "re": [[0, "1"], [0, 0]]}]}, "$.terms[0].re"),
            ({**good, "terms": [{**term, "im": [[0, 0], [False, 0]]}]}, "$.terms[0].im"),
            ({**good, "n": 1.5}, "$.n"),
            ({**good, "terms": [{**term, "exp": [0.5]}]}, "$.terms[0].exp"),
        ]
        for doc, path in refused:
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(doc, schema)
            with pytest.raises(FamilyParseError) as err:
                parse_family(json.dumps(doc))
            assert err.value.path == path


    @pytest.mark.parametrize("key,number", [
        ("re", "1" + "0" * 400), ("im", "-1e400"), ("re", "NaN"), ("exp", "1" + "0" * 400),
    ], ids=["re-int", "im-float", "re-nan", "exp-int"])
    def test_number_beyond_double_range(self, key, number):
        """Numbers no double holds (json reads 10**400 as an int, 1e400 as
        inf) are refused at their path instead of overflowing later."""
        rows = {"re": "[[0, 1], [0, 0]]", "im": "[[0, 0], [0, 0]]", "exp": "[1]"}
        rows[key] = rows[key].replace("1" if key != "im" else "0", number, 1)
        doc = ('{"m": 2, "n": 1, "terms": [{"exp": %(exp)s, "re": %(re)s, "im": %(im)s}]}'
               % rows)
        with pytest.raises(FamilyParseError) as err:
            parse_family(doc)
        assert err.value.path == f"$.terms[0].{key}"


def per_point_polynomial(poly, p):
    """Term-by-term sum at one point, the order the batched evaluator keeps."""
    out = np.zeros((poly.dim, poly.dim), dtype=complex)
    for coeff, exps in poly.terms:
        out += coeff * np.prod(np.power(p, exps))
    return out


def per_term_derivative(poly, p, i):
    """dA/dp_i summed term by term at one point, with the power rule applied
    to each term in place."""
    out = np.zeros((poly.dim, poly.dim), dtype=complex)
    for coeff, exps in poly.terms:
        if exps[i] == 0:
            continue
        shifted = list(exps)
        shifted[i] -= 1
        out += coeff * exps[i] * np.prod(np.power(p, shifted))
    return out


class TestEvaluateMany:
    def test_polynomial_matches_per_point_sum_bitwise(self):
        rng = np.random.default_rng(21)
        poly = random_polynomial(rng, m=4, n=3, n_terms=6)
        fam = poly.to_family()
        points = rng.uniform(-1.5, 1.5, size=(300, 3))
        batch = family_mod.evaluate_many(fam, points)
        assert batch.shape == (300, 4, 4)
        want = np.array([per_point_polynomial(poly, p) for p in points])
        assert batch.tobytes() == want.tobytes()
        singles = np.array([evaluate(fam, p) for p in points])
        assert singles.tobytes() == want.tobytes()

    def test_empty_batch(self):
        fam = poly_family((C, (1,)))
        assert family_mod.evaluate_many(fam, np.zeros((0, 1))).shape == (0, 2, 2)

    def test_point_shape_checked(self):
        fam = poly_family((C, (1, 0)))
        for bad in (np.zeros((4, 3)), np.zeros(2), np.zeros((2, 2, 2))):
            with pytest.raises(DimensionError):
                family_mod.evaluate_many(fam, bad)

    def test_non_finite_point_rejected(self):
        fam = poly_family((C, (1,)))
        with pytest.raises(DomainError):
            family_mod.evaluate_many(fam, [[0.0], [np.nan]])

    def test_domain_guard_at_every_point(self):
        guard = lambda p: np.abs(p[..., 0]) < 1.0  # noqa: E731
        fam = family_mod.MatrixFamily(2, 1, evaluator=lambda p: np.zeros(p.shape[:-1] + (2, 2)),
                                      domain_guard=guard)
        assert family_mod.evaluate_many(fam, [[0.0], [0.5]]).shape == (2, 2, 2)
        with pytest.raises(DomainError, match="1.5"):
            family_mod.evaluate_many(fam, [[0.0], [1.5], [0.2]])
        with pytest.raises(DomainError):
            evaluate(fam, [-2.0])

    def test_output_shape_checked(self):
        fam = family_mod.MatrixFamily(2, 1, evaluator=lambda p: np.zeros((3, 2, 2)))
        with pytest.raises(DimensionError):
            family_mod.evaluate_many(fam, [[0.0], [1.0]])

    def test_overflowing_matrix_names_its_point(self, recwarn):
        fam = poly_family((C, (0,)), (C, (400,)))
        assert np.isfinite(evaluate(fam, [1.0])).all()
        with pytest.raises(DimensionError, match=r"\[10.0\]"):
            family_mod.evaluate_many(fam, [[1.0], [10.0], [-10.0]])
        with pytest.raises(DimensionError, match=r"\[-10.0\]"):
            evaluate(fam, [-10.0])
        with pytest.raises(DimensionError, match=r"dA/dp_0 .* at point \[10.0\]"):
            derivative(fam, [10.0], 0)
        per_point = family_mod.MatrixFamily(2, 1, evaluator=lambda p: np.full((2, 2), np.inf))
        with pytest.raises(DimensionError, match=r"\[0.5\]"):
            evaluate(per_point, [0.5])
        assert not recwarn.list

    def test_evaluator_called_once_per_point_or_block(self):
        """evaluate hands the evaluator and the guard one (n,) point;
        evaluate_many hands them one (N, n) block."""
        calls = []

        def evaluator(p):
            calls.append(("evaluator", p.shape))
            return p[..., 0, None, None] * C

        def guard(p):
            calls.append(("guard", p.shape))
            return p[..., 0] < 1.0

        fam = family_mod.MatrixFamily(2, 1, evaluator=evaluator, domain_guard=guard)
        assert np.array_equal(evaluate(fam, [0.5]), 0.5 * C)
        assert calls == [("guard", (1,)), ("evaluator", (1,))]
        calls.clear()
        batch = family_mod.evaluate_many(fam, [[0.5], [-2.0], [0.25]])
        assert calls == [("guard", (3, 1)), ("evaluator", (3, 1))]
        assert np.array_equal(batch, np.array([0.5 * C, -2.0 * C, 0.25 * C]))
        with pytest.raises(DomainError, match=r"\[1.0\]"):
            family_mod.evaluate_many(fam, [[0.5], [1.0]])
