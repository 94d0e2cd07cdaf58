import gc
import json
import math
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigencoupling import family as family_mod
from eigencoupling.errors import DimensionError, DomainError, FamilyParseError
from eigencoupling.family import (
    PolynomialFamily,
    derivative,
    evaluate,
    parse_family,
)
from fd_oracle import fd_derivative
from parse_oracle import parse_polynomial_per_term

C = np.array([[1.0, 2j], [0.5, -1.0]])


def poly_family(*terms):
    m = terms[0][0].shape[0]
    n = len(terms[0][1])
    return PolynomialFamily(dim=m, n_params=n, terms=tuple(terms))


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
        fam = family_mod.MatrixFamily(2, 1, evaluator=lambda p: np.zeros((3, 3)),
                                      deriv=lambda p: [np.zeros((2, 2))])
        with pytest.raises(DimensionError):
            evaluate(fam, [0.0])

    def test_domain_guard(self):
        fam = family_mod.MatrixFamily(
            2, 1, evaluator=lambda p: np.eye(2), deriv=lambda p: [np.zeros((2, 2))],
            domain_guard=lambda p: abs(p[0]) < 1.0,
        )
        with pytest.raises(DomainError):
            evaluate(fam, [1.5])


class TestDerivative:
    def test_quadratic_power_rule(self):
        fam = poly_family((C, (2,)))
        assert np.allclose(derivative(fam, [3.0])[0], 6.0 * C)

    def test_analytic_matches_fd_on_random_families(self):
        rng = np.random.default_rng(42)
        poly = random_polynomial(rng)
        for _ in range(100):
            p = rng.uniform(-1.5, 1.5, size=poly.n_params)
            i = int(rng.integers(poly.n_params))
            exact = derivative(poly, p)[i]
            approx = fd_derivative(poly.value, p, i)
            scale = max(np.linalg.norm(exact), 1.0)
            assert np.linalg.norm(exact - approx) < 1e-6 * scale

    def test_matches_per_term_formula_bitwise(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            poly = random_polynomial(rng, m=int(rng.integers(1, 5)), n=int(rng.integers(1, 4)),
                                     n_terms=int(rng.integers(1, 7)), max_exp=5)
            for p in rng.uniform(-2.0, 2.0, size=(10, poly.n_params)):
                for i, got in enumerate(derivative(poly, p)):
                    assert got.tobytes() == per_term_derivative(poly, p, i).tobytes()

    def test_deriv_output_shape_checked(self):
        fam = family_mod.MatrixFamily(2, 1, evaluator=lambda p: np.eye(2),
                                      deriv=lambda p: [np.zeros((3, 3))])
        with pytest.raises(DimensionError, match="deriv returned shape"):
            derivative(fam, [0.0])

    def test_deriv_count_checked(self):
        """deriv must return one matrix per parameter."""
        for count in (0, 1, 3):
            fam = family_mod.MatrixFamily(2, 2, evaluator=lambda p: np.eye(2),
                                          deriv=lambda p: [np.zeros((2, 2))] * count)
            with pytest.raises(DimensionError,
                               match=f"deriv returned {count} matrices, expected 2"):
                derivative(fam, [0.0, 0.0])

    def test_one_deriv_call_per_point(self):
        """derivative hands deriv the checked point once and returns its
        matrices in parameter order."""
        calls = []

        def deriv(p):
            calls.append(p.tolist())
            return [C, 2.0 * C, 3.0 * C]

        fam = family_mod.MatrixFamily(2, 3, evaluator=lambda p: np.eye(2), deriv=deriv)
        got = derivative(fam, [0.5, 1, -2])
        assert calls == [[0.5, 1.0, -2.0]]
        assert [d.tolist() for d in got] == [C.tolist(), (2.0 * C).tolist(), (3.0 * C).tolist()]


#: coefficient entries: signed zeros, values whose sums depend on their
#: order, and values whose partial coefficients C_t e_i overflow
ENTRY = st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.1, 3.0, 1e-16, -2.5e-8, 1e308, -1e308))


@st.composite
def polynomials(draw):
    """Polynomials of up to 5 terms whose exponents are mostly 0 and 1, so
    that most partials are constant."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        cells = draw(st.lists(ENTRY, min_size=2 * m * m, max_size=2 * m * m))
        parts = np.array(cells).reshape(2, m, m)
        exps = tuple(draw(st.lists(st.sampled_from((0, 0, 1, 1, 2)), min_size=n, max_size=n)))
        terms.append((parts[0] + 1j * parts[1], exps))
    return PolynomialFamily(dim=m, n_params=n, terms=tuple(terms))


@settings(max_examples=300)
@given(polynomials(), st.lists(st.sampled_from((0.0, -0.0, 0.5, -1.5, 2.0)),
                               min_size=3, max_size=3))
def test_partials_match_value_of_the_partial_polynomial(poly, point):
    """dA/dp_i, as the family's deriv returns it (non-finite entries too),
    is bit for bit ``value`` of the i-th partial polynomial, also where the
    partial is kept as a constant matrix."""
    p = np.array(point[:poly.n_params])
    got = poly._deriv(p)
    for i in range(poly.n_params):
        with np.errstate(over="ignore", invalid="ignore"):
            partial = PolynomialFamily(poly.dim, poly.n_params, tuple(
                (coeff * exps[i], exps[:i] + (exps[i] - 1,) + exps[i + 1:])
                for coeff, exps in poly.terms if exps[i] > 0))
            want = partial.value(p)
        assert got[i].tobytes() == want.tobytes()


class TestPartials:
    def test_built_on_the_first_derivative_only(self, monkeypatch):
        """Loading and evaluating build no partial; the first derivative
        builds all of them, once."""
        built = []
        partial = PolynomialFamily._partial
        monkeypatch.setattr(PolynomialFamily, "_partial",
                            lambda self, i: built.append(i) or partial(self, i))
        fam = random_polynomial(np.random.default_rng(3), n=3)
        evaluate(fam, [0.1, 0.2, 0.3])
        family_mod.evaluate_many(fam, np.zeros((4, 3)))
        assert built == []
        for p in ([0.1, 0.2, 0.3], [-1.0, 0.5, 2.0], [0.1, 0.2, 0.3]):
            derivative(fam, p)
        assert built == [0, 1, 2]

    def test_freed_without_the_garbage_collector(self):
        """A family holds no reference to itself, so dropping the last
        reference frees it, its partials built, with the collector off."""
        fam = random_polynomial(np.random.default_rng(4))
        derivative(fam, [0.1, 0.2])
        ref = weakref.ref(fam)
        gc.disable()
        try:
            del fam
            assert ref() is None
        finally:
            gc.enable()

    def test_constant_partial_is_returned_as_a_copy(self):
        fam = poly_family((C, (0, 0)), (C, (1, 0)), (-C, (1, 0)), (2.0 * C, (0, 1)))
        first = derivative(fam, [0.5, 0.5])
        first[1][:] = 7.0
        zero, second = derivative(fam, [-3.0, 2.0])
        assert np.array_equal(second, 2.0 * C)
        assert np.array_equal(zero, np.zeros((2, 2)))

    def test_overflowing_partial_coefficient_is_refused_without_warning(self, recwarn):
        """C_t e_t overflows (1e308 x 2) when the partial is built, on the
        first dA/dp_i; the derivative refuses it and nothing warns."""
        fam = poly_family((np.full((2, 2), 1e308), (2,)), (np.full((2, 2), 1e308), (1,)))
        assert np.isfinite(evaluate(fam, [0.5])).all()
        with pytest.raises(DimensionError, match=r"dA/dp_0 has non-finite entries"):
            derivative(fam, [0.5])
        const = poly_family((np.full((2, 2), 1e308), (1,)), (np.full((2, 2), 1e308), (1,)))
        with pytest.raises(DimensionError, match=r"dA/dp_0 has non-finite entries"):
            derivative(const, [0.5])
        assert not recwarn.list


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
        assert isinstance(fam, PolynomialFamily)
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
        want = parse_family(self.DOC)
        # the schema's "integer" admits integral floats
        floats = {**good, "m": 2.0, "n": 1.0,
                  "terms": [{**term, "exp": [float(term["exp"][0])]} for term in good["terms"]]}
        for doc in (good, floats):
            jsonschema.validate(doc, schema)
            got = parse_family(json.dumps(doc))
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
        ("re", str(int(sys.float_info.max) + 1)), ("im", str(-int(sys.float_info.max) - 1)),
    ], ids=["re-int", "im-float", "re-nan", "exp-int", "re-max-plus-one", "im-max-plus-one"])
    def test_number_beyond_double_range(self, key, number):
        """Numbers no double holds (json reads 10**400 as an int, 1e400 as
        inf) are refused at their path instead of overflowing later; so is
        an integer one above the largest double, which rounds down to it."""
        rows = {"re": "[[0, 1], [0, 0]]", "im": "[[0, 0], [0, 0]]", "exp": "[1]"}
        rows[key] = rows[key].replace("1" if key != "im" else "0", number, 1)
        doc = ('{"m": 2, "n": 1, "terms": [{"exp": %(exp)s, "re": %(re)s, "im": %(im)s}]}'
               % rows)
        with pytest.raises(FamilyParseError) as err:
            parse_family(doc)
        message = ("exponents must be non-negative integers within the double range"
                   if key == "exp" else "entries must be finite doubles")
        assert str(err.value) == f"$.terms[0].{key}: {message}"

    def test_largest_double_accepted(self):
        """The largest double, as a float or as the integer it equals, parses
        to itself; the exact comparison for entries that round to it refuses
        only integers above it."""
        top = sys.float_info.max
        doc = json.dumps({"m": 2, "n": 1, "terms": [
            {"exp": [0], "re": [[top, 0], [1, 0]], "im": [[0, int(top)], [-int(top), 0]]}]})
        coeff, _ = parse_family(doc).terms[0]
        assert np.array_equal(coeff.real, [[top, 0], [1, 0]])
        assert np.array_equal(coeff.imag, [[0, top], [-top, 0]])

    @pytest.mark.parametrize("key", ["re", "im"])
    @pytest.mark.parametrize("entry", [True, None, "1", [1]],
                             ids=["true", "null", "string", "array"])
    def test_entry_not_a_number(self, key, entry):
        """An re or im entry that is not a JSON number is refused at its
        term's path."""
        doc = json.loads(self.DOC)
        doc["terms"][1][key][1][0] = entry
        with pytest.raises(FamilyParseError) as err:
            parse_family(json.dumps(doc))
        assert str(err.value) == f"$.terms[1].{key}: entries must be numbers"


TOP = sys.float_info.max
#: entries no coefficient matrix admits, and exponents (2.0 among them, which
#: is admitted) for the one defect of a generated document
BAD_ENTRIES = (True, None, "1", [1], 10**400, int(TOP) + 1, -int(TOP) - 1,
               math.nan, math.inf, -math.inf)
ODD_EXPONENTS = (2.0, True, None, "1", -1, 2.5, 10**400, math.nan, math.inf)
NUMBER = st.one_of(st.integers(-10**20, 10**20),
                   st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from((TOP, -TOP, int(TOP), -0.0)))


@st.composite
def family_documents(draw):
    """A valid family document, or one with one defect at a drawn place."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    matrix = st.lists(st.lists(NUMBER, min_size=m, max_size=m), min_size=m, max_size=m)
    term = st.fixed_dictionaries({"exp": st.lists(st.integers(0, 4), min_size=n, max_size=n),
                                  "re": matrix, "im": matrix})
    doc = {"m": m, "n": n, "terms": draw(st.lists(term, max_size=4))}
    defect = draw(st.sampled_from(("none", "entry", "exp", "ragged", "missing", "unknown")))
    if defect == "none":
        return doc
    if not doc["terms"]:
        del doc[draw(st.sampled_from(("m", "n", "terms")))]
        return doc
    raw = draw(st.sampled_from(doc["terms"]))
    key = draw(st.sampled_from(("re", "im")))
    row = draw(st.sampled_from(raw[key]))
    if defect == "entry":
        row[draw(st.integers(0, m - 1))] = draw(st.sampled_from(BAD_ENTRIES))
    elif defect == "exp":
        raw["exp"][draw(st.integers(0, n - 1))] = draw(st.sampled_from(ODD_EXPONENTS))
    elif defect == "ragged":
        row.append(0) if draw(st.booleans()) else row.pop()
    elif defect == "missing":
        del raw[draw(st.sampled_from(("exp", "re", "im")))]
    else:
        raw["note"] = 1
    return doc


def parse_outcome(parse, text):
    """The parsed terms as bytes and exponents, or the error's type and text."""
    try:
        poly = parse(text)
    except (FamilyParseError, DimensionError) as exc:
        return type(exc), str(exc)
    return poly.dim, poly.n_params, [
        (coeff.dtype, coeff.shape, coeff.tobytes(), exps, tuple(map(type, exps)))
        for coeff, exps in poly.terms]


@settings(max_examples=400)
@given(family_documents())
def test_parse_agrees_with_per_term_oracle(doc):
    """The document-wide checks and conversion of ``parse_family`` give the
    per-term parser's coefficients bit for bit, or its error."""
    text = json.dumps(doc)
    assert parse_outcome(parse_family, text) == parse_outcome(parse_polynomial_per_term, text)


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
        points = rng.uniform(-1.5, 1.5, size=(300, 3))
        batch = family_mod.evaluate_many(poly, points)
        assert batch.shape == (300, 4, 4)
        want = np.array([per_point_polynomial(poly, p) for p in points])
        assert batch.tobytes() == want.tobytes()
        singles = np.array([evaluate(poly, p) for p in points])
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
                                      deriv=lambda p: [np.zeros((2, 2))], domain_guard=guard)
        assert family_mod.evaluate_many(fam, [[0.0], [0.5]]).shape == (2, 2, 2)
        with pytest.raises(DomainError, match="1.5"):
            family_mod.evaluate_many(fam, [[0.0], [1.5], [0.2]])
        with pytest.raises(DomainError):
            evaluate(fam, [-2.0])

    def test_output_shape_checked(self):
        fam = family_mod.MatrixFamily(2, 1, evaluator=lambda p: np.zeros((3, 2, 2)),
                                      deriv=lambda p: [np.zeros((2, 2))])
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
            derivative(fam, [10.0])
        per_point = family_mod.MatrixFamily(2, 1, evaluator=lambda p: np.full((2, 2), np.inf),
                                            deriv=lambda p: [np.zeros((2, 2))])
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

        fam = family_mod.MatrixFamily(2, 1, evaluator=evaluator,
                                      deriv=lambda p: [np.zeros((2, 2))], domain_guard=guard)
        assert np.array_equal(evaluate(fam, [0.5]), 0.5 * C)
        assert calls == [("guard", (1,)), ("evaluator", (1,))]
        calls.clear()
        batch = family_mod.evaluate_many(fam, [[0.5], [-2.0], [0.25]])
        assert calls == [("guard", (3, 1)), ("evaluator", (3, 1))]
        assert np.array_equal(batch, np.array([0.5 * C, -2.0 * C, 0.25 * C]))
        with pytest.raises(DomainError, match=r"\[1.0\]"):
            family_mod.evaluate_many(fam, [[0.5], [1.0]])
