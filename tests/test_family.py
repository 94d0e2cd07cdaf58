import json

import numpy as np
import pytest

from eigencoupling import family as family_mod
from eigencoupling.errors import DimensionError, DomainError, FamilyParseError
from eigencoupling.family import (
    DirectionalCurve,
    PolynomialFamily,
    derivative,
    evaluate,
    parse_family,
    parse_polynomial,
    second_derivative,
    serialize_family,
    taylor_along_curve,
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

    def test_index_range(self):
        fam = poly_family((C, (1,)))
        with pytest.raises(DimensionError):
            derivative(fam, [0.0], 1)


class TestSecondDerivative:
    def test_mixed_term(self):
        fam = poly_family((C, (1, 1)))
        assert np.allclose(second_derivative(fam, [0.3, -0.7], 0, 1), C)

    def test_constant(self):
        fam = poly_family((C, (0, 0)))
        assert np.allclose(second_derivative(fam, [0.1, 0.2], 0, 0), 0.0)

    def test_symmetry_fd(self):
        rng = np.random.default_rng(5)
        poly = random_polynomial(rng)
        fd = family_mod.MatrixFamily(poly.dim, poly.n_params, evaluator=poly.value)
        p = np.array([0.4, -0.2])
        d01 = second_derivative(fd, p, 0, 1)
        d10 = second_derivative(fd, p, 1, 0)
        assert np.linalg.norm(d01 - d10) < 1e-6 * max(np.linalg.norm(d01), 1.0)

    def test_fd_matches_analytic(self):
        rng = np.random.default_rng(6)
        poly = random_polynomial(rng)
        fd = family_mod.MatrixFamily(poly.dim, poly.n_params, evaluator=poly.value)
        p = np.array([0.25, 0.5])
        exact = poly.second(p, 0, 0)
        approx = second_derivative(fd, p, 0, 0)
        assert np.linalg.norm(exact - approx) < 1e-6 * max(np.linalg.norm(exact), 1.0)


class TestTaylorAlongCurve:
    def test_constant_family(self):
        fam = poly_family((C, (0,)))
        curve = DirectionalCurve([0.0], [1.0], [0.0])
        triple = taylor_along_curve(fam, curve)
        assert np.allclose(triple.a1, 0.0)
        assert np.allclose(triple.a2, 0.0)

    def test_pure_quadratic(self):
        fam = poly_family((C, (2,)))
        curve = DirectionalCurve([0.0], [1.0], [0.0])
        triple = taylor_along_curve(fam, curve)
        assert np.allclose(triple.a1, 0.0)
        assert np.allclose(triple.a2, 2.0 * C)

    def test_acceleration_term(self):
        fam = poly_family((C, (1,)))
        curve = DirectionalCurve([0.0], [0.0], [2.0])
        triple = taylor_along_curve(fam, curve)
        assert np.allclose(triple.a1, 0.0)
        assert np.allclose(triple.a2, 2.0 * C)

    def test_remainder_is_little_o_of_eps_squared(self):
        rng = np.random.default_rng(9)
        poly = random_polynomial(rng, max_exp=4)
        fam = poly.to_family()
        curve = DirectionalCurve([0.1, -0.2], [0.7, 0.4], [0.3, -0.5])
        triple = taylor_along_curve(fam, curve)

        def remainder(eps):
            p = curve.origin + eps * curve.velocity + 0.5 * eps ** 2 * curve.acceleration
            model = triple.a0 + eps * triple.a1 + 0.5 * eps ** 2 * triple.a2
            return np.linalg.norm(evaluate(fam, p) - model)

        r2, r3 = remainder(1e-2), remainder(1e-3)
        assert r3 < r2 * (1e-1) ** 2  # shrinks faster than eps^2


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
        again = parse_polynomial(serialize_family(fam))
        first = parse_polynomial(self.DOC)
        assert len(again.terms) == len(first.terms)
        for (ca, ea), (cb, eb) in zip(again.terms, first.terms):
            assert ea == eb
            assert np.array_equal(ca, cb)

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


def per_point_polynomial(poly, p):
    """Term-by-term sum at one point, the order the batched evaluator keeps."""
    out = np.zeros((poly.dim, poly.dim), dtype=complex)
    for coeff, exps in poly.terms:
        out += coeff * np.prod(np.power(p, exps))
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
                                      domain_guard=guard, vectorized=True)
        assert family_mod.evaluate_many(fam, [[0.0], [0.5]]).shape == (2, 2, 2)
        with pytest.raises(DomainError, match="1.5"):
            family_mod.evaluate_many(fam, [[0.0], [1.5], [0.2]])
        with pytest.raises(DomainError):
            evaluate(fam, [-2.0])

    def test_output_shape_checked(self):
        fam = family_mod.MatrixFamily(2, 1, evaluator=lambda p: np.zeros((3, 2, 2)),
                                      vectorized=True)
        with pytest.raises(DimensionError):
            family_mod.evaluate_many(fam, [[0.0], [1.0]])

    def test_per_point_evaluator_falls_back_to_a_loop(self):
        calls = []

        def evaluator(p):
            calls.append(p.shape)
            return p[0] * C

        fam = family_mod.MatrixFamily(2, 1, evaluator=evaluator,
                                      domain_guard=lambda p: p[0] < 1.0)
        batch = family_mod.evaluate_many(fam, [[0.5], [-2.0]])
        assert calls == [(1,), (1,)]
        assert np.array_equal(batch, np.array([0.5 * C, -2.0 * C]))
        with pytest.raises(DomainError):
            family_mod.evaluate_many(fam, [[0.5], [1.0]])
