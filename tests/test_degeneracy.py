import numpy as np
import pytest

from eigencoupling import degeneracy, numkit
from eigencoupling import family as family_mod
from eigencoupling.errors import (
    ClassificationError,
    ConvergenceError,
    IndeterminateRankError,
    MultiplicityError,
    TrackingError,
)
from eigencoupling.numkit import hermitian_inner

CRYSTAL_A0 = np.array([
    [3.0, 1j, 2j],
    [1j, 1.0, -1j],
    [0.0, 0.0, 0.0],
])
# hand-derived chain of the first builtin crystal at its exceptional direction
REF_U0 = np.array([1j, -1.0, 0.0])
REF_U1 = np.array([0.0, 1.0, 0.0])
REF_V0 = np.array([1j, 1.0, 1.0 + 0.5j])
REF_V1 = np.array([1j, 0.0, 0.5 - 0.25j])

JORDAN_2 = np.array([[2.0, 1.0], [0.0, 2.0]])


def chain_residuals(a, chain):
    m = a.shape[0]
    shifted = a - chain.lam0 * np.eye(m)
    adj = shifted.conj().T
    return (
        np.linalg.norm(shifted @ chain.u0),
        np.linalg.norm(shifted @ chain.u1 - chain.u0),
        np.linalg.norm(adj @ chain.v0),
        np.linalg.norm(adj @ chain.v1 - chain.v0),
        abs(hermitian_inner(chain.u1, chain.v0) - 1.0),
        abs(hermitian_inner(chain.u1, chain.v1)),
    )


class TestFindDoubleEigenvalues:
    def test_tight_pair(self):
        clusters = degeneracy.find_double_eigenvalues(
            np.diag([1.0, 1.0 + 1e-12, 5.0]), 1e-8)
        assert len(clusters) == 1
        assert clusters[0].center == pytest.approx(1.0)
        assert clusters[0].external_gap == pytest.approx(4.0)

    def test_crystal_cluster_excludes_zero(self):
        clusters = degeneracy.find_double_eigenvalues(CRYSTAL_A0)
        assert len(clusters) == 1
        assert clusters[0].center == pytest.approx(2.0, abs=1e-7)
        assert clusters[0].external_gap == pytest.approx(2.0, abs=1e-7)

    def test_separated_spectrum(self):
        assert degeneracy.find_double_eigenvalues(np.diag([1.0, 2.0, 3.0]), 1e-8) == []

    def test_triple_coincidence_rejected(self):
        with pytest.raises(MultiplicityError):
            degeneracy.find_double_eigenvalues(
                np.diag([1.0, 1.0 + 1e-9, 1.0 + 2e-9]), 1e-8)


class TestClassify:
    def test_jordan_block(self):
        kind = degeneracy.classify(JORDAN_2, 2.0)
        assert kind.kind == "EP"
        assert kind.geometric_multiplicity == 1

    def test_semisimple(self):
        kind = degeneracy.classify(2.0 * np.eye(2), 2.0)
        assert kind.kind == "DP"
        assert kind.geometric_multiplicity == 2

    def test_crystal_two_is_dp(self, crystal2):
        a = family_mod.evaluate(crystal2, [0.0, 0.0])
        assert degeneracy.classify(a, 1 + 5j).kind == "DP"

    def test_indeterminate_rank(self):
        with pytest.raises(IndeterminateRankError) as err:
            degeneracy.classify(np.diag([1.0, 3e-8]), 0.0)
        assert len(err.value.singular_values) == 2

    def test_stability_under_tiny_perturbations(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            noise = 1e-12 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            ep = JORDAN_2 + noise
            values = np.linalg.eigvals(ep)
            assert degeneracy.classify(ep, values.mean()).kind == "EP"
            dp = 2.0 * np.eye(2) + noise
            values = np.linalg.eigvals(dp)
            assert degeneracy.classify(dp, values.mean()).kind == "DP"


class TestJordanChain:
    def test_two_by_two_block(self):
        chain = degeneracy.jordan_chain(JORDAN_2, 2.0)
        assert np.allclose(chain.u0, [1.0, 0.0])
        assert np.allclose(chain.u1, [0.0, 1.0])
        assert np.allclose(chain.v0, [0.0, 1.0])
        assert np.allclose(chain.v1, [1.0, 0.0])

    def test_crystal_chain_relations(self, ep_chain):
        a0, cluster, chain = ep_chain
        norm_a = np.linalg.norm(a0, 2)
        assert max(chain_residuals(a0, chain)) <= 1e-8 * norm_a

    def test_known_vectors_satisfy_relations(self):
        chain = degeneracy.JordanChain(
            lam0=2.0, u0=REF_U0, u1=REF_U1, v0=REF_V0, v1=REF_V1)
        assert max(chain_residuals(CRYSTAL_A0, chain)) <= 1e-12

    def test_embedded_jordan_block(self):
        lam0, mu = 1.5 - 0.5j, 7.0
        a = np.array([
            [lam0, 1.0, 0.0],
            [0.0, lam0, 0.0],
            [0.0, 0.0, mu],
        ])
        chain = degeneracy.jordan_chain(a, lam0)
        assert np.allclose(chain.u0, [1.0, 0.0, 0.0])
        assert np.allclose(chain.u1, [0.0, 1.0, 0.0])
        assert np.allclose(chain.v0, [0.0, 1.0, 0.0])
        assert np.allclose(chain.v1, [1.0, 0.0, 0.0])

    def test_dp_input_rejected(self):
        with pytest.raises(ClassificationError):
            degeneracy.jordan_chain(2.0 * np.eye(2), 2.0)

    def test_gauge_invariance_of_split_coefficient(self, ep_chain):
        a0, cluster, chain = ep_chain
        rng = np.random.default_rng(23)
        m = a0.shape[0]
        shifted = a0 - chain.lam0 * np.eye(m)
        for _ in range(5):
            a1 = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            reference = hermitian_inner(a1 @ chain.u0, chain.v0)
            theta = rng.uniform(0.0, 2 * np.pi)
            u0 = chain.u0 * np.exp(1j * theta)
            u1 = numkit.solve_on_complement(shifted, u0)
            v0 = numkit.null_vector(shifted.conj().T)
            v0 = v0 * np.conj(1.0 / hermitian_inner(u1, v0))
            rescaled = hermitian_inner(a1 @ u0, v0)
            assert abs(rescaled - reference) < 1e-10


class TestDPFrame:
    def frame_residuals(self, a, frame):
        m = a.shape[0]
        shifted = a - frame.lam0 * np.eye(m)
        adj = shifted.conj().T
        pairs = [
            np.linalg.norm(shifted @ frame.u1), np.linalg.norm(shifted @ frame.u2),
            np.linalg.norm(adj @ frame.v1), np.linalg.norm(adj @ frame.v2),
            abs(hermitian_inner(frame.u1, frame.v1) - 1.0),
            abs(hermitian_inner(frame.u2, frame.v2) - 1.0),
            abs(hermitian_inner(frame.u1, frame.v2)),
            abs(hermitian_inner(frame.u2, frame.v1)),
        ]
        return max(pairs)

    def test_scalar_matrix(self):
        frame = degeneracy.dp_frame(2.0 * np.eye(2), 2.0)
        assert self.frame_residuals(2.0 * np.eye(2), frame) < 1e-12

    def test_block_diagonal(self):
        a = np.diag([3.0 + 1j, 3.0 + 1j, 7.0])
        frame = degeneracy.dp_frame(a, 3.0 + 1j)
        assert self.frame_residuals(a, frame) < 1e-12
        span = np.column_stack((frame.u1, frame.u2))
        assert np.linalg.norm(span[2, :]) < 1e-12

    def test_crystal_two_frame(self, dp_frame_pinned):
        a0, cluster, frame = dp_frame_pinned
        assert self.frame_residuals(a0, frame) <= 1e-8 * np.linalg.norm(a0, 2)
        # the closed-form left vectors satisfy the same invariants
        reference = degeneracy.DPFrame(
            lam0=1 + 5j,
            u1=np.array([1.0, 0.0, 0.0]), u2=np.array([0.0, 1.0, 0.0]),
            v1=np.array([1.0, 0.0, (-3 - 4j) / (1 - 5j)]),
            v2=np.array([0.0, 1.0, 2j / (1 - 5j)]),
        )
        assert self.frame_residuals(a0, reference) < 1e-12
        assert np.allclose(frame.v1, reference.v1)
        assert np.allclose(frame.v2, reference.v2)

    def test_similarity_constructed(self):
        rng = np.random.default_rng(29)
        lam0, mu = 0.5 + 2j, -1.0
        for _ in range(5):
            q = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 3 * np.eye(3)
            a = q @ np.diag([lam0, lam0, mu]) @ np.linalg.inv(q)
            frame = degeneracy.dp_frame(a, lam0)
            assert self.frame_residuals(a, frame) <= 1e-8 * np.linalg.norm(a, 2)

    def test_ep_input_rejected(self):
        with pytest.raises(ClassificationError):
            degeneracy.dp_frame(JORDAN_2, 2.0)


class TestCodimension:
    TABLE = {
        ("real-symmetric", "DP"): 2,
        ("real-symmetric", "EP"): None,
        ("real-nonsymmetric", "DP"): 3,
        ("real-nonsymmetric", "EP"): 1,
        ("Hermitian", "DP"): 3,
        ("Hermitian", "EP"): None,
        ("complex-symmetric", "DP"): 4,
        ("complex-symmetric", "EP"): 2,
        ("complex-nonsymmetric", "DP"): 6,
        ("complex-nonsymmetric", "EP"): 2,
    }

    def test_all_entries(self):
        for (matrix_type, kind), expected in self.TABLE.items():
            assert degeneracy.codimension(matrix_type, kind) == expected

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            degeneracy.codimension("quaternionic", "EP")


def toy_family():
    # A(p) = [[0, 1], [p1 + i p2, 0]] with exceptional point at the origin
    return family_mod.MatrixFamily(
        2, 2,
        evaluator=lambda p: np.array([[0.0, 1.0], [p[0] + 1j * p[1], 0.0]]),
        deriv=lambda p, i: (np.array([[0.0, 0.0], [1.0, 0.0]]) if i == 0
                            else np.array([[0.0, 0.0], [1j, 0.0]])),
        second_deriv=lambda p, i, j: np.zeros((2, 2), dtype=complex),
    )


class TestFindEP:
    def test_crystal_from_nearby_guess(self, crystal1):
        result = degeneracy.find_ep(crystal1, [0.05, -0.03])
        assert np.linalg.norm(result.p_star) <= 1e-10
        assert result.iterations <= 20
        assert result.lam0 == pytest.approx(2.0, abs=1e-6)
        # residuals should drop fast (quadratic-like tail)
        assert result.residual_history[-1] < 1e-6 * result.residual_history[0]

    def test_toy_family(self):
        result = degeneracy.find_ep(toy_family(), [0.2, 0.1])
        assert np.linalg.norm(result.p_star) <= 1e-10

    def test_pair_selector(self, crystal1):
        # selecting the pair nearest a target eigenvalue
        result = degeneracy.find_ep(crystal1, [0.05, -0.03], which=2.0)
        assert np.linalg.norm(result.p_star) <= 1e-10
        assert result.lam0 == pytest.approx(2.0, abs=1e-6)

    def test_start_at_ep(self):
        result = degeneracy.find_ep(toy_family(), [0.0, 0.0])
        assert result.iterations <= 1
        assert np.allclose(result.p_star, [0.0, 0.0])

    def test_ambiguous_pair_rejected(self):
        # third eigenvalue sits within 1.2x of the tightest pair's gap
        fam = family_mod.MatrixFamily(
            3, 2, evaluator=lambda p: np.diag([0.0, 1.0, 1.05j]))
        with pytest.raises(TrackingError):
            degeneracy.find_ep(fam, [0.0, 0.0])

    def test_far_guess_does_not_converge(self, crystal1):
        # greedy pair selection at (0.2, 0.1) latches onto the wrong pair
        with pytest.raises(ConvergenceError):
            degeneracy.find_ep(crystal1, [0.2, 0.1])

    def test_iteration_cap(self, crystal1):
        with pytest.raises(ConvergenceError) as err:
            degeneracy.find_ep(crystal1, [0.05, -0.03], max_iter=1)
        assert len(err.value.residual_history) >= 1


def planted_scalar_dp(lam0=0.3 - 0.7j):
    """A(p*) = S (lam0 I) S^-1, evaluated in floating point: A - lam0 I is
    rounding noise, not zero."""
    rng = np.random.default_rng(11)
    s = np.eye(2) + 0.25 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return s @ (lam0 * np.eye(2)) @ np.linalg.inv(s)


class TestDPFrameScalarMatrix:
    def test_frame_at_rounded_scalar_matrix(self):
        a = planted_scalar_dp()
        cluster = degeneracy.find_double_eigenvalues(a)[0]
        assert degeneracy.classify(a, cluster.center).kind == "DP"
        frame = degeneracy.dp_frame(a, cluster.center)
        gram = np.array([[hermitian_inner(u, v) for u in (frame.u1, frame.u2)]
                         for v in (frame.v1, frame.v2)])
        assert np.allclose(gram, np.eye(2), atol=1e-12)
