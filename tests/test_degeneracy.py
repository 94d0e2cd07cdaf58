import math

import numpy as np
import pytest

from eigencoupling import degeneracy, numkit
from eigencoupling import family as family_mod
from eigencoupling.errors import ClassificationError, ConvergenceError, DimensionError
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

    def test_tightest_pair_first(self):
        # eigvals sorts by (Re, Im): the tighter pair at 5 has the higher indices
        clusters = degeneracy.find_double_eigenvalues(
            np.diag([5.0 + 1e-12, 1.0, 5.0, 1.0 + 1e-9]), 1e-8)
        assert [c.center for c in clusters] == pytest.approx([5.0, 1.0])
        assert clusters[0].internal_gap < clusters[1].internal_gap

    def test_equal_gaps_go_to_the_lower_indices(self):
        h = 2.0 ** -30      # exact, so both gaps are the same double
        clusters = degeneracy.find_double_eigenvalues(np.diag([3.0, 3.0 + h, 1.0, 1.0 + h]), 1e-8)
        assert clusters[0].internal_gap == clusters[1].internal_gap == h
        assert [c.center for c in clusters] == pytest.approx([1.0, 3.0])

    @pytest.mark.parametrize("tol", [0.0, math.nan, math.inf])
    def test_rejects_bad_tolerance(self, tol):
        # a NaN threshold used to find no cluster at all
        with pytest.raises(ValueError, match="tol_cluster must be positive and finite"):
            degeneracy.find_double_eigenvalues(np.diag([1.0, 1.0, 5.0]), tol_cluster=tol)

    def test_overflowing_bounds_without_a_third_eigenvalue(self):
        # tol (1 + |lam|) and 10 tol (1 + |center|) overflow to inf; no
        # third eigenvalue lies within them, so the pair is one cluster
        for scale, tol in ((0.5, 1e308), (1e200, 1e200)):
            clusters = degeneracy.find_double_eigenvalues(
                np.array([[0.0, scale], [scale, 0.0]]), tol)
            assert [c.center for c in clusters] == [0.0]
            assert clusters[0].external_gap == np.inf

    def test_pair_arithmetic_past_the_largest_double(self):
        # the centre of a pair at 1e308 is taken from halves; a gap or a
        # distance of 2e308 fits no double and is inf
        clusters = degeneracy.find_double_eigenvalues(np.diag([1e308, 1e308, 5.0]))
        assert [c.center for c in clusters] == [1e308]
        assert degeneracy.find_double_eigenvalues(np.diag([1e308, -1e308])) == []
        clusters = degeneracy.find_double_eigenvalues(np.diag([1.0, 1.0, 1e308, -1e308]))
        assert [c.center for c in clusters] == [1.0]
        clusters = degeneracy.find_double_eigenvalues(np.diag([-1e308, -1e308, 1e308]))
        assert [c.center for c in clusters] == [-1e308]
        assert clusters[0].external_gap == np.inf

    def test_triple_coincidence_rejected(self):
        with pytest.raises(ClassificationError, match="multiplicity > 2"):
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

    def test_crystal_shifted(self):
        kind = degeneracy.classify(CRYSTAL_A0, 2.0)
        assert (kind.kind, kind.geometric_multiplicity) == ("EP", 1)

    def test_zero_matrix(self):
        with pytest.raises(ClassificationError):       # kernel dimension 3
            degeneracy.classify(np.zeros((3, 3)), 0.0)

    @pytest.mark.parametrize("tol", [0.0, math.nan, math.inf])
    def test_rejects_bad_tolerance(self, tol):
        # a NaN or infinite threshold used to call a simple eigenvalue a DP
        with pytest.raises(ValueError, match="tol_rank must be positive and finite"):
            degeneracy.classify(np.diag([0.0, 1.0]), 0.0, tol_rank=tol)

    def test_kernel_decided_against_sigma_max_of_a(self):
        """A - lam0 I is tiny next to A: its smallest singular value 1e-7
        is above 1e-8 sigma_max(A - lam0 I) but below 1e-8 sigma_max(A), so
        the kernel is one-dimensional and the chain is built on it."""
        a = np.array([[1000.0, 1e-3, 0.0], [1e-7, 1000.0, 0.0], [0.0, 0.0, 1005.0]])
        kind = degeneracy.classify(a, 1000.0)
        assert kind.kind == "EP"
        assert max(chain_residuals(a, degeneracy.jordan_chain(kind))) < 1e-5

    def test_indeterminate_rank(self):
        with pytest.raises(ClassificationError, match="within a factor 10 of the rank") as err:
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
        chain = degeneracy.jordan_chain(degeneracy.classify(JORDAN_2, 2.0))
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
        chain = degeneracy.jordan_chain(degeneracy.classify(a, lam0))
        assert np.allclose(chain.u0, [1.0, 0.0, 0.0])
        assert np.allclose(chain.u1, [0.0, 1.0, 0.0])
        assert np.allclose(chain.v0, [0.0, 1.0, 0.0])
        assert np.allclose(chain.v1, [1.0, 0.0, 0.0])

    def test_dp_input_rejected(self):
        with pytest.raises(ClassificationError):
            degeneracy.jordan_chain(degeneracy.classify(2.0 * np.eye(2), 2.0))

    def test_simple_eigenvalue_has_no_chain(self):
        # a one-dimensional kernel but no Jordan block: the unit kernel
        # vectors u0 = v0 = e1 overlap fully, so classify refuses lam0
        with pytest.raises(ClassificationError, match=r"\|\(u0, v0\)\| = 1\.000e\+00"):
            degeneracy.classify(np.diag([0.0, 1.0]), 0.0)

    def test_triple_block_chain_guard(self):
        # a 3x3 nilpotent block has (u0, v0) = (e1, e3) = 0 and passes
        # classify, but its chain u1 = e2 misses v0: (u1, v0) vanishes
        kind = degeneracy.classify(np.diag([1.0, 1.0], 1), 0.0)
        assert kind.kind == "EP"
        with np.errstate(all="raise"):
            with pytest.raises(ClassificationError, match="vanishes"):
                degeneracy.jordan_chain(kind)

    @pytest.mark.parametrize("delta, error", [
        (0.0, None), (1e-6, None), (1e-4, "within a factor 10 of the threshold"),
        (2e-3, "is a simple eigenvalue"), (0.5, "is a simple eigenvalue")],
        ids=["0.0-None", "1e-06-None", "0.0001-undecidable", "0.002-ClassificationError",
             "0.5-ClassificationError"])
    def test_simple_eigenvalue_threshold(self, delta, error):
        # eigenvalues 0 and delta: at lam0 = 0, |(u0, v0)| = delta / sqrt(1 + delta^2),
        # held against sqrt(tol_rank) = 1e-4 with a factor-10 band
        a = np.array([[0.0, 1.0], [0.0, delta]])
        if error is None:
            assert degeneracy.classify(a, 0.0).kind == "EP"
        else:
            with pytest.raises(ClassificationError, match=error) as err:
                degeneracy.classify(a, 0.0)
            # only the undecidable overlap carries the spectrum
            assert (err.value.singular_values is None) == (error == "is a simple eigenvalue")

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
            u1 = numkit.SVD(shifted).solve(u0)
            v0 = numkit.SVD(shifted.conj().T).null_vector()
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
        frame = degeneracy.dp_frame(degeneracy.classify(2.0 * np.eye(2), 2.0))
        assert self.frame_residuals(2.0 * np.eye(2), frame) < 1e-12

    def test_block_diagonal(self):
        a = np.diag([3.0 + 1j, 3.0 + 1j, 7.0])
        frame = degeneracy.dp_frame(degeneracy.classify(a, 3.0 + 1j))
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
            frame = degeneracy.dp_frame(degeneracy.classify(a, lam0))
            assert self.frame_residuals(a, frame) <= 1e-8 * np.linalg.norm(a, 2)

    def test_ep_input_rejected(self):
        with pytest.raises(ClassificationError):
            degeneracy.dp_frame(degeneracy.classify(JORDAN_2, 2.0))

    def test_pinned_vector_outside_eigenspace_refused(self, dp_frame_pinned):
        # e3 is no eigenvector of crystal-example-2's A0: ||(A0 - lam0 I) e3|| = sqrt(55)
        a0 = dp_frame_pinned[0]
        e1, e3 = np.eye(3, dtype=complex)[[0, 2]]
        with pytest.raises(ClassificationError, match=r"leaves the eigenspace.* 7\.416"):
            degeneracy.dp_frame(degeneracy.classify(a0, 1 + 5j), right_basis=[e1, e3])

    def test_pinned_basis_needs_two_rows(self, dp_frame_pinned):
        a0 = dp_frame_pinned[0]
        columns = np.eye(3, dtype=complex)[:, :2]
        with pytest.raises(ClassificationError, match="two vectors"):
            degeneracy.dp_frame(degeneracy.classify(a0, 1 + 5j), right_basis=columns)


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
        deriv=lambda p: [np.array([[0.0, 0.0], [1.0, 0.0]]),
                         np.array([[0.0, 0.0], [1j, 0.0]])],
    )


class TestFindEP:
    def test_crystal_from_nearby_guess(self, crystal1):
        result = degeneracy.find_ep(crystal1, [0.05, -0.03])
        assert np.linalg.norm(result.p_star) <= 1e-10
        assert result.iterations <= 20
        assert result.lambda0 == pytest.approx(2.0, abs=1e-6)
        # residuals should drop fast (quadratic-like tail)
        assert result.residual_history[-1] < 1e-6 * result.residual_history[0]

    def test_toy_family(self):
        result = degeneracy.find_ep(toy_family(), [0.2, 0.1])
        assert np.linalg.norm(result.p_star) <= 1e-10

    def test_start_at_ep(self):
        result = degeneracy.find_ep(toy_family(), [0.0, 0.0])
        assert result.iterations <= 1
        assert np.allclose(result.p_star, [0.0, 0.0])

    def test_ambiguous_pair_rejected(self):
        # third eigenvalue sits within 1.2x of the tightest pair's gap
        fam = family_mod.MatrixFamily(
            3, 2, evaluator=lambda p: np.diag([0.0, 1.0, 1.05j]),
            deriv=lambda p: [np.zeros((3, 3))] * 2)
        with pytest.raises(ConvergenceError, match="not separated"):
            degeneracy.find_ep(fam, [0.0, 0.0])

    def test_triple_eigenvalue_rejected(self):
        # A(p) = (p1 + i p2) I3: the nearest pair has a third eigenvalue at the
        # same value, which a match by value would not count as another one
        fam = family_mod.MatrixFamily(
            3, 2, evaluator=lambda p: (p[0] + 1j * p[1]) * np.eye(3),
            deriv=lambda p: [np.eye(3), 1j * np.eye(3)])
        with pytest.raises(ConvergenceError, match=r"not separated .* \(external gap 0.000e\+00 "
                                                   r"vs internal 0.000e\+00\)"):
            degeneracy.find_ep(fam, [0.3, 0.2])

    def test_far_guess_does_not_converge(self, crystal1):
        # greedy pair selection at (0.2, 0.1) latches onto the wrong pair;
        # after one step no full or halved step lowers |z|, and the error says so
        with pytest.raises(ConvergenceError, match=r"^no exceptional point after 1 accepted "
                                                   r"step: no full or halved Newton step inside "
                                                   r"the domain lowers \|z\| \(last gap "
                                                   r"1\.074e\+00\)$") as err:
            degeneracy.find_ep(crystal1, [0.2, 0.1])
        assert len(err.value.residual_history) == 2

    def test_iteration_cap(self, crystal1, monkeypatch):
        monkeypatch.setattr(degeneracy, "DEFAULT_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match=r"^no exceptional point within 1 "
                                                   r"iterations \(last gap") as err:
            degeneracy.find_ep(crystal1, [0.05, -0.03])
        assert len(err.value.residual_history) == 2

    def test_stalled_step(self):
        """A(p) = [[0, 1], [p1 - 1e10 + 1e-6 + i p2, 0]] has its EP at p1 =
        1e10 - 1e-6, between two doubles 1.9e-6 apart: the first step lands
        next to it, and the next is below 1e-14 (1 + |p|), so the search
        stops on the stalled step, unconverged."""
        fam = family_mod.MatrixFamily(
            2, 2, evaluator=lambda p: np.array([[0.0, 1.0], [p[0] - 1e10 + 1e-6 + 1j * p[1], 0.0]]),
            deriv=lambda p: [np.array([[0.0, 0.0], [1.0, 0.0]]),
                             np.array([[0.0, 0.0], [1j, 0.0]])])
        with pytest.raises(ConvergenceError, match=r"^no exceptional point after 1 accepted "
                                                   r"step: the Newton step stalled at \|dp\| = "
                                                   r"1\.000e-06 \(last gap 1\.905e-03\)$") as err:
            degeneracy.find_ep(fam, [1e10, 0.0])
        assert len(err.value.residual_history) == 2

    @pytest.mark.parametrize("dim,n_params", [(3, 3), (1, 2)], ids=["three-parameter", "1x1"])
    def test_family_of_another_shape_refused(self, dim, n_params):
        """The search needs a pair over a two-parameter chart: a family of
        any other shape is refused before its first evaluation."""
        fam = family_mod.MatrixFamily(
            dim, n_params, evaluator=lambda p: pytest.fail("evaluated"),
            deriv=lambda p: pytest.fail("differentiated"))
        with pytest.raises(DimensionError, match=r"^find-ep needs a two-parameter family "
                                                 r"of dimension >= 2$"):
            degeneracy.find_ep(fam, [0.0] * n_params)

    @pytest.mark.parametrize("guarded", [True, False], ids=["crystal", "toy"])
    def test_non_finite_newton_step(self, crystal1, monkeypatch, guarded):
        """A Newton step that overflows makes every trial non-finite, which
        ``evaluate`` refuses as it refuses a point outside the domain: each
        halving is refused, and the search stops unconverged, with or
        without a domain guard."""
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.array([np.inf, 0.0]))
        with pytest.raises(ConvergenceError, match=r"^no exceptional point after 0 accepted "
                                                   r"steps: no full or halved Newton step "
                                                   r"inside the domain lowers \|z\|") as err:
            degeneracy.find_ep(crystal1 if guarded else toy_family(), [0.05, -0.03])
        assert len(err.value.residual_history) == 1

    def test_floor_svd_only_where_it_can_decide(self, crystal1, monkeypatch):
        """A probe whose gap exceeds the Frobenius bound _EPS_FLOOR ||A||_F of
        the noise floor takes no SVD for it. The crystal's search converges
        through the floor, so only its last probe takes one, every accepted
        step takes one more for its Jacobian, and classifying the landing
        point one, of A - lam0 I: it reuses the floor's sigma_max(A)."""
        probes, svds = [], []       # probes: [A, took the floor SVD], in order
        eigvals, svd = numkit.eigvals, np.linalg.svd

        def recording_eigvals(a):
            probes.append([a, False])
            return eigvals(a)

        def counting_svd(*args, compute_uv=True, **kwargs):
            svds.append(1)
            if not compute_uv:      # the floor's sigma_max(A); a Jacobian takes the vectors
                probes[-1][1] = True
            return svd(*args, compute_uv=compute_uv, **kwargs)

        monkeypatch.setattr(numkit, "eigvals", recording_eigvals)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        result = degeneracy.find_ep(crystal1, [0.05, -0.03])
        gaps = result.residual_history
        assert len(probes) == len(gaps)             # every first trial accepted
        assert [took for _, took in probes] == [False] * (len(gaps) - 1) + [True]
        assert all(gap > degeneracy._EPS_FLOOR * np.linalg.norm(a)
                   for (a, _), gap in zip(probes[:-1], gaps))
        assert gaps[-1] > degeneracy.EP_GAP_TOL * (1 + abs(result.lambda0))   # the floor decided
        assert len(svds) == result.iterations + 2

    def test_landing_on_a_dp_is_refused(self, crystal2):
        """crystal-example-2's pair is double at its DP p = 0, where the
        search stops at once; from a guess nearby it converges close to it,
        where the rank cannot be decided. Neither is reported as an EP."""
        with pytest.raises(ClassificationError, match=r"converged on a DP, not an EP, "
                                                      r"at p_star = \[0\.0, 0\.0\]"):
            degeneracy.find_ep(crystal2, [0.0, 0.0])
        with pytest.raises(ClassificationError, match=r"^at p_star = \[3\.49.* within a "
                                                      r"factor 10 of the rank") as err:
            degeneracy.find_ep(crystal2, [0.05, -0.03])
        assert len(err.value.singular_values) == 3

    def test_floor_margin_on_rank_one_matrices(self):
        """For a rank-one A, sigma_max(A) = ||A||_F, and the computed norms
        differ by rounding in either direction: a gap at the floor or one ulp
        either side of it is decided as the floor decides it, on the
        sigma_max(A) the test returns."""
        rng = np.random.default_rng(7)
        norm_below = 0
        for _ in range(200):
            m = int(rng.integers(2, 6))
            u, v = rng.normal(size=(2, m)) + 1j * rng.normal(size=(2, m))
            a = np.outer(u, v.conj()) * (3 / np.linalg.norm(u) / np.linalg.norm(v))
            sigma_max = np.linalg.svd(a, compute_uv=False)[0]
            norm_below += np.linalg.norm(a) < sigma_max
            floor = degeneracy._EPS_FLOOR * sigma_max
            assert floor > degeneracy.EP_GAP_TOL        # the floor decides at mean 0
            for gap in (np.nextafter(floor, 0.0), floor, np.nextafter(floor, np.inf)):
                assert degeneracy._converged(a, 0.0, gap) == (gap <= floor, sigma_max)
        assert norm_below > 0

    def test_overflowing_frobenius_norm_defers_to_the_svd(self):
        """||A||_F overflows once an entry passes about 1e154; its infinite
        bound leaves the decision to sigma_max(A), without a warning, and the
        test returns that sigma_max(A). Where the Frobenius bound or the
        tolerance decides, it returns None for it."""
        a = np.array([[0.0, 1e160], [1e-160, 0.0]], dtype=complex)
        sigma_max = np.linalg.svd(a, compute_uv=False)[0]
        floor = degeneracy._EPS_FLOOR * sigma_max
        assert degeneracy._converged(a, 0.0, floor) == (True, sigma_max)
        assert degeneracy._converged(a, 0.0, 2.0 * floor) == (False, sigma_max)
        small = np.array([[0.0, 1.0], [1e-6, 0.0]], dtype=complex)
        assert degeneracy._converged(small, 0.0, 1.0) == (False, None)
        assert degeneracy._converged(small, 0.0, 0.0) == (True, None)

    def test_jacobian_is_the_ep_model_gradient(self, crystal1, ep_chain, ep_model):
        # at the EP the approximate chain is the Jordan chain, so the Newton
        # Jacobian columns are the squared-gap gradient F + iG of the model
        a0, cluster, _ = ep_chain
        cols = degeneracy._approximate_split_gradient(
            crystal1, np.zeros(2), a0 - cluster.center * np.eye(3))
        model = ep_model.split_re + 1j * ep_model.split_im
        assert np.abs(cols - model).max() <= 1e-12 * np.abs(model).max()


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
        frame = degeneracy.dp_frame(degeneracy.classify(a, cluster.center))
        gram = np.array([[hermitian_inner(u, v) for u in (frame.u1, frame.u2)]
                         for v in (frame.v1, frame.v2)])
        assert np.allclose(gram, np.eye(2), atol=1e-12)


def outcome(build, *args):
    """"built" when ``build(*args)`` returns, or its refusal's message."""
    try:
        build(*args)
    except ClassificationError as exc:
        return str(exc)
    return "built"


#: how the chain and frame builders' refusals start
BUILDER_REFUSALS = ("(u1, v0) vanishes", "chain residuals too large", "singular value",
                    "right_basis leaves the eigenspace", "Gram matrix")


def pipeline(a, lam0, tol_rank=degeneracy.DEFAULT_RANK_TOL, right_basis=None):
    """classify's kind, or "indeterminate" for a refusal that carries the
    singular values (an undecidable rank or overlap) and "refused" for any
    other; then the outcome of the chain or the frame (both frames at a DP
    with ``right_basis``)."""
    try:
        kind = degeneracy.classify(a, lam0, tol_rank)
    except ClassificationError as exc:
        return ["refused" if exc.singular_values is None else "indeterminate"]
    if kind.kind == "EP":
        return [kind.kind, outcome(degeneracy.jordan_chain, kind)]
    return [kind.kind, outcome(degeneracy.dp_frame, kind)] + (
        [] if right_basis is None else [outcome(degeneracy.dp_frame, kind, right_basis)])


def built(outcomes) -> bool:
    """Whether every chain or frame of ``pipeline``'s outcomes was built."""
    return len(outcomes) > 1 and all(o == "built" for o in outcomes[1:])


def planted(kind, m, seed):
    """S J S^-1 in floating point, J with the pair 0.4 - 0.3i as a Jordan
    block (EP) or twice on the diagonal (DP), the rest of its spectrum apart;
    and S's first two columns, the planted right eigenvectors."""
    rng = np.random.default_rng(seed)
    j = np.diag([PLANTED_LAM0] * 2 + [2.0 + k + 1j * k for k in range(m - 2)])
    if kind == "EP":
        j[0, 1] = 1.0
    s = np.eye(m) + 0.3 * (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    return s @ j @ np.linalg.inv(s), s[:, :2].T


#: the planted pair
PLANTED_LAM0 = 0.4 - 0.3j


class TestBoundsDecideAsTheSVD:
    """classify decides against tol_rank sigma_max(A), and the builders
    bound their residuals by _FRAME_TOL max(sigma_max(A), 1), sigma_max(A)
    from one SVD of A: at every scale, at thresholds that underflow and at
    matrices whose ||A||_F overflows."""

    @pytest.mark.parametrize("kind,m", [("EP", 3), ("DP", 3), ("EP", 5), ("DP", 4)])
    def test_planted_pairs_at_every_scale(self, kind, m, monkeypatch):
        """Scaled by 2^k, k in [-40, 40], the planted pair keeps its kind,
        classified with two SVDs: of A - lam0 I and, values only, of A. Its
        chain or both its frames are built on one run of scales about 1,
        more than 40 of them. (The chain's residual bound, absolute below
        sigma_max(A) = 1, refuses the chains of the smallest scales; rounding
        refuses those of the largest.)"""
        a, basis = planted(kind, m, seed=m)
        svd, calls, scales = np.linalg.svd, [], []
        for k in range(-40, 41):
            scaled, lam0 = a * 2.0 ** k, PLANTED_LAM0 * 2.0 ** k
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "svd", lambda *args, **kw: (
                    calls.append(kw) or svd(*args, **kw)))
                assert degeneracy.classify(scaled, lam0).kind == kind
            assert calls == [{}, {"compute_uv": False}]
            calls.clear()
            outcomes = pipeline(scaled, lam0, right_basis=basis)
            assert outcomes[0] == kind
            assert all(o == "built" or o.startswith(BUILDER_REFUSALS) for o in outcomes[1:])
            if built(outcomes):
                scales.append(k)
        assert len(scales) > 40 and 0 in scales
        assert scales == list(range(scales[0], scales[-1] + 1))

    @pytest.mark.parametrize("tol_rank", [1e-8, 1e-4])
    def test_singular_value_in_the_widened_band(self, tol_rank):
        """A - lam0 I has singular values 2, 1 and delta, sigma_max(A) = 2;
        as delta sweeps the band about the threshold 2 tol_rank it counts as
        zero, ambiguous and nonzero in turn."""
        seen = []
        for delta in np.geomspace(0.1 * tol_rank, 25.0 * tol_rank, 400):
            a = np.array([[0.0, 1.0, 0.0], [delta, 0.0, 0.0], [0.0, 0.0, 2.0]])
            seen.append(pipeline(a, 0.0, tol_rank)[0])
            if delta < 0.19 * tol_rank or delta > 21.0 * tol_rank:
                assert seen[-1] == ("EP" if delta < tol_rank else "refused")
            elif 0.21 * tol_rank < delta < 19.0 * tol_rank:
                assert seen[-1] == "indeterminate"
        assert set(seen) == {"EP", "indeterminate", "refused"}

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_zero_matrix(self, m):
        """Only lam0 = 0 is an eigenvalue of the zero matrix, of
        multiplicity m: a DP at m = 2, refused at m = 1 and 3."""
        for lam0 in (0.0, 1e-300, 1.0):
            outcomes = pipeline(np.zeros((m, m)), lam0)
            if m == 2 and lam0 == 0.0:
                assert outcomes[0] == "DP" and built(outcomes)
            else:
                assert outcomes == ["refused"]

    def test_thresholds_that_underflow(self):
        """A tolerance so small that a tenth of the threshold rounds to 0:
        a zero singular value still counts as zero."""
        for tol_rank in (5e-324, 1e-322, 1e-310, 1e-300):
            outcomes = pipeline(np.diag([1.0, 0.0, 0.0]), 0.0, tol_rank)
            assert outcomes[0] == "DP" and built(outcomes)
            # one zero singular value: a simple eigenvalue
            for a in (np.diag([1.0, 0.0]), np.diag([0.0, 1e-300])):
                assert pipeline(a, 0.0, tol_rank) == ["refused"]

    def test_frobenius_norm_lost_to_underflow(self):
        """Entries whose squares round in the subnormals are decided as at
        unit scale: A - lam0 I = diag(2s, s, 0), with tolerances that put s
        near the ambiguity band."""
        for tol_rank in (0.03, 0.045, 0.055, 0.07, 1e-8):
            want = pipeline(np.diag([2.0, 1.0, 0.0]), 0.0, tol_rank)
            for s in np.geomspace(1e-163, 1e-150, 300):
                assert pipeline(np.diag([2.0 * s, s, 0.0]), 0.0, tol_rank) == want

    def test_overflowing_frobenius_norm(self):
        """||A||_F is inf, and sigma_max(A) is finite: each pair is decided,
        and its chain or frame built."""
        for a, lam0, kind in [(np.array([[0.0, 1e160], [1e-160, 0.0]]), 0.0, "EP"),
                              (np.diag([1e160, 1e160, 1.0]), 1e160, "DP"),
                              (np.array([[1e160, 1.0], [0.0, 1e160]]), 1e160, "DP"),
                              (np.diag([1e300, 1e300, -1e300]), 1e300, "DP")]:
            outcomes = pipeline(a, lam0)
            assert outcomes[0] == kind and built(outcomes)

    def test_pinned_frames_around_the_cond_threshold(self):
        """Right bases u and u + eps w of a planted DP's eigenspace have
        cond(gram) near 1e8 for eps near 1e-8: the frame is refused below a
        value of eps and built above it."""
        a, (u, w) = planted("DP", 3, seed=3)
        refused = []
        for eps in np.geomspace(1e-9, 1e-5, 400):
            outcomes = pipeline(a, PLANTED_LAM0, right_basis=[u, u + eps * w])
            refused.append(outcomes[2] == "Gram matrix of the candidate frames is near singular")
        assert refused[0] and not refused[-1]
        assert refused == sorted(refused, reverse=True)
