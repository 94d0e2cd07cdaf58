import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigencoupling import numkit
from eigencoupling.errors import ClassificationError, DimensionError

# hand-derived chain vectors of the first builtin crystal
U0 = np.array([1j, -1.0, 0.0])
U1 = np.array([0.0, 1.0, 0.0])
V0 = np.array([1j, 1.0, 1.0 + 0.5j])
CRYSTAL_A0 = np.array([
    [3.0, 1j, 2j],
    [1j, 1.0, -1j],
    [0.0, 0.0, 0.0],
])


class TestAsCmatrix:
    @pytest.mark.parametrize("a,message", [
        (np.zeros((2, 3)), r"^expected a square matrix, got shape \(2, 3\)$"),
        (np.zeros(3), r"^expected a square matrix, got shape \(3,\)$"),
        (np.array([[1.0, np.nan], [0.0, 1.0]]), "^matrix has non-finite entries$"),
    ], ids=["2x3", "vector", "nan"])
    def test_refused(self, a, message):
        with pytest.raises(DimensionError, match=message):
            numkit.as_cmatrix(a)


class TestHermitianInner:
    def test_chain_normalization(self):
        assert numkit.hermitian_inner(U1, V0) == pytest.approx(1.0)

    def test_chain_orthogonality(self):
        assert numkit.hermitian_inner(U0, V0) == pytest.approx(0.0, abs=1e-15)

    def test_unit_vector(self):
        assert numkit.hermitian_inner([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(7)
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert numkit.hermitian_inner(u, v) == pytest.approx(
            np.conj(numkit.hermitian_inner(v, u)))

    def test_sesquilinearity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            u = rng.normal(size=3) + 1j * rng.normal(size=3)
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            alpha = complex(rng.normal(), rng.normal())
            base = numkit.hermitian_inner(u, v)
            assert numkit.hermitian_inner(alpha * u, v) == pytest.approx(alpha * base)
            assert numkit.hermitian_inner(u, alpha * v) == pytest.approx(
                np.conj(alpha) * base)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            numkit.hermitian_inner([1.0, 0.0], [1.0, 0.0, 0.0])


class TestEigAll:
    def test_diagonal(self):
        es = numkit.eig_all(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(es.values, [1.0, 2.0, 3.0])
        for lam, vec in es:
            assert np.count_nonzero(np.abs(vec) > 1e-12) == 1

    def test_crystal_spectrum(self):
        es = numkit.eig_all(CRYSTAL_A0)
        got = sorted(es.values, key=abs)
        assert abs(got[0]) < 1e-12
        assert got[1] == pytest.approx(2.0, abs=1e-6)
        assert got[2] == pytest.approx(2.0, abs=1e-6)

    def test_square_root_splitting(self):
        es = numkit.eig_all([[0.0, 1.0], [1e-6, 0.0]])
        assert sorted(es.values.real) == pytest.approx([-1e-3, 1e-3])

    def test_reconstruction_residual_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = int(rng.integers(2, 9))
            a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            es = numkit.eig_all(a)
            norm_a = np.linalg.norm(a, 2)
            for lam, vec in es:
                assert np.linalg.norm(a @ vec - lam * vec) <= 1e-10 * norm_a

    def test_similarity_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            m = int(rng.integers(2, 9))
            a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            p = rng.normal(size=(m, m)) + np.eye(m) * m  # well conditioned
            sim = np.linalg.solve(p, a @ p)
            wa = np.sort_complex(numkit.eig_all(a).values)
            wb = np.sort_complex(numkit.eig_all(sim).values)
            assert np.max(np.abs(wa - wb)) < 1e-8

    def test_determinism(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        first = numkit.eig_all(a)
        second = numkit.eig_all(a)
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.vectors, second.vectors)

    def test_values_only_path_matches(self):
        rng = np.random.default_rng(14)
        for m in range(2, 9):
            a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            w = numkit.eigvals(a)
            assert np.array_equal(w, numkit.eig_all(a).values)
            assert np.array_equal(np.lexsort((w.imag, w.real)), np.arange(m))


class TestSVD:
    def test_one_factorisation_serves_kernel_and_solve(self):
        shifted = CRYSTAL_A0 - 2.0 * np.eye(3)
        svd = numkit.SVD(shifted)
        assert np.linalg.norm(shifted @ svd.null_vector()) < 1e-10
        assert np.linalg.norm(shifted @ svd.solve(U0) - U0) < 1e-10
        assert np.linalg.norm(svd.u @ np.diag(svd.s) @ svd.vh - shifted) < 1e-12

    def test_adjoint_reads_the_same_factors(self, monkeypatch):
        """M* = V S U*: the adjoint's kernel is u[:, -1] and its minimum-norm
        solve matches a fresh factorisation of M*, with no LAPACK call."""
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        svd = numkit.SVD(m)
        monkeypatch.setattr(np.linalg, "svd", None)
        adj = svd.adjoint()
        assert adj.matrix.tolist() == m.conj().T.tolist()
        assert np.linalg.norm(adj.u @ np.diag(adj.s) @ adj.vh - m.conj().T) < 1e-12
        assert np.array_equal(adj.null_vector(), numkit.gauge_fix(svd.u[:, -1]))
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        x = adj.solve(b)
        monkeypatch.undo()
        assert np.linalg.norm(x - numkit.SVD(m.conj().T).solve(b)) < 1e-12
        assert svd.matrix.tolist() == m.tolist()


class TestNullVector:
    def test_nilpotent(self):
        assert np.allclose(numkit.SVD([[0.0, 1.0], [0.0, 0.0]]).null_vector(), [1.0, 0.0])

    def test_crystal_eigenvector(self):
        shifted = CRYSTAL_A0 - 2.0 * np.eye(3)
        x = numkit.SVD(shifted).null_vector()
        assert np.linalg.norm(shifted @ x) < 1e-10
        # parallel to the known eigenvector (i, -1, 0)
        ref = U0 / np.linalg.norm(U0)
        assert abs(abs(np.vdot(ref, x)) - 1.0) < 1e-12

    def test_constructed_kernel(self):
        rng = np.random.default_rng(31)
        kernel = rng.normal(size=3) + 1j * rng.normal(size=3)
        kernel /= np.linalg.norm(kernel)
        # rank-2 matrix annihilating the kernel vector
        rows = []
        for _ in range(2):
            w = rng.normal(size=3) + 1j * rng.normal(size=3)
            w -= np.vdot(kernel, w) * kernel
            rows.append(w.conj())
        a = rng.normal(size=(3, 2)) @ np.array(rows)
        x = numkit.SVD(a).null_vector()
        assert abs(abs(np.vdot(kernel, x)) - 1.0) < 1e-10

    def test_gauge_determinism(self):
        first = numkit.SVD(CRYSTAL_A0 - 2.0 * np.eye(3)).null_vector()
        second = numkit.SVD(CRYSTAL_A0 - 2.0 * np.eye(3)).null_vector()
        assert np.array_equal(first, second)

    def test_gauge_of_the_zero_vector(self):
        x = np.zeros(3, dtype=complex)
        fixed = numkit.gauge_fix(x)
        assert fixed is not x and fixed.tolist() == [0, 0, 0]

    def test_gauge_normalization(self):
        x = numkit.SVD(CRYSTAL_A0 - 2.0 * np.eye(3)).null_vector()
        mags = np.abs(x)
        k = int(np.flatnonzero(mags >= mags.max() * (1 - 1e-12))[0])
        assert x[k].imag == pytest.approx(0.0, abs=1e-15)
        assert x[k].real > 0


class TestSolveOnComplement:
    def test_nilpotent(self):
        x = numkit.SVD([[0.0, 1.0], [0.0, 0.0]]).solve([1.0, 0.0])
        assert np.allclose(x, [0.0, 1.0])

    def test_no_finite_reciprocal(self):
        with pytest.raises(ClassificationError, match="singular value 4.941e-324"):
            numkit.SVD([[0.0, 5e-324], [0.0, 0.0]]).solve([1.0, 0.0])

    def test_crystal_chain_equation(self):
        shifted = CRYSTAL_A0 - 2.0 * np.eye(3)
        x = numkit.SVD(shifted).solve(U0)
        assert np.linalg.norm(shifted @ x - U0) < 1e-10
        # minimum-norm solution is orthogonal to the kernel direction
        assert abs(np.vdot(U0, x)) < 1e-10
        # solution lies in span{(0,1,0)} + kernel
        basis = np.column_stack((U1, U0))
        coeffs, *_ = np.linalg.lstsq(basis, x, rcond=None)
        assert np.linalg.norm(basis @ coeffs - x) < 1e-10


#: real and imaginary parts of assignment inputs: a few values, so that costs
#: tie and eigenvalues repeat, the extremes, whose costs overflow, and any double
PART = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1e308, -1e308, np.finfo(float).max]
                       ) | st.floats(allow_nan=False, allow_infinity=False)


def brute_force_assignment(values, targets):
    costs = sorted(
        (abs(values[i] - targets[0]) + abs(values[j] - targets[1]), i, j)
        for i in range(len(values)) for j in range(len(values)) if i != j
    )
    return costs[0][1], costs[0][2], costs[1][0] - costs[0][0]


class TestPairAssignment:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for m in range(2, 7):
            values = rng.normal(size=(40, m)) + 1j * rng.normal(size=(40, m))
            targets = rng.normal(size=(40, 2)) + 1j * rng.normal(size=(40, 2))
            i, j, margin = numkit.pair_assignment(values, targets)
            for k in range(40):
                bi, bj, bm = brute_force_assignment(values[k], targets[k])
                assert (i[k], j[k]) == (bi, bj)
                assert margin[k] == bm

    def test_ties_go_to_lowest_indices(self):
        values = np.array([[1.0, 1.0, 2.0, 2.0]], dtype=complex)
        i, j, margin = numkit.pair_assignment(values, [[1.0, 2.0]])
        assert (i[0], j[0], margin[0]) == (0, 2, 0.0)

    def test_same_target_twice_uses_two_eigenvalues(self):
        values = np.array([[0.0, 5.0, 0.1]], dtype=complex)
        i, j, margin = numkit.pair_assignment(values, [[0.0, 0.0]])
        assert (i[0], j[0]) == (0, 2)
        assert margin[0] == pytest.approx(0.0)

    @settings(max_examples=400)
    @given(st.integers(2, 10).flatmap(lambda m: st.lists(
        st.builds(complex, PART, PART), min_size=m + 2, max_size=m + 2)))
    def test_one_row_matches_batched(self, numbers):
        """One spectrum goes through ``_assign_row``; the same row twice
        goes through the batched arrays, which must give the same bits."""
        values, targets = np.array([numbers[:-2]]), np.array([numbers[-2:]])
        one = numkit._assign_row(numbers[:-2], *numbers[-2:])
        batched = numkit.pair_assignment(np.repeat(values, 2, axis=0),
                                         np.repeat(targets, 2, axis=0))
        for got, want in zip(one, batched):
            got = np.asarray(got)
            assert got.dtype == want.dtype
            assert got.tobytes() == want[:1].tobytes()

    def test_one_row_overflowing_costs(self):
        big = np.finfo(float).max
        row = [complex(1e308), complex(-1e308)]
        assert numkit._assign_row(row, complex(-1e308), complex(-1e308)) == (0, 1, 0.0)
        assert numkit._assign_row(row, complex(-1e308), complex(1e308)) == (1, 0, big)

    def test_overflowing_costs(self):
        # a cost past the largest double counts as the largest double: two
        # such tie (margin 0, lowest indices), and the pair stays two values
        big = np.finfo(float).max
        values = np.array([[1e308, -1e308], [1e308, 1e308]], dtype=complex)
        i, j, margin = numkit.pair_assignment(values, [[-1e308, 1e308], [-1e308, -1e308]])
        assert (i.tolist(), j.tolist()) == ([1, 0], [0, 1])
        assert margin.tolist() == [big, 0.0]
