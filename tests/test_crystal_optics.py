import numpy as np
import pytest

from eigencoupling import crystal_optics as co
from eigencoupling import ep_asymptotics
from eigencoupling import family as family_mod
from eigencoupling.errors import BranchError, DimensionError, DomainError
from fd_oracle import fd_derivative

SPEC1 = co.builtin_specs()["crystal-example-1"]
SPEC2 = co.builtin_specs()["crystal-example-2"]

ETA1_POLE = np.array([
    [3.0, 1j, 2j],
    [1j, 1.0, -1j],
    [2j, 1j, 2.0],
])
A1_POLE = np.array([
    [3.0, 1j, 2j],
    [1j, 1.0, -1j],
    [0.0, 0.0, 0.0],
])
# hand-derived parameter derivatives of the first crystal at the pole
DA1_DS1 = np.array([
    [-2j, -2j, -2.0],
    [1j, 0.0, 0.0],
    [-3.0, -1j, -2j],
])
DA1_DS2 = np.array([
    [0.0, 0.0, 0.0],
    [-2j, -1j, -2.0],
    [-1j, -1.0, 1j],
])


def per_index_partial(spec, p, i):
    """dA/dp_i of the crystal adapter with s, eta(s) and the projector
    rebuilt for this i alone, as a reference."""
    s = co.direction(float(p[0]), float(p[1]))
    ds = np.zeros(3)
    ds[i], ds[2] = 1.0, -p[i] / s[2]
    eta_s = co.eta(spec, s)
    dproj = -(np.outer(ds, s) + np.outer(s, ds))
    deta = co.gyration_matrix(spec.activity @ ds)
    return dproj @ eta_s + (np.eye(3) - np.outer(s, s)) @ deta


class TestGyration:
    def test_zero(self):
        assert np.allclose(co.gyration_matrix([0.0, 0.0, 0.0]), 0.0)

    def test_first_crystal_pattern(self):
        s1, s3 = 0.3, 0.8
        got = co.gyration_matrix([s3, 0.0, s1])
        want = 1j * np.array([
            [0.0, -s1, 0.0],
            [s1, 0.0, -s3],
            [0.0, s3, 0.0],
        ])
        assert np.allclose(got, want)

    def test_second_crystal_pattern(self):
        s1, s2, s3 = 0.2, -0.1, 0.9
        g = np.array([4 * s3, 4j * s3, 4 * (s1 + 1j * s2)])
        got = co.gyration_matrix(g)
        want = 4j * np.array([
            [0.0, -(s1 + 1j * s2), 1j * s3],
            [s1 + 1j * s2, 0.0, -s3],
            [-1j * s3, s3, 0.0],
        ])
        assert np.allclose(got, want)

    def test_skew_symmetry(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=3) + 1j * rng.normal(size=3)
        mat = co.gyration_matrix(g)
        assert np.allclose(mat, -mat.T)


class TestEta:
    def test_first_crystal_at_pole(self):
        assert np.allclose(co.eta(SPEC1, [0.0, 0.0, 1.0]), ETA1_POLE)

    def test_no_activity(self):
        spec = co.DielectricSpec(anisotropy=np.diag([2.0, 1.0, 1.0]),
                                 activity=np.zeros((3, 3)))
        assert np.allclose(co.eta(spec, [0.0, 0.0, 1.0]), np.diag([2.0, 1.0, 1.0]))

    def test_second_crystal_at_pole(self):
        want = SPEC2.anisotropy + co.gyration_matrix(np.array([4.0, 4j, 0.0]))
        assert np.allclose(co.eta(SPEC2, [0.0, 0.0, 1.0]), want)

    def test_decomposition_consistency(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            u = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            u = (u + u.T) / 2
            gam = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            gam = (gam + gam.T) / 2
            spec = co.DielectricSpec(anisotropy=u, activity=gam)
            s = co.direction(0.3, -0.2)
            full = co.eta(spec, s)
            skew = co.gyration_matrix(gam @ s)
            assert np.allclose(full - full.T, 2.0 * skew)
            assert np.allclose(full + full.T, 2.0 * u)

    def test_symmetry_validation(self):
        with pytest.raises(DimensionError):
            co.DielectricSpec(anisotropy=[[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                              activity=np.zeros((3, 3)))


def test_builtin_specs_built_once():
    """Every command asks for the builtin crystals; they are built on the
    first call and shared by every later one."""
    assert co.builtin_specs() is co.builtin_specs()


class TestOpticalMatrix:
    def test_first_crystal_matrix_and_spectrum(self):
        a = co.optical_matrix(SPEC1, [0.0, 0.0, 1.0])
        assert np.allclose(a, A1_POLE)
        w = np.sort_complex(np.linalg.eigvals(a))
        assert np.allclose(w, [0.0, 2.0, 2.0], atol=1e-7)

    def test_left_eigenvector_identity(self):
        rng = np.random.default_rng(5)
        u = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        spec = co.DielectricSpec(anisotropy=(u + u.T) / 2, activity=np.zeros((3, 3)))
        s = co.direction(-0.4, 0.25)
        a = co.optical_matrix(spec, s)
        assert np.linalg.norm(s @ a) <= 1e-14 * np.linalg.norm(a)

    def test_second_crystal_double_eigenvalue(self):
        a = co.optical_matrix(SPEC2, [0.0, 0.0, 1.0])
        w = sorted(np.linalg.eigvals(a), key=abs)
        assert abs(w[0]) < 1e-12
        assert w[1] == pytest.approx(1 + 5j)
        assert w[2] == pytest.approx(1 + 5j)


class TestRefractiveIndices:
    def test_isotropic(self):
        spec = co.DielectricSpec(anisotropy=np.eye(3), activity=np.zeros((3, 3)))
        n = co.refractive_indices(spec, co.direction(0.1, 0.2))
        assert np.allclose(sorted(np.real(n)), [1.0, 1.0])

    def test_first_crystal_double_index(self):
        n = co.refractive_indices(SPEC1, [0.0, 0.0, 1.0])
        assert np.allclose(np.abs(n), 2.0 ** -0.5, atol=1e-6)

    def test_uniaxial_diagonal(self):
        spec = co.DielectricSpec(anisotropy=np.diag([4.0, 1.0, 1.0]),
                                 activity=np.zeros((3, 3)))
        n = co.refractive_indices(spec, [0.0, 0.0, 1.0])
        assert sorted(np.real(n)) == pytest.approx([0.5, 1.0])

    def test_branch_error_near_zero(self):
        spec = co.DielectricSpec(anisotropy=np.diag([1e-9, 1.0, 1.0]),
                                 activity=np.zeros((3, 3)))
        with pytest.raises(BranchError):
            co.refractive_indices(spec, [0.0, 0.0, 1.0])


class TestFamilyAdapter:
    def test_reference_derivatives(self, crystal1):
        da_ds1, da_ds2 = family_mod.derivative(crystal1, [0.0, 0.0])
        assert np.allclose(da_ds1, DA1_DS1, atol=1e-12)
        assert np.allclose(da_ds2, DA1_DS2, atol=1e-12)

    def test_partials_match_the_per_index_formula_bitwise(self):
        """One deriv call per point gives each dA/dp_i with the bits of the
        formula that rebuilds s, eta(s) and the projector for every i."""
        rng = np.random.default_rng(8)
        points = np.vstack([[0.0, 0.0], [0.05, -0.03], [-0.0, 0.7],
                            rng.uniform(-0.7, 0.7, size=(200, 2))])
        for spec in (SPEC1, SPEC2):
            fam = co.family_adapter(spec)
            for p in points:
                got = family_mod.derivative(fam, p)
                for i in range(2):
                    assert got[i].tobytes() == per_index_partial(spec, p, i).tobytes()

    def test_derivatives_match_fd_off_pole(self, crystal1, crystal2):
        for fam in (crystal1, crystal2):
            p = np.array([0.21, -0.13])
            for i, exact in enumerate(family_mod.derivative(fam, p)):
                approx = fd_derivative(lambda q, f=fam: family_mod.evaluate(f, q), p, i)
                assert np.linalg.norm(exact - approx) < 1e-6 * np.linalg.norm(exact)

    def test_taylor_velocity_e1(self, crystal1):
        # Along p(eps) = eps * e1 the Taylor terms are A(0) and dA/ds1(0).
        direction = np.array([1.0, 0.0])
        a0 = family_mod.evaluate(crystal1, [0.0, 0.0])
        partials = family_mod.derivative(crystal1, [0.0, 0.0])
        a1 = sum(d_i * da for d_i, da in zip(direction, partials))
        assert np.allclose(a0, A1_POLE)
        assert np.allclose(a1, DA1_DS1, atol=1e-12)

    def test_chart_boundary(self, crystal1):
        with pytest.raises(DomainError):
            family_mod.evaluate(crystal1, [0.8, 0.7])

    def test_sensitivity_pipeline(self, crystal1, ep_model):
        assert np.allclose(ep_model.split_re, [0.0, 4.0], atol=1e-8)
        assert np.allclose(ep_model.split_im, [-4.0, 0.0], atol=1e-8)
        assert np.allclose(ep_model.drift_re, [0.0, 0.0], atol=1e-8)
        assert np.allclose(ep_model.drift_im, [-4.0, 0.0], atol=1e-8)

    def test_dp_pipeline_coefficients(self, dp_model_pinned):
        from eigencoupling.dp_asymptotics import surface_classification_2p
        rep = surface_classification_2p(dp_model_pinned)
        assert rep.c11 == pytest.approx(45 + 8j, abs=1e-8)
        assert rep.c12 == pytest.approx(128j, abs=1e-8)
        assert rep.c22 == pytest.approx(-83 + 8j, abs=1e-8)


class TestGridInvariants:
    def test_left_eigenvector_and_zero_eigenvalue_on_grid(self):
        grid = np.linspace(-0.6, 0.6, 50)
        for spec in (SPEC1, SPEC2):
            worst_left = 0.0
            worst_zero = 0.0
            for s1 in grid:
                for s2 in grid:
                    if s1 * s1 + s2 * s2 >= 1.0 - 1e-6:
                        continue
                    s = co.direction(s1, s2)
                    a = co.optical_matrix(spec, s)
                    worst_left = max(worst_left,
                                     np.linalg.norm(s @ a) / np.linalg.norm(a))
                    worst_zero = max(worst_zero,
                                     min(abs(np.linalg.eigvals(a))))
            assert worst_left <= 1e-14
            assert worst_zero <= 1e-10

    def test_first_crystal_model_accuracy_shrinks(self, crystal1, ep_model):
        def sup_error(radius):
            worst = 0.0
            for rr in np.linspace(radius / 4, radius, 4):
                for theta in np.linspace(0.0, 2 * np.pi, 60, endpoint=False):
                    dp = rr * np.array([np.cos(theta), np.sin(theta)])
                    point = ep_asymptotics.surface_eval(ep_model, dp)
                    pair = (point.lam_plus, point.lam_minus)
                    eigs = np.linalg.eigvals(family_mod.evaluate(crystal1, dp))
                    best = min(
                        max(abs(eigs[i] - pair[0]), abs(eigs[j] - pair[1]))
                        for i in range(3) for j in range(3) if i != j
                    )
                    worst = max(worst, best)
            return worst

        err_full = sup_error(0.05)
        err_half = sup_error(0.025)
        assert err_full <= 0.02
        assert err_full / err_half >= 2.5


def per_point_optical_matrix(spec, s1, s2):
    """A(s) at one chart point, built with outer products and a 3-vector."""
    s = np.array([s1, s2, np.sqrt(1.0 - (s1 * s1 + s2 * s2))])
    g = spec.activity @ s
    gyration = 1j * np.array([[0.0, -g[2], g[1]], [g[2], 0.0, -g[0]], [-g[1], g[0], 0.0]])
    return (np.eye(3) - np.outer(s, s)) @ (spec.anisotropy + gyration)


class TestBatchedAdapter:
    def test_batched_matrices_equal_per_point_bitwise(self):
        rng = np.random.default_rng(8)
        points = rng.uniform(-0.6, 0.6, size=(400, 2))
        for spec in (SPEC1, SPEC2):
            fam = co.family_adapter(spec)
            batch = family_mod.evaluate_many(fam, points)
            want = np.array([per_point_optical_matrix(spec, *p) for p in points])
            assert batch.tobytes() == want.tobytes()
            singles = np.array([family_mod.evaluate(fam, p) for p in points])
            assert singles.tobytes() == want.tobytes()

    def test_guard_checked_at_every_point(self, crystal1):
        with pytest.raises(DomainError):
            family_mod.evaluate_many(crystal1, [[0.0, 0.0], [0.8, 0.7]])
