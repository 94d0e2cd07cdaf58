import cmath

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eigencoupling import degeneracy, dp_asymptotics as dp
from eigencoupling import family as family_mod
from eigencoupling.errors import DimensionError, EigenCouplingError

# hand-derived coupling vectors of the second builtin crystal (pinned frame)
D11 = np.array([-2 - 8j, 0.0])
D12 = np.array([6j, -9 - 4j])
D21 = np.array([-10j, 7 - 4j])
D22 = np.array([0.0, -4j])


def model_from_vectors(d11, d12, d21, d22, lam0=0.0):
    coupling = np.zeros((2, 2, len(d11)), dtype=complex)
    coupling[0, 0] = d11
    coupling[0, 1] = d12
    coupling[1, 0] = d21
    coupling[1, 1] = d22
    return dp.DPLocalModel(p0=np.zeros(len(d11)), lam0=complex(lam0),
                           coupling=coupling)


def model_of_form(c11, c12, c22):
    """A two-parameter model whose c is c11 x^2 + c12 x y + c22 y^2, from
    the product of its two complex linear factors."""
    roots = np.roots([c11, c12, c22])
    scale = cmath.sqrt(c11)
    l1 = np.array([scale, -scale * roots[0]])
    l2 = np.array([scale, -scale * roots[1]])
    return model_from_vectors(d11=np.zeros(2), d12=l1, d21=l2, d22=np.zeros(2))


def reference_model():
    return model_from_vectors(D11, D12, D21, D22, lam0=1 + 5j)


def trivial_frame(m=2):
    basis = np.eye(m, dtype=complex)
    return degeneracy.DPFrame(lam0=0.0, u1=basis[:, 0], u2=basis[:, 1],
                              v1=basis[:, 0], v2=basis[:, 1])


def matrices_for_vectors(d11, d12, d21, d22):
    """2x2 direction matrices whose trivial-frame coupling equals the d's."""
    n = len(d11)
    mats = []
    for s in range(n):
        mats.append(np.array([
            [d11[s], d21[s]],
            [d12[s], d22[s]],
        ]))
    return mats


class TestReducedProblem:
    def test_diagonal_action(self):
        a1 = np.diag([3.0, 1.0]).astype(complex)
        red = dp.reduced_problem(a1, trivial_frame())
        assert sorted((red.mu_plus.real, red.mu_minus.real)) == [1.0, 3.0]
        assert abs(red.vec_plus[1]) < 1e-12 or abs(red.vec_plus[0]) < 1e-12

    def test_off_diagonal_symmetric(self):
        a1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        red = dp.reduced_problem(a1, trivial_frame())
        assert red.mu_plus == pytest.approx(1.0)
        assert red.mu_minus == pytest.approx(-1.0)

    def test_crystal_two_first_direction(self, crystal2, dp_frame_pinned):
        _, _, frame = dp_frame_pinned
        a1 = family_mod.derivative(crystal2, [0.0, 0.0])[0]
        red = dp.reduced_problem(a1, frame)
        want = np.array([[-2 - 8j, -10j], [6j, 0.0]])
        assert np.allclose(red.matrix, want, atol=1e-8)
        eigs = np.linalg.eigvals(want)
        got = sorted((red.mu_plus, red.mu_minus), key=lambda z: z.real)
        assert got == pytest.approx(sorted(eigs, key=lambda z: z.real))

    def test_mu_match_eig_random(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            a1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            red = dp.reduced_problem(a1, trivial_frame())
            eigs = sorted(np.linalg.eigvals(red.matrix), key=lambda z: (z.real, z.imag))
            got = sorted((red.mu_plus, red.mu_minus), key=lambda z: (z.real, z.imag))
            assert np.allclose(got, eigs, atol=1e-12)
            for mu, vec in ((red.mu_plus, red.vec_plus), (red.mu_minus, red.vec_minus)):
                assert np.linalg.norm(red.matrix @ vec - mu * vec) < 1e-10


class TestDPSensitivities:
    def test_crystal_two_reference_vectors(self, dp_model_pinned):
        assert np.allclose(dp_model_pinned.coupling[0, 0], D11, atol=1e-8)
        assert np.allclose(dp_model_pinned.coupling[0, 1], D12, atol=1e-8)
        assert np.allclose(dp_model_pinned.coupling[1, 0], D21, atol=1e-8)
        assert np.allclose(dp_model_pinned.coupling[1, 1], D22, atol=1e-8)

    def test_constant_family(self):
        fam = family_mod.MatrixFamily(
            2, 2, evaluator=lambda p: np.zeros((2, 2)),
            deriv=lambda p: [np.zeros((2, 2))] * 2,
        )
        model = dp.dp_sensitivities(fam, trivial_frame(), [0.0, 0.0])
        assert np.allclose(model.coupling, 0.0)

    def test_hermitian_diagonal(self):
        fam = family_mod.MatrixFamily(
            2, 1, evaluator=lambda p: np.diag([p[0], -p[0]]).astype(complex),
            deriv=lambda p: [np.diag([1.0, -1.0]).astype(complex)],
        )
        model = dp.dp_sensitivities(fam, trivial_frame(), [0.0])
        assert model.coupling[0, 0, 0] == pytest.approx(1.0)
        assert model.coupling[1, 1, 0] == pytest.approx(-1.0)
        assert abs(model.coupling[0, 1, 0]) < 1e-14
        assert abs(model.coupling[1, 0, 0]) < 1e-14


class TestSplitMultiparam:
    def test_zero_offset(self):
        split = dp.split_multiparam(reference_model(), [0.0, 0.0])
        assert split.lam_plus == pytest.approx(1 + 5j)
        assert split.lam_minus == pytest.approx(1 + 5j)

    def test_crystal_two_closed_form(self):
        model = reference_model()
        rng = np.random.default_rng(59)
        for _ in range(50):
            s1, s2 = rng.uniform(-0.05, 0.05, size=2)
            c_want = (45 + 8j) * s1 * s1 + 128j * s1 * s2 + (-83 + 8j) * s2 * s2
            split = dp.split_multiparam(model, [s1, s2])
            assert split.radicand == pytest.approx(c_want, abs=1e-12)
            root = cmath.sqrt(c_want)
            re_rad = np.sqrt((abs(c_want) + c_want.real) / 2)
            im_rad = np.sqrt((abs(c_want) - c_want.real) / 2)
            assert split.re_plus == pytest.approx(1 - s1 + re_rad, abs=1e-12)
            assert split.re_minus == pytest.approx(1 - s1 - re_rad, abs=1e-12)
            assert split.im_plus == pytest.approx(5 - 4 * s1 - 2 * s2 + im_rad, abs=1e-12)
            assert split.im_minus == pytest.approx(5 - 4 * s1 - 2 * s2 - im_rad, abs=1e-12)
            assert split.lam_plus - split.lam_minus == pytest.approx(2 * root)

    def test_real_coupling_crosses_on_hyperplane(self):
        # no off-diagonal coupling, real difference vector: sheets touch
        # exactly where the difference functional vanishes
        model = model_from_vectors(
            d11=np.array([1.0, 0.5]), d12=np.zeros(2), d21=np.zeros(2),
            d22=np.array([0.2, -0.5]),
        )
        on = dp.split_multiparam(model, [0.0, 0.0])
        assert on.lam_plus == pytest.approx(on.lam_minus)
        off = dp.split_multiparam(model, [0.5, 0.4])
        assert off.radicand.real > 0
        assert off.radicand.imag == pytest.approx(0.0, abs=1e-15)
        assert off.im_plus == pytest.approx(off.im_minus)


class TestPersistence:
    def test_zero_offset(self):
        report = dp.persistence_conditions(reference_model(), [0.0, 0.0])
        assert report.re_c == 0.0
        assert report.im_c == 0.0
        assert report.frame_residuals == (0.0,) * 6

    def test_crystal_two_first_direction(self):
        report = dp.persistence_conditions(reference_model(), [1.0, 0.0])
        assert report.re_c == pytest.approx(45.0, abs=1e-10)
        assert report.im_c == pytest.approx(8.0, abs=1e-10)

    def test_common_kernel_direction(self):
        shared = np.array([2.0, -1.0])      # all d-vectors parallel to this
        model = model_from_vectors(
            d11=shared * (1 + 1j), d12=shared * (0.3 - 2j),
            d21=shared * (-1.5 + 0.2j), d22=shared * (2 - 1j),
        )
        dp_dir = np.array([1.0, 2.0])       # in the common kernel
        report = dp.persistence_conditions(model, dp_dir)
        assert np.allclose(report.frame_residuals, 0.0, atol=1e-12)
        assert report.re_c == pytest.approx(0.0, abs=1e-12)
        assert report.im_c == pytest.approx(0.0, abs=1e-12)


class TestOneParamSlopes:
    def test_crystal_two_values(self):
        plus, minus = dp.one_param_slopes(reference_model())
        root = cmath.sqrt(45 + 8j)
        assert plus == pytest.approx(-1 - 4j + root, abs=1e-12)
        assert minus == pytest.approx(-1 - 4j - root, abs=1e-12)

    def test_diagonal_coupling(self):
        model = model_from_vectors(
            d11=np.array([3.0 + 1j]), d12=np.zeros(1), d21=np.zeros(1),
            d22=np.array([1.0 - 1j]),
        )
        plus, minus = dp.one_param_slopes(model)
        assert sorted((plus, minus), key=lambda z: z.real) == [1 - 1j, 3 + 1j]

    def test_equal_diagonal_unit_product(self):
        model = model_from_vectors(
            d11=np.array([2.0]), d12=np.array([0.5]), d21=np.array([2.0]),
            d22=np.array([2.0]),
        )
        plus, minus = dp.one_param_slopes(model)
        assert plus == pytest.approx(3.0)
        assert minus == pytest.approx(1.0)

    def test_slopes_equal_reduced_eigenvalues_random(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            vecs = [rng.normal(size=1) + 1j * rng.normal(size=1) for _ in range(4)]
            model = model_from_vectors(*vecs)
            mats = matrices_for_vectors(*vecs)
            red = dp.reduced_problem(mats[0], trivial_frame())
            slopes = sorted(dp.one_param_slopes(model), key=lambda z: (z.real, z.imag))
            mus = sorted((red.mu_plus, red.mu_minus), key=lambda z: (z.real, z.imag))
            assert abs(slopes[0] - mus[0]) < 1e-12
            assert abs(slopes[1] - mus[1]) < 1e-12


def brute_force_scan(model, rest, lo=-0.25, hi=0.25, n=20001):
    """Roots of Im c(dp1) by dense sign-change scan + bisection, with Re c there."""
    xs = np.linspace(lo, hi, n)
    ims = np.array([dp.split_multiparam(model, np.concatenate(([x], rest))).radicand.imag
                    for x in xs])
    roots = []
    for k in range(n - 1):
        if ims[k] == 0.0:
            roots.append(xs[k])
        elif ims[k] * ims[k + 1] < 0.0:
            a, b = xs[k], xs[k + 1]
            for _ in range(80):
                mid = (a + b) / 2
                val = dp.split_multiparam(model, np.concatenate(([mid], rest))).radicand.imag
                if val == 0.0:
                    break
                if val * dp.split_multiparam(model, np.concatenate(([a], rest))).radicand.imag < 0:
                    b = mid
                else:
                    a = mid
            roots.append((a + b) / 2)
    res = []
    for root in roots:
        res.append((root,
                    dp.split_multiparam(model, np.concatenate(([root], rest))).radicand.real))
    return res


class TestAvoidedCrossing1P:
    def test_crystal_two_offset_section(self):
        model = reference_model()
        rest = np.array([0.01])
        report = dp.avoided_crossing_1p(model, rest)
        assert report.scenario == "one-re-one-im"
        scan = brute_force_scan(model, rest)
        assert len(scan) == 2
        got_roots = sorted(report.dp1_roots)
        assert got_roots == pytest.approx(sorted(r for r, _ in scan), abs=1e-9)
        # signs of c at the roots agree with the scan
        scan_signs = sorted(np.sign(c) for _, c in scan)
        assert sorted(np.sign(report.c_values)) == scan_signs

    def test_all_real_coupling_degenerates(self):
        model = model_from_vectors(
            d11=np.array([1.0, 0.3]), d12=np.array([0.5, -0.2]),
            d21=np.array([2.0, 0.1]), d22=np.array([-1.0, 0.9]),
        )
        report = dp.avoided_crossing_1p(model, [0.01])
        assert report.scenario == "degenerate"

    def test_constructed_factored_roots(self):
        # c(x) = 2.25 e^{2i phi} (x - r1)(x - r2) from an off-diagonal
        # product of two linear factors: Im c has roots exactly at r1, r2
        r1, r2 = 0.01, -0.02
        phase = np.exp(0.3j)
        delta = 0.05
        l1 = np.array([1.0, -r1 / delta])
        l2 = np.array([1.0, -r2 / delta]) * 2.25 * phase * phase
        model = model_from_vectors(
            d11=np.zeros(2), d12=l1, d21=l2, d22=np.zeros(2))
        report = dp.avoided_crossing_1p(model, [delta])
        # c vanishes at both roots, so Re c there is rounding: no sign
        assert report.scenario == "degenerate"
        assert sorted(report.dp1_roots) == pytest.approx(
            sorted((r1, r2)), abs=1e-12)

    def test_exact_coupling_degenerate(self):
        report = dp.avoided_crossing_1p(reference_model(), [0.0])
        assert report.scenario == "degenerate"

    def test_linear_imaginary_part_reports_single_root(self):
        # Im c2 = 0 while Im c1 != 0: one crossing candidate survives
        model = model_from_vectors(
            d11=np.array([2.0, 1.0 + 1j]), d12=np.zeros(2),
            d21=np.zeros(2), d22=np.zeros(2),
        )
        delta = 0.01
        report = dp.avoided_crossing_1p(model, [delta])
        assert report.scenario == "degenerate"
        assert report.dp1_roots is not None
        x = report.dp1_roots[0]
        value = dp.split_multiparam(model, [x, delta]).radicand
        assert value.imag == pytest.approx(0.0, abs=1e-14)
        assert report.c_values[0] == pytest.approx(value.real)

    def test_scenarios_of_all_four_types(self):
        rng = np.random.default_rng(67)
        delta = 0.05
        # m(x) with roots at +-0.01, q(x) selecting the scenario
        cases = {
            "no-crossing": (lambda x: x * x + 1e-4, lambda x: x),
            "one-re-one-im": (lambda x: x * x - 1e-4, lambda x: 3 * x),
            "two-re": (lambda x: x * x - 1e-4, lambda x: -(x * x + 1.0)),
            "two-im": (lambda x: x * x - 1e-4, lambda x: x * x + 1.0),
        }
        for want, (im_poly, re_poly) in cases.items():
            # realize c(x) = q(x) + i m(x) as the product of two complex
            # linear factors; quadratic coefficients from three samples
            c2 = (re_poly(1) + re_poly(-1)) / 2 - re_poly(0) + 1j * (
                (im_poly(1) + im_poly(-1)) / 2 - im_poly(0))
            c1 = (re_poly(1) - re_poly(-1)) / 2 + 1j * (im_poly(1) - im_poly(-1)) / 2
            c0 = re_poly(0) + 1j * im_poly(0)
            roots = np.roots([c2, c1, c0])
            scale = cmath.sqrt(c2)
            l1 = np.array([scale, -scale * roots[0] / delta])
            l2 = np.array([scale, -scale * roots[1] / delta])
            model = model_from_vectors(
                d11=np.zeros(2), d12=l1, d21=l2, d22=np.zeros(2))
            report = dp.avoided_crossing_1p(model, [delta])
            assert report.scenario == want, f"{want}: got {report.scenario}"
            scan = brute_force_scan(model, np.array([delta]), lo=-0.05, hi=0.05)
            if want == "no-crossing":
                assert scan == []
            else:
                signs = {
                    "one-re-one-im": {-1.0, 1.0},
                    "two-re": {-1.0},
                    "two-im": {1.0},
                }[want]
                assert {np.sign(c) for _, c in scan} == signs

    def test_label_independent_of_offset_scale(self):
        # c_a > 0 > c_b: their product underflows to -0.0 from 1e-83 on, and
        # c itself from 1e-155 on
        model = reference_model()
        labels = {dp.avoided_crossing_1p(model, [10.0 ** -k]).scenario for k in range(2, 308)}
        assert labels == {"one-re-one-im"}

    def test_near_crossing_beside_a_far_one(self):
        # c = (-1+i) x^2 - 1e6 i x y + (1+100i) y^2: at y = 1, Im c = 0 at
        # x ~ 1e-4, where c ~ 1, and at x ~ 1e6, where c ~ -1e12; each sign
        # is compared with the terms of c at its own root
        model = model_of_form(-1 + 1j, -1e6j, 1 + 100j)
        assert dp.surface_classification_2p(model).type == "one-re-one-im-line"
        report = dp.avoided_crossing_1p(model, [1.0])
        assert report.scenario == "one-re-one-im"
        assert sorted(np.sign(report.c_values)) == [-1, 1]

    def test_exactly_real_far_coefficient_keeps_both_roots(self):
        # c = (1+i) x^2 + (1+i) x y + y^2, exactly: Im c = x (x + y) vanishes
        # on x = 0 and x = -y, neither along dp1, with Re c = 1 on both
        model = model_from_vectors(d11=np.array([2.0, 0.0]), d12=np.array([1.0, 1.0]),
                                   d21=np.array([1j, 1.0]), d22=np.zeros(2))
        chart = dp.surface_classification_2p(model)
        assert (chart.c11, chart.c12, chart.c22) == (1 + 1j, 1 + 1j, 1)
        assert chart.type == "im-double-intersection" and not chart.chart_degenerate
        report = dp.avoided_crossing_1p(model, [1.0])
        assert report.scenario == "two-im"
        assert sorted(report.dp1_roots) == [-1.0, 0.0]
        assert report.c_values == (1.0, 1.0)

    def test_far_root_past_the_doubles(self):
        # Im c11 = 1e-300 puts a zero line of Im c at dp1 ~ -1e300, where c
        # fits no double: refused, without a warning; the chart is decided
        model = model_from_vectors(d11=np.zeros(2), d12=np.array([1.0, 1.0]),
                                   d21=np.array([1 + 1e-300j, 1 + 1j]), d22=np.zeros(2))
        assert not dp.surface_classification_2p(model).chart_degenerate
        with pytest.raises(DimensionError, match="overflows"):
            dp.avoided_crossing_1p(model, [1.0])

    def test_constant_imaginary_part_never_crosses(self, recwarn):
        # Im c = Im c0 = dp2^2 on the whole line, c1 = 0: no root of Im c
        model = model_from_vectors(
            d11=np.array([2.0, 0.0]), d12=np.array([0.0, 1j]),
            d21=np.array([0.0, 1.0]), d22=np.zeros(2),
        )
        for delta in (0.01, 1e-60):
            report = dp.avoided_crossing_1p(model, [delta])
            assert report.scenario == "no-crossing"
            assert report.dp1_roots is None and report.c_values is None
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


#: a real or imaginary part of a coupling: 0 or of a size whose products
#: stay far above the underflow limit (the offset's scale, down to 1e-303,
#: does not enter the decisions)
PART = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
OFFSET = st.builds(lambda sign, size: sign * size, st.sampled_from((-1.0, 1.0)),
                   st.floats(1e-3, 1.0))


def scale_free_labels(model, offset):
    return {dp.avoided_crossing_1p(model, [offset * 10.0 ** -k]).scenario
            for k in range(301)}


@given(OFFSET)
def test_dp_1p_label_scale_free_on_crystal_two(dp_model_pinned, offset):
    """c is homogeneous of degree 2 in the offsets, so scaling the offset
    by 10^-k, k = 0..300, scales the roots of Im c and the values of c on
    them and changes no label."""
    assert len(scale_free_labels(dp_model_pinned, offset)) == 1


@given(st.lists(st.builds(complex, PART, PART), min_size=8, max_size=8), OFFSET)
def test_dp_1p_label_scale_free_on_random_couplings(parts, offset):
    model = dp.DPLocalModel(p0=np.zeros(2), lam0=0j,
                            coupling=np.array(parts).reshape(2, 2, 2))
    assert len(scale_free_labels(model, offset)) == 1


#: the one-parameter scenario of each two-parameter type
SWEEP_OF_CHART = {"cone-no-intersection": "no-crossing", "one-re-one-im-line": "one-re-one-im",
                  "re-cluster-of-shells": "two-re", "im-double-intersection": "two-im",
                  "degenerate": "degenerate"}


@given(st.lists(st.builds(complex, PART, PART), min_size=8, max_size=8),
       st.sampled_from((-1.0, 1.0)), st.integers(-40, 40))
def test_dp_1p_scenario_is_the_2p_type(parts, sign, j):
    """For n = 2, c along the sweep at dp2 = +-2^j is c on the chart with
    its second axis scaled by a power of two, so the sweep's scenario is
    the chart's type, unless Im c11 = 0 puts a zero line along dp1, which
    never crosses the sweep."""
    model = dp.DPLocalModel(p0=np.zeros(2), lam0=0j,
                            coupling=np.array(parts).reshape(2, 2, 2))
    chart = dp.surface_classification_2p(model)
    sweep = dp.avoided_crossing_1p(model, [sign * 2.0 ** j])
    if chart.c11.imag != 0:
        assert sweep.scenario == SWEEP_OF_CHART[chart.type]


class TestSurfaceClassification2P:
    def test_crystal_two(self, dp_model_pinned):
        report = dp.surface_classification_2p(dp_model_pinned)
        assert report.c11 == pytest.approx(45 + 8j, abs=1e-8)
        assert report.c12 == pytest.approx(128j, abs=1e-8)
        assert report.c22 == pytest.approx(-83 + 8j, abs=1e-8)
        assert report.discriminant == pytest.approx(16128.0, abs=1e-4)
        assert report.type == "one-re-one-im-line"
        assert sorted(report.line_signs) == [-1, 1]

    def test_all_real_degenerate(self):
        model = model_from_vectors(
            d11=np.array([1.0, 0.2]), d12=np.array([0.3, 1.0]),
            d21=np.array([-0.4, 0.8]), d22=np.array([0.6, -1.0]),
        )
        report = dp.surface_classification_2p(model)
        assert report.type == "degenerate"

    def test_constructed_shell_cluster(self):
        # c = (-1+i) x^2 - 3i xy + (-1+2i) y^2: disc 1 > 0, c < 0 on both lines
        model = model_of_form(-1 + 1j, -3j, -1 + 2j)
        report = dp.surface_classification_2p(model)
        assert report.type == "re-cluster-of-shells"
        # dense direction scan: Re lam sheets meet exactly where Im c = 0 and Re c < 0
        for theta in np.linspace(0.0, np.pi, 181, endpoint=False):
            direction = np.array([np.cos(theta), np.sin(theta)])
            value = dp.split_multiparam(model, direction).radicand
            split = dp.split_multiparam(model, direction * 0.01)
            re_meet = abs(split.re_plus - split.re_minus) < 1e-12
            expected = abs(value.imag) < 1e-12 and value.real < 0
            assert re_meet == expected or abs(value.imag) < 1e-9

    def test_coinciding_lines_degenerate(self):
        # Im c a perfect square, (Im c12)^2 = 4 Im c11 Im c22 exactly
        model = model_from_vectors(
            d11=np.zeros(2), d12=np.array([1j, 1j]), d21=np.array([1.0, 1.0]),
            d22=np.zeros(2))
        report = dp.surface_classification_2p(model)
        assert report.discriminant == pytest.approx(0.0, abs=1e-12)
        assert report.type == "degenerate"

    def test_needs_two_parameters(self):
        model = model_from_vectors(
            d11=np.zeros(3), d12=np.ones(3), d21=np.ones(3), d22=np.zeros(3))
        with pytest.raises(EigenCouplingError, match="needs a two-parameter model"):
            dp.surface_classification_2p(model)


class TestFrameInvariance:
    def rebased_model(self, a0, frame, fam, rng):
        t = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        t += 2 * np.eye(2)
        u_new = np.column_stack((frame.u1, frame.u2)) @ t
        new_frame = degeneracy.dp_frame(degeneracy.classify(a0, frame.lam0), right_basis=u_new.T)
        return dp.dp_sensitivities(fam, new_frame, [0.0, 0.0])

    def test_pair_values_invariant(self, crystal2, dp_frame_pinned, dp_model_pinned):
        a0, _, frame = dp_frame_pinned
        rng = np.random.default_rng(71)
        offsets = [rng.normal(size=2) * 0.05 for _ in range(5)]
        for _ in range(3):
            other = self.rebased_model(a0, frame, crystal2, rng)
            for delta in offsets:
                base = dp.split_multiparam(dp_model_pinned, delta)
                new = dp.split_multiparam(other, delta)
                assert abs(base.radicand - new.radicand) < 1e-10
                assert abs(base.lam_plus - new.lam_plus) < 1e-10
                assert abs(base.lam_minus - new.lam_minus) < 1e-10

    def test_trace_invariance(self, crystal2, dp_frame_pinned, dp_model_pinned):
        a0, _, frame = dp_frame_pinned
        rng = np.random.default_rng(73)
        other = self.rebased_model(a0, frame, crystal2, rng)
        base_trace = dp_model_pinned.coupling[0, 0] + dp_model_pinned.coupling[1, 1]
        other_trace = other.coupling[0, 0] + other.coupling[1, 1]
        assert np.allclose(base_trace, other_trace, atol=1e-10)

    def test_individual_vectors_not_invariant(self, crystal2, dp_frame_pinned,
                                              dp_model_pinned):
        a0, _, frame = dp_frame_pinned
        rng = np.random.default_rng(79)
        other = self.rebased_model(a0, frame, crystal2, rng)
        assert not np.allclose(other.coupling[0, 0], dp_model_pinned.coupling[0, 0],
                               atol=1e-6)


class TestCrossingConsistency:
    def test_classifier_agrees_with_sheets(self):
        model = reference_model()
        rest = np.array([0.01])
        report = dp.avoided_crossing_1p(model, rest)
        for root, c_val in zip(report.dp1_roots, report.c_values):
            split = dp.split_multiparam(model, np.concatenate(([root], rest)))
            if c_val < 0:
                assert split.re_plus == pytest.approx(split.re_minus, abs=1e-12)
                assert split.im_plus != pytest.approx(split.im_minus, abs=1e-6)
            else:
                assert split.im_plus == pytest.approx(split.im_minus, abs=1e-12)


class TestAsymptoticCorrectness:
    def test_error_contracts_linearly(self, crystal2, dp_model_pinned):
        rng = np.random.default_rng(83)
        directions = [d / np.linalg.norm(d) for d in rng.normal(size=(5, 2))]

        def model_error(radius):
            worst = 0.0
            for d in directions:
                delta = radius * d
                split = dp.split_multiparam(dp_model_pinned, delta)
                eigs = np.linalg.eigvals(family_mod.evaluate(crystal2, delta))
                best = min(
                    max(abs(eigs[i] - split.lam_plus), abs(eigs[j] - split.lam_minus))
                    for i in range(3) for j in range(3) if i != j
                )
                worst = max(worst, best)
            return worst

        # error ~ radius^2: 16x smaller per 4x step, a slope of 2 +- 0.05
        for radius in (1e-2, 1e-3, 1e-4):
            ratio = model_error(radius / 4) / model_error(radius)
            assert 4.0 ** -2.05 <= ratio <= 4.0 ** -1.95
