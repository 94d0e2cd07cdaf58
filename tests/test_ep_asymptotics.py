import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eigencoupling import degeneracy, ep_asymptotics as ep
from eigencoupling import family as family_mod
from eigencoupling.errors import (
    ChartError,
    DegenerateModelError,
    DimensionError,
    ResolutionError,
)

TOY_A0 = np.array([[0.0, 1.0], [0.0, 0.0]])
TOY_A1 = np.array([[0.0, 0.0], [1.0, 0.0]])


def toy_chain():
    return degeneracy.jordan_chain(degeneracy.classify(TOY_A0, 0.0))


def toy_model():
    # f = (1, 0), g = (0, 1), drift absent
    return ep.EPLocalModel(
        p0=np.zeros(2), lam0=0.0,
        split_re=np.array([1.0, 0.0]), split_im=np.array([0.0, 1.0]),
        drift_re=np.zeros(2), drift_im=np.zeros(2),
    )


def synthetic_model(split_re, split_im, drift_re=None, drift_im=None, lam0=0.0):
    split_re = np.asarray(split_re, dtype=float)
    n = len(split_re)
    return ep.EPLocalModel(
        p0=np.zeros(n), lam0=complex(lam0),
        split_re=split_re, split_im=np.asarray(split_im, dtype=float),
        drift_re=np.zeros(n) if drift_re is None else np.asarray(drift_re, float),
        drift_im=np.zeros(n) if drift_im is None else np.asarray(drift_im, float),
    )


def loop_quartic_residual(model, spec, core: complex) -> float:
    """Residual of the closed-form quartic locus of the loop at one core
    trajectory point: an oracle for ``loop_trajectory``."""
    f1, f2 = model.split_re[:2]
    g1, g2 = model.split_im[:2]
    x, y = core.real, core.imag
    kappa = f2 * g1 - f1 * g2
    lhs = (
        (g1 * x * x - 2 * f1 * x * y - g1 * y * y - spec.b * kappa) ** 2
        + (g2 * x * x - 2 * f2 * x * y - g2 * y * y - spec.a * (f1 * g2 - g1 * f2)) ** 2
    )
    return float(lhs - kappa * kappa * spec.r * spec.r)


class TestCurveSplit:
    def test_toy_square_root(self):
        split = ep.curve_split(toy_chain(), TOY_A0, TOY_A1)
        assert split.mu1 == pytest.approx(1.0)
        assert split.mu2 == pytest.approx(0.0, abs=1e-14)
        for eps in (1e-4, 1e-2):
            assert split.lam_plus(eps) == pytest.approx(np.sqrt(eps))
            assert split.lam_minus(eps) == pytest.approx(-np.sqrt(eps))

    def test_toy_eigenvector_map_is_exact(self):
        split = ep.curve_split(toy_chain(), TOY_A0, TOY_A1)
        for eps in (1e-6, 1e-3):
            a_eps = TOY_A0 + eps * TOY_A1
            for lam, vec in ((split.lam_plus(eps), split.u_plus(eps)),
                             (split.lam_minus(eps), split.u_minus(eps))):
                assert np.linalg.norm(a_eps @ vec - lam * vec) < 1e-12

    def test_crystal_direction_coefficient(self, crystal1, ep_chain):
        a0, _, chain = ep_chain
        a1 = family_mod.derivative(crystal1, [0.0, 0.0])[0]
        split = ep.curve_split(chain, a0, a1)
        assert split.mu1 == pytest.approx(-4j, abs=1e-8)

    def test_zero_direction(self, ep_chain):
        a0, _, chain = ep_chain
        split = ep.curve_split(chain, a0, np.zeros((3, 3)))
        assert split.mu1 == pytest.approx(0.0)
        assert split.mu2 == pytest.approx(0.0)
        assert split.lam_plus(0.01) == pytest.approx(chain.lam0)

    def test_singular_bordered_matrix_refused(self):
        # u1 = 0 leaves the bordered matrix A0 - lam0 I + u1 v1* = A0, a nilpotent block
        chain = dataclasses.replace(toy_chain(), u1=np.zeros(2, dtype=complex))
        with pytest.raises(DegenerateModelError, match="bordered matrix"):
            ep.curve_split(chain, TOY_A0, TOY_A1)


class TestSensitivities:
    def test_crystal_reference_vectors(self, ep_model):
        assert np.allclose(ep_model.split_re, [0.0, 4.0], atol=1e-8)
        assert np.allclose(ep_model.split_im, [-4.0, 0.0], atol=1e-8)
        assert np.allclose(ep_model.drift_re, [0.0, 0.0], atol=1e-8)
        assert np.allclose(ep_model.drift_im, [-4.0, 0.0], atol=1e-8)

    def test_toy_family(self):
        fam = family_mod.MatrixFamily(
            2, 2,
            evaluator=lambda p: np.array([[0.0, 1.0], [p[0] + 1j * p[1], 0.0]]),
            deriv=lambda p: [np.array([[0.0, 0.0], [1.0, 0.0]]),
                             np.array([[0.0, 0.0], [1j, 0.0]])],
        )
        model = ep.sensitivities(fam, toy_chain(), [0.0, 0.0])
        assert np.allclose(model.split_re, [1.0, 0.0], atol=1e-12)
        assert np.allclose(model.split_im, [0.0, 1.0], atol=1e-12)
        assert np.allclose(model.drift_re, 0.0, atol=1e-12)
        assert np.allclose(model.drift_im, 0.0, atol=1e-12)

    def test_constant_family(self):
        fam = family_mod.MatrixFamily(
            2, 2, evaluator=lambda p: TOY_A0,
            deriv=lambda p: [np.zeros((2, 2))] * 2,
        )
        model = ep.sensitivities(fam, toy_chain(), [0.0, 0.0])
        for vector in (model.split_re, model.split_im, model.drift_re, model.drift_im):
            assert np.all(vector == 0.0)


class TestSurfaceEval:
    def test_crystal_along_second_axis(self, ep_model):
        t = 0.01
        sheets = ep.surface_eval(ep_model, [0.0, t])
        assert sheets.re_plus == pytest.approx(2 + 2 * np.sqrt(t), abs=1e-10)
        assert sheets.re_minus == pytest.approx(2 - 2 * np.sqrt(t), abs=1e-10)
        assert sheets.im_plus == pytest.approx(0.0, abs=1e-10)
        assert sheets.im_minus == pytest.approx(0.0, abs=1e-10)

    def test_origin(self, ep_model):
        sheets = ep.surface_eval(ep_model, [0.0, 0.0])
        assert sheets.re_plus == sheets.re_minus == pytest.approx(2.0, abs=1e-12)
        assert sheets.im_plus == sheets.im_minus == pytest.approx(0.0, abs=1e-12)

    def test_crystal_along_first_axis(self, ep_model):
        t = 0.01
        sheets = ep.surface_eval(ep_model, [t, 0.0])
        root = np.sqrt(2 * t)
        assert sheets.re_plus == pytest.approx(2 + root, abs=1e-10)
        assert sheets.re_minus == pytest.approx(2 - root, abs=1e-10)
        assert sheets.im_plus == pytest.approx(-2 * t + root, abs=1e-10)
        assert sheets.im_minus == pytest.approx(-2 * t - root, abs=1e-10)

    def test_squared_consistency_random(self):
        rng = np.random.default_rng(41)
        for _ in range(2000):
            n = int(rng.integers(1, 5))
            model = synthetic_model(
                rng.normal(size=n), rng.normal(size=n),
                rng.normal(size=n), rng.normal(size=n),
                lam0=complex(rng.normal(), rng.normal()),
            )
            dp = rng.normal(size=n)
            f_dp, g_dp = ep.tangency_conditions(model, dp)
            sheets = ep.surface_eval(model, dp)
            lam_a, lam_b = sheets.lam_plus, sheets.lam_minus
            mid = complex(
                model.lam0.real + 0.5 * model.drift_re @ dp,
                model.lam0.imag + 0.5 * model.drift_im @ dp,
            )
            delta = lam_a - mid
            rho = abs(complex(f_dp, g_dp))
            tol = 1e-12 * max(1.0, rho)
            assert abs((delta.real ** 2 - delta.imag ** 2) - f_dp) < tol
            assert abs(2 * delta.real * delta.imag - g_dp) < tol
            assert lam_b - mid == pytest.approx(-delta)


class TestTangency:
    def test_crystal_first_direction(self, ep_model):
        assert ep.tangency_conditions(ep_model, [1.0, 0.0]) == pytest.approx(
            (0.0, -4.0), abs=1e-8)

    def test_zero_offset(self, ep_model):
        assert ep.tangency_conditions(ep_model, [0.0, 0.0]) == (0.0, 0.0)

    def test_three_parameter_orthogonal_direction(self):
        f = np.array([1.0, 2.0, -0.5])
        g = np.array([0.3, -1.0, 2.0])
        model = synthetic_model(f, g)
        dp = np.cross(f, g)
        assert ep.tangency_conditions(model, dp) == pytest.approx((0.0, 0.0), abs=1e-12)


class TestBranchCuts:
    def test_crystal_cuts(self, ep_model):
        cuts = ep.branch_cuts(ep_model)
        # normal along split_im = (-4, 0): the cut line is s1 = 0
        assert abs(cuts.re_cut.normal @ [0.0, 1.0]) < 1e-8   # ray direction s2
        assert cuts.re_cut.sign == -1
        # on the re cut the sign condition <f, dp> <= 0 selects s2 <= 0
        assert cuts.re_cut.sign_coeff @ [0.0, -1.0] < 0
        assert cuts.im_cut.sign == +1

    def test_plain_model_cuts(self):
        model = toy_model()
        cuts = ep.branch_cuts(model)
        assert abs(cuts.re_cut.normal @ [1.0, 0.0]) < 1e-14  # cut line p2 = 0
        assert cuts.re_cut.level_base == 0.0

    def test_zero_drift_levels(self):
        cuts = ep.branch_cuts(toy_model())
        assert np.allclose(cuts.re_cut.level_coeff, 0.0)
        assert np.allclose(cuts.im_cut.level_coeff, 0.0)

    def test_ray_polyline(self, ep_model):
        cuts = ep.branch_cuts(ep_model)
        offsets, levels = cuts.re_cut.ray_points([0.01, 0.02, 0.05])
        for dp, level in zip(offsets, levels):
            # on the ray: <g, dp> = 0, <f, dp> <= 0, glued Re level matches
            assert abs(ep_model.split_im @ dp) < 1e-12
            assert ep_model.split_re @ dp <= 0
            sheets = ep.surface_eval(ep_model, dp)
            assert sheets.re_plus == pytest.approx(level, abs=1e-12)
            assert sheets.re_minus == pytest.approx(level, abs=1e-12)

    def test_degenerate_model(self):
        model = synthetic_model([1.0, 0.0], [0.0, 0.0])
        with pytest.raises(DegenerateModelError):
            ep.branch_cuts(model)


class TestComplexPlaneConic:
    def test_zero_offsets_perpendicular_lines(self, ep_model):
        report = ep.complex_plane_conic(ep_model, [0.0])
        assert report.kind == "perpendicular-lines"
        assert report.gamma == 0.0
        assert report.asymptote_slopes[0] * report.asymptote_slopes[1] == pytest.approx(-1.0)

    def test_crystal_gamma(self, ep_model):
        delta = 0.01
        report = ep.complex_plane_conic(ep_model, [delta])
        assert report.gamma == pytest.approx(-16.0 * delta, abs=1e-8)
        assert report.kind == "hyperbola"

    def test_gamma_sign_flip_swaps_quadrants(self, ep_model):
        pos = ep.complex_plane_conic(ep_model, [0.01])
        neg = ep.complex_plane_conic(ep_model, [-0.01])
        assert pos.asymptote_slopes == neg.asymptote_slopes
        assert pos.hyperbola_rhs == pytest.approx(-neg.hyperbola_rhs)
        g1, minus2f1, _ = pos.quad_coeffs
        f1 = -minus2f1 / 2.0

        def quad_values(report):
            lam = report.samples - 2.0   # offsets from lam0
            x, y = lam.real, lam.imag
            return g1 * x * x - 2 * f1 * x * y - g1 * y * y

        # every sampled point sits on its conic; the branch quadrants swap
        # with the sign of gamma while the asymptotes stay put
        assert np.allclose(quad_values(pos), pos.gamma, atol=1e-12)
        assert np.allclose(quad_values(neg), neg.gamma, atol=1e-12)

    def test_perpendicularity_random(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            f1, g1 = rng.normal(size=2)
            if abs(g1) < 1e-3:
                continue
            model = synthetic_model([f1, 0.0], [g1, 1.0])
            report = ep.complex_plane_conic(model, [0.0])
            product = report.asymptote_slopes[0] * report.asymptote_slopes[1]
            assert product == pytest.approx(-1.0, abs=1e-10)

    def test_chart_error_without_g1(self):
        model = synthetic_model([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ChartError):
            ep.complex_plane_conic(model, [0.0])


class TestCrossSection:
    def test_crystal_double_cusp(self, ep_model):
        section = ep.cross_section(ep_model, [0.0])
        assert section.crossing == "cusp"
        assert section.vertical_tangents
        assert section.p1_cross == pytest.approx(0.0, abs=1e-10)
        # inner radicand coefficients (f1 +- rho1)/2 with f1 = 0, rho1 = 4
        assert section.cusp_re_coeffs[0] == pytest.approx(2.0, abs=1e-8)
        assert section.cusp_re_coeffs[1] == pytest.approx(-2.0, abs=1e-8)
        # and their Im counterparts (rho1 - f1)/2, -(f1 + rho1)/2
        assert section.cusp_im_coeffs[:2] == pytest.approx((2.0, -2.0), abs=1e-8)
        # the cusp branches match the surfaces: Re delta = sqrt(2|t|)
        for t in (0.01, -0.01):
            sheets = ep.surface_eval(ep_model, [t, 0.0])
            assert sheets.re_plus - 2.0 == pytest.approx(np.sqrt(2 * abs(t)), abs=1e-9)

    def test_trivial_levels(self):
        model = synthetic_model([2.0, 1.0], [1.0, 0.5])
        section = ep.cross_section(model, [0.0])
        assert section.re_level == pytest.approx(0.0)
        assert section.im_level == pytest.approx(0.0)

    def test_crystal_offset_section_slopes(self, ep_model):
        section = ep.cross_section(ep_model, [0.01])
        assert section.gamma == pytest.approx(-0.16, abs=1e-8)
        assert section.crossing == "im"
        assert section.re_slopes is None
        assert sorted(section.im_slopes) == pytest.approx([-12.0, 8.0], abs=1e-6)

    def test_slopes_match_finite_differences(self, ep_model):
        # one-sided slopes of the crossing sheets around p1_cross
        section = ep.cross_section(ep_model, [0.01])
        h = 1e-9
        up = ep.surface_eval(ep_model, [section.p1_cross + h, 0.01])
        down = ep.surface_eval(ep_model, [section.p1_cross - h, 0.01])
        level = section.im_level
        got = sorted([
            (up.im_plus - level) / h, (up.im_minus - level) / h,
            (level - down.im_plus) / h, (level - down.im_minus) / h,
        ])
        want = sorted(2 * list(section.im_slopes))
        assert got == pytest.approx(want, rel=1e-4)

    def test_synthetic_three_parameter_levels(self):
        model = synthetic_model(
            [1.0, 0.0, 0.0], [1.0, 0.5, 0.0],
            drift_re=[0.5, 0.2, -0.3], drift_im=[-0.1, 0.4, 0.7],
            lam0=1.0 + 2.0j,
        )
        section = ep.cross_section(model, [0.0, 0.01])
        # g3 = 0 so the crossing abscissa stays at the anchor
        assert section.p1_cross == pytest.approx(0.0, abs=1e-14)
        # f3 g1 - f1 g3 = 0 too: gamma = 0, both sheet pairs meet at the levels
        assert section.crossing == "cusp"
        sheets = ep.surface_eval(model, [0.0, 0.0, 0.01])
        assert sheets.re_plus == pytest.approx(section.re_level, abs=1e-12)
        assert sheets.re_minus == pytest.approx(section.re_level, abs=1e-12)
        assert sheets.im_plus == pytest.approx(section.im_level, abs=1e-12)

    def test_chart_error(self):
        model = synthetic_model([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ChartError):
            ep.cross_section(model, [0.0])


class TestLoopTrajectory:
    def test_inside_regime(self, ep_model):
        r = 0.01
        report = ep.loop_trajectory(ep_model, ep.LoopSpec(a=0.0, b=0.0, r=r))
        assert report.regime == "inside"
        assert report.n_curves == 1
        assert report.winding_number == 1
        re_line = sorted(c.ordinate for c in report.axis_crossings if c.axis == "re")
        assert re_line == pytest.approx([-2 * np.sqrt(r), 2 * np.sqrt(r)], rel=1e-6)

    def test_on_regime_exact_boundary(self, ep_model):
        report = ep.loop_trajectory(ep_model, ep.LoopSpec(a=0.01, b=0.0, r=0.01))
        assert report.regime == "on"

    def test_outside_regime_kidneys(self, ep_model):
        report = ep.loop_trajectory(ep_model, ep.LoopSpec(a=0.0, b=0.02, r=0.01))
        assert report.regime == "outside"
        assert report.n_curves == 2
        assert report.winding_number == 0
        assert report.sigma_sign == 1
        # sigma > 0: only the Im lam = Im lam0 line is crossed
        assert {c.axis for c in report.axis_crossings} == {"im"}

    def test_sigma_negative_crosses_re_line(self, ep_model):
        report = ep.loop_trajectory(ep_model, ep.LoopSpec(a=0.0, b=-0.02, r=0.01))
        assert report.sigma_sign == -1
        assert {c.axis for c in report.axis_crossings} == {"re"}
        # each kidney crosses the Re line twice: count sign changes of Re
        for curve in (report.core_plus, report.core_minus):
            signs = np.sign(curve.real)
            flips = np.count_nonzero(signs != np.roll(signs, 1))
            assert flips == 2

    def test_degenerate_radius_collapse(self, ep_model):
        r = 1e-10
        report = ep.loop_trajectory(ep_model, ep.LoopSpec(a=0.0, b=0.0, r=r))
        assert np.max(np.abs(report.lam_plus - ep_model.lam0)) < 3 * np.sqrt(4 * r)

    def test_quartic_residual_on_samples(self, ep_model):
        spec = ep.LoopSpec(a=0.003, b=-0.002, r=0.01)
        report = ep.loop_trajectory(ep_model, spec)
        scale = (16.0 * spec.r) ** 2   # (f2 g1 - f1 g2)^2 r^2
        worst = max(abs(loop_quartic_residual(ep_model, spec, z))
                    for z in report.core_plus)
        assert worst < 1e-10 * scale

    def test_resolution_error_on_coarse_sampling(self):
        model = synthetic_model([1.0, 0.0], [0.0, 50.0])
        with pytest.raises(ResolutionError):
            ep.loop_trajectory(model, ep.LoopSpec(a=0.0, b=0.0, r=0.01, samples=16))
        report = ep.loop_trajectory(model, ep.LoopSpec(a=0.0, b=0.0, r=0.01))
        assert report.winding_number == 1

    @pytest.mark.parametrize("samples", [720, 14400, 72000])
    def test_winding_matches_the_whole_curve_sum(self, ep_model, samples):
        """The one-curve turn sums core_a's steps once, doubled, plus the two
        junctions; summed over the whole curve in one pass instead, as it
        used to be, the angles differ by rounding only and round to the same
        winding number, on loops inside, outside and close to either side of
        the EP."""
        curves = set()
        for r in (1e-4, 1e-3, 1e-2, 1e-1):
            for ratio in (0.0, 0.5, 0.999, 0.99999, 1.00001, 1.001, 2.0):
                for phi in (0.3, 2.5, 4.4):
                    spec = ep.LoopSpec(a=r * ratio * math.cos(phi), b=r * ratio * math.sin(phi),
                                       r=r, samples=samples)
                    try:
                        report = ep.loop_trajectory(ep_model, spec)
                    except ResolutionError:     # too close to the EP for these samples
                        continue
                    curve = (np.concatenate((report.core_plus, report.core_minus))
                             if report.n_curves == 1 else report.core_plus)
                    whole = np.angle(curve / np.roll(curve, 1)).sum()
                    turn = ep._turn(report.core_plus, report.core_minus, report.n_curves)
                    assert abs(turn - whole) <= 1e-9
                    assert report.winding_number == int(round(whole / (2.0 * math.pi)))
                    curves.add((report.n_curves, report.winding_number))
        assert curves == {(1, 1), (2, 0)}

    def test_loop_spec_validation(self):
        with pytest.raises(DimensionError):
            ep.LoopSpec(a=0.0, b=0.0, r=-1.0)
        with pytest.raises(DimensionError):
            ep.LoopSpec(a=0.0, b=0.0, r=1.0, samples=8)
        for a, b, r in ((0.0, 0.0, 1e300), (1e200, 0.0, 1.0), (1e154, 1e154, 1.0),
                        (0.0, 0.0, float("nan"))):
            with pytest.raises(DimensionError):
                ep.LoopSpec(a=a, b=b, r=r)

    def test_overflowing_loop_is_refused(self, ep_model):
        # radicand F + iG overflows although the loop's squares are finite
        with pytest.raises(DimensionError, match="radicand"):
            ep.loop_trajectory(synthetic_model([1e300, 0.0], [0.0, 1.0]),
                               ep.LoopSpec(a=0.0, b=0.0, r=1e10))
        # the closed-form axis crossings overflow on the crystal's model
        with pytest.raises(DimensionError, match="axis crossing"):
            ep.loop_trajectory(ep_model, ep.LoopSpec(a=0.0, b=0.0, r=1.3e154))
        # sigma = (f2 g1 - f1 g2)(g1 b - g2 a) = 1e300 * 1e10
        with pytest.raises(DimensionError, match="sigma"):
            ep.loop_trajectory(synthetic_model([0.0, 1e150], [1e150, 0.0]),
                               ep.LoopSpec(a=0.0, b=1e-140, r=1.0))


def reference_tracking(roots, phis=None):
    """Per-sample nearest-neighbour tracking, one keep-or-swap decision per
    sample, with the branch-jump check when ``phis`` is given: the oracle of
    the vectorised tracker."""
    nphi = len(roots)
    core_a = np.empty(nphi, dtype=complex)
    core_b = np.empty(nphi, dtype=complex)
    core_a[0], core_b[0] = roots[0], -roots[0]
    scale = float(np.abs(roots).max(initial=0.0))
    for k in range(1, nphi):
        r_k = roots[k]
        keep = abs(core_a[k - 1] - r_k) + abs(core_b[k - 1] + r_k)
        swap = abs(core_a[k - 1] + r_k) + abs(core_b[k - 1] - r_k)
        if keep <= swap:
            core_a[k], core_b[k] = r_k, -r_k
        else:
            core_a[k], core_b[k] = -r_k, r_k
        if phis is None:
            continue
        jump = abs(core_a[k] - core_a[k - 1])
        span = abs(core_a[k]) + abs(core_a[k - 1])
        if span > 0.1 * scale and jump > 0.3 * span:
            raise ResolutionError(
                f"branch jump {jump:.3e} at phi={phis[k]:.3f} too large; "
                f"increase samples (currently {nphi})"
            )
    return core_a, core_b


def reference_loop(model, spec):
    phis = np.linspace(0.0, 2.0 * np.pi, spec.samples, endpoint=False)
    dps = np.column_stack((spec.a + spec.r * np.cos(phis),
                           spec.b + spec.r * np.sin(phis)))
    w = dps @ (model.split_re + 1j * model.split_im).astype(complex)
    return reference_tracking(np.sqrt(w.astype(complex)), phis)


def same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


class TestTrackingOracle:
    """The vectorised branch tracker takes the per-sample loop's decisions."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_models_and_loops(self, seed):
        rng = np.random.default_rng(seed)
        model = synthetic_model(rng.normal(size=2) * 10.0 ** rng.uniform(-2, 2),
                                rng.normal(size=2) * 10.0 ** rng.uniform(-2, 2),
                                rng.normal(size=2), rng.normal(size=2))
        raised = 0
        for regime in ("inside", "on", "outside"):
            r = 10.0 ** rng.uniform(-4, -1)
            phi = rng.uniform(0.0, 2.0 * np.pi)
            d = {"inside": rng.uniform(0.0, 0.9), "on": 1.0,
                 "outside": rng.uniform(1.1, 3.0)}[regime] * r
            for samples in (16, 17, 720, 14400):
                spec = ep.LoopSpec(a=d * np.cos(phi), b=d * np.sin(phi), r=r,
                                   samples=samples)
                try:
                    want_a, want_b = reference_loop(model, spec)
                except ResolutionError as exc:
                    with pytest.raises(ResolutionError) as got:
                        ep.loop_trajectory(model, spec)
                    assert str(got.value) == str(exc)
                    raised += 1
                    continue
                report = ep.loop_trajectory(model, spec)
                assert same_bits(report.core_plus, want_a)
                assert same_bits(report.core_minus, want_b)
        assert raised < 12

    def test_same_resolution_error_text(self):
        model = synthetic_model([1.0, 0.0], [0.0, 50.0])
        for samples in (16, 17, 20):
            spec = ep.LoopSpec(a=0.0, b=0.0, r=0.01, samples=samples)
            with pytest.raises(ResolutionError) as want:
                reference_loop(model, spec)
            with pytest.raises(ResolutionError) as got:
                ep.loop_trajectory(model, spec)
            assert str(got.value) == str(want.value)

    def test_crafted_ties(self):
        # |1 - 1j| == |1 + 1j| and an exact zero root give near == far; NaN
        # and inf pairs are unordered or tied
        specials = np.array([0.0, 1.0, -1.0, 1j, -1j, 1 + 1j, 2.0, -0.0,
                             complex(np.nan, 0.0), complex(np.inf, 0.0)])
        fixed = [np.array([1.0, 0.0, 1j, 0.0, -1.0, 1.0 + 0j]),
                 np.array([1.0, 1j, -1.0, -1j, 1.0, 1j]),
                 np.array([1j, 1.0, 1j, 1.0, -1j])]
        rng = np.random.default_rng(7)
        random = [np.where(rng.random(200) < 0.5, rng.choice(specials, 200),
                           rng.normal(size=200) + 1j * rng.normal(size=200))
                  for _ in range(20)]
        with np.errstate(invalid="ignore"):
            for roots in fixed + random:
                roots = roots.astype(complex)
                want_a, _ = reference_tracking(roots)
                assert same_bits(ep._track_branch(roots), want_a)
        # four ties keep branch a on the principal root, then -1 -> 1 flips it
        assert ep._track_branch(fixed[0].astype(complex))[-1] == -1.0


@np.errstate(over="ignore", invalid="ignore")
def three_abs_loop(model, spec):
    """``loop_trajectory`` with each magnitude taken from the array it
    measures: |roots| for the scale, |core_a| for the span and |curve| for
    the zero test before the winding. The oracle of its single |roots|."""
    nphi = spec.samples
    phis = np.linspace(0.0, 2.0 * math.pi, nphi, endpoint=False)
    dps = np.column_stack((spec.a + spec.r * np.cos(phis),
                           spec.b + spec.r * np.sin(phis)))
    mid, radicand = model.pair_terms(dps)
    if not (np.isfinite(mid).all() and np.isfinite(radicand).all()):
        raise DimensionError("the pair mean or the radicand F + iG overflows on this loop; "
                             "shrink the loop")
    roots = np.sqrt(radicand)
    core_a = ep._track_branch(roots)
    core_b = -core_a
    scale = float(np.abs(roots).max(initial=0.0))
    jump = np.abs(core_a[1:] - core_a[:-1])
    span = np.abs(core_a[1:]) + np.abs(core_a[:-1])
    bad = np.flatnonzero((span > 0.1 * scale) & (jump > 0.3 * span))
    if bad.size:
        k = bad[0]
        raise ResolutionError(
            f"branch jump {jump[k]:.3e} at phi={phis[k + 1]:.3f} too large; "
            f"increase samples (currently {nphi})"
        )
    end_keep = abs(core_a[-1] - core_a[0]) + abs(core_b[-1] - core_b[0])
    end_swap = abs(core_a[-1] - core_b[0]) + abs(core_b[-1] - core_a[0])
    n_curves = 2 if end_keep <= end_swap else 1
    rho2 = spec.a ** 2 + spec.b ** 2
    if abs(rho2 - spec.r ** 2) <= 1e-12 * max(rho2, spec.r ** 2):
        regime = "on"
    elif rho2 < spec.r ** 2:
        regime = "inside"
    else:
        regime = "outside"
    f1, f2 = model.split_re[:2]
    g1, g2 = model.split_im[:2]
    sigma = (f2 * g1 - f1 * g2) * (g1 * spec.b - g2 * spec.a)
    crossings = ep._axis_crossings(model, spec.a, spec.b, spec.r)
    if not all(math.isfinite(x) for x in (sigma, *(c.ordinate for c in crossings))):
        raise DimensionError("sigma or an axis crossing overflows on this loop; "
                             "shrink the loop")
    winding = None
    if regime != "on":
        curve = np.concatenate((core_a, core_b)) if n_curves == 1 else core_a
        if float(np.abs(curve).min()) > 0.0:
            angles = np.angle(curve / np.roll(curve, 1))
            winding = int(round(angles.sum() / (2.0 * math.pi)))
    return (regime, n_curves, winding, float(sigma), crossings,
            phis, mid + core_a, mid + core_b, core_a, core_b)


#: a model coefficient: zero, ordinary, or far enough out that the radicand
#: underflows to exact zeros or overflows on some loops
COEFF = st.one_of(st.sampled_from([0.0, 1e-300, -1e-300, 1e150, -1e300]),
                  st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def loops_about_an_ep(draw):
    """A synthetic EP model and a loop inside, on or outside its EP."""
    model = synthetic_model(*(draw(st.lists(COEFF, min_size=2, max_size=2))
                              for _ in range(4)))
    r = draw(st.sampled_from([1e-12, 1e-4, 0.01, 1.0, 1e10]))
    d = r * draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    return model, ep.LoopSpec(a=d * math.cos(phi), b=d * math.sin(phi), r=r,
                              samples=draw(st.sampled_from([16, 17, 720, 2000])))


#: loops inside and outside the EP on which two of 720 radicands underflow
#: to zero (p1 = r cos phi near phi = pi/2, 3pi/2) and the others do not
PARTIAL_ZEROS = [(synthetic_model([1e-300, 0.0], [0.0, 0.0]),
                  ep.LoopSpec(a=0.0, b=b, r=1e-12, samples=720)) for b in (0.0, 2e-12)]


@settings(max_examples=300)
@given(loops_about_an_ep())
@example(PARTIAL_ZEROS[0])
@example(PARTIAL_ZEROS[1])
def test_loop_trajectory_matches_three_abs_form(case):
    """``loop_trajectory`` takes |roots| once for the scale, the span and the
    zero test: the same regime, curves, winding, errors and arrays, bit for
    bit, as with each magnitude taken from its own array."""
    model, spec = case
    try:
        want = three_abs_loop(model, spec)
    except (DimensionError, ResolutionError) as exc:
        with pytest.raises(type(exc)) as got:
            ep.loop_trajectory(model, spec)
        assert str(got.value) == str(exc)
        return
    report = ep.loop_trajectory(model, spec)
    assert (report.regime, report.n_curves, report.winding_number, report.sigma,
            report.axis_crossings) == want[:5]
    for got, expected in zip((report.phis, report.lam_plus, report.lam_minus,
                              report.core_plus, report.core_minus), want[5:]):
        assert same_bits(got, expected)


class TestGenericFamilyPipeline:
    def build_family(self, seed):
        # random 4x4 family with a constructed defective pair at the origin
        rng = np.random.default_rng(seed)
        lam0 = complex(rng.normal(), rng.normal())
        jordan = np.diag([lam0, lam0, *(rng.normal(size=2) + 3.0)]).astype(complex)
        jordan[0, 1] = 1.0
        q = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 3 * np.eye(4)
        a0 = q @ jordan @ np.linalg.inv(q)
        b1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        fam = family_mod.MatrixFamily(
            4, 2,
            evaluator=lambda p: a0 + p[0] * b1 + p[1] * b2,
            deriv=lambda p: [b1, b2],
        )
        return fam, a0, lam0

    def test_model_error_shrinks_at_three_halves_order(self):
        for seed in (7, 19):
            fam, a0, lam0 = self.build_family(seed)
            chain = degeneracy.jordan_chain(degeneracy.classify(a0, lam0))
            model = ep.sensitivities(fam, chain, [0.0, 0.0])
            rng = np.random.default_rng(seed + 1)
            directions = [d / np.linalg.norm(d) for d in rng.normal(size=(4, 2))]

            def worst_error(eps):
                worst = 0.0
                for d in directions:
                    dp = eps * d
                    point = ep.surface_eval(model, dp)
                    pair = (point.lam_plus, point.lam_minus)
                    eigs = np.linalg.eigvals(family_mod.evaluate(fam, dp))
                    best = min(
                        max(abs(eigs[i] - pair[0]), abs(eigs[j] - pair[1]))
                        for i in range(4) for j in range(4) if i != j
                    )
                    worst = max(worst, best)
                return worst

            for eps in (1e-3, 1e-4):
                assert worst_error(eps / 4) <= 0.45 * worst_error(eps) / 2.0

    def test_curve_split_matches_exact_eigenvalues(self, crystal1, ep_chain):
        a0, _, chain = ep_chain
        a1 = family_mod.derivative(crystal1, [0.0, 0.0])[0]
        split = ep.curve_split(chain, a0, a1)

        def error(eps):
            eigs = np.linalg.eigvals(family_mod.evaluate(crystal1, [eps, 0.0]))
            pair = (split.lam_plus(eps), split.lam_minus(eps))
            return min(
                max(abs(eigs[i] - pair[0]), abs(eigs[j] - pair[1]))
                for i in range(3) for j in range(3) if i != j
            )

        for eps in (1e-3, 1e-4, 1e-5):
            # remainder beyond the sqrt + linear model is o(eps)
            assert error(eps / 4) <= 0.3 * error(eps)


class TestAsymptoticCorrectness:
    def test_normalized_error_contracts(self, crystal1, ep_model):
        rng = np.random.default_rng(47)
        directions = [rng.normal(size=2) for _ in range(5)]
        directions = [d / np.linalg.norm(d) for d in directions]

        def model_error(eps):
            worst = 0.0
            for d in directions:
                dp = eps * d
                point = ep.surface_eval(ep_model, dp)
                pair = (point.lam_plus, point.lam_minus)
                eigs = np.linalg.eigvals(family_mod.evaluate(crystal1, dp))
                best = min(
                    max(abs(eigs[i] - pair[0]), abs(eigs[j] - pair[1]))
                    for i in range(3) for j in range(3) if i != j
                )
                worst = max(worst, best)
            return worst

        # error ~ eps^(3/2): the normalised error error / sqrt(eps) shrinks
        # 4x per 4x step, a slope of 1.5 +- 0.05 in log-log
        for eps in (1e-2, 1e-4, 1e-6):
            coarse = model_error(eps) / np.sqrt(eps)
            fine = model_error(eps / 4) / np.sqrt(eps / 4)
            assert 4.0 ** -1.05 <= fine / coarse <= 4.0 ** -0.95

    def test_branch_cut_gluing_rate(self, crystal1):
        # on the re-cut ray (s1 = 0, s2 < 0) the exact Re parts coincide to
        # higher order than the generic sqrt splitting; for this family the
        # exact cut lies on the ray itself, so the gap sits at roundoff,
        # far below any r^(1/2 + delta) envelope
        radii = np.array([0.04 / 2 ** k for k in range(5)])
        for r in radii:
            eigs = np.linalg.eigvals(family_mod.evaluate(crystal1, [0.0, -r]))
            pair = sorted(eigs, key=lambda z: abs(z - 2.0))[:2]
            gap = abs(pair[0].real - pair[1].real)
            assert gap <= 1e-3 * r ** 0.9
