"""Acceptance suite.

One test per acceptance criterion, each pinned at its stated tolerance and
printing a PASS line when it holds (run with ``pytest tests/test_acceptance.py -v``
or ``-s`` to see the lines). All expected values are frozen here, independent
of the library paths they check.
"""

import cmath

import numpy as np
import pytest

from eigencoupling import (
    classify,
    codimension,
    crystal_optics,
    degeneracy,
    dp_asymptotics,
    ep_asymptotics,
    find_double_eigenvalues,
    find_ep,
    numkit,
)
from eigencoupling import family as family_mod

# frozen expected values for the two builtin crystals
EX1_SPLIT_RE = np.array([0.0, 4.0])       # f
EX1_SPLIT_IM = np.array([-4.0, 0.0])      # g
EX1_DRIFT_RE = np.array([0.0, 0.0])       # h
EX1_DRIFT_IM = np.array([-4.0, 0.0])      # r
EX1_LAM0 = 2.0
EX1_CHAIN = {
    "u0": np.array([1j, -1.0, 0.0]),
    "u1": np.array([0.0, 1.0, 0.0]),
    "v0": np.array([1j, 1.0, 1.0 + 0.5j]),
    "v1": np.array([1j, 0.0, 0.5 - 0.25j]),
}
EX2_LAM0 = 1 + 5j
EX2_D = {
    (0, 0): np.array([-2 - 8j, 0.0]),
    (0, 1): np.array([6j, -9 - 4j]),
    (1, 0): np.array([-10j, 7 - 4j]),
    (1, 1): np.array([0.0, -4j]),
}
EX2_C_COEFFS = (45 + 8j, 128j, -83 + 8j)
EX2_V1 = np.array([1.0, 0.0, (-3 - 4j) / (1 - 5j)])
EX2_V2 = np.array([0.0, 1.0, 2j / (1 - 5j)])

PASS_LINES = []


def report_pass(number, text):
    line = f"ACCEPTANCE {number:02d} PASS: {text}"
    PASS_LINES.append(line)
    print(line)


@pytest.fixture(scope="module")
def ex1():
    fam = crystal_optics.family_adapter(
        crystal_optics.builtin_specs()["crystal-example-1"])
    a0 = family_mod.evaluate(fam, [0.0, 0.0])
    cluster = find_double_eigenvalues(a0)[0]
    chain = degeneracy.jordan_chain(degeneracy.classify(a0, cluster.center))
    model = ep_asymptotics.sensitivities(fam, chain, [0.0, 0.0])
    return fam, a0, cluster, chain, model


@pytest.fixture(scope="module")
def ex2():
    fam = crystal_optics.family_adapter(
        crystal_optics.builtin_specs()["crystal-example-2"])
    a0 = family_mod.evaluate(fam, [0.0, 0.0])
    cluster = find_double_eigenvalues(a0)[0]
    return fam, a0, cluster


def exact_pair_error(fam, dp, lam_a, lam_b):
    eigs = np.linalg.eigvals(family_mod.evaluate(fam, dp))
    m = len(eigs)
    return min(
        max(abs(eigs[i] - lam_a), abs(eigs[j] - lam_b))
        for i in range(m) for j in range(m) if i != j
    )


def test_criterion_01_example1_sensitivity_vectors(ex1):
    _, _, _, _, model = ex1
    assert np.allclose(model.split_re, EX1_SPLIT_RE, atol=1e-8)
    assert np.allclose(model.split_im, EX1_SPLIT_IM, atol=1e-8)
    assert np.allclose(model.drift_re, EX1_DRIFT_RE, atol=1e-8)
    assert np.allclose(model.drift_im, EX1_DRIFT_IM, atol=1e-8)
    report_pass(1, "crystal-1 sensitivity vectors match reference values to 1e-8")


def test_criterion_02_example1_jordan_chain_relations(ex1):
    _, a0, _, chain, _ = ex1
    tol = 1e-8 * np.linalg.norm(a0, 2)

    def residuals(c):
        shifted = a0 - c["lam0"] * np.eye(3)
        adj = shifted.conj().T
        return (
            np.linalg.norm(shifted @ c["u0"]),
            np.linalg.norm(shifted @ c["u1"] - c["u0"]),
            np.linalg.norm(adj @ c["v0"]),
            np.linalg.norm(adj @ c["v1"] - c["v0"]),
            abs(numkit.hermitian_inner(c["u1"], c["v0"]) - 1.0),
            abs(numkit.hermitian_inner(c["u1"], c["v1"])),
        )

    computed = {"lam0": chain.lam0, "u0": chain.u0, "u1": chain.u1,
                "v0": chain.v0, "v1": chain.v1}
    assert max(residuals(computed)) <= tol
    reference = dict(EX1_CHAIN, lam0=EX1_LAM0)
    assert max(residuals(reference)) <= tol
    report_pass(2, "all six chain identities hold for computed and closed-form vectors")


def test_criterion_03_example1_surfaces(ex1):
    fam, _, _, _, model = ex1
    # model output equals the closed-form surfaces on the grid
    grid = np.linspace(-0.1, 0.1, 41)
    worst = 0.0
    for s1 in grid:
        for s2 in grid:
            sheets = ep_asymptotics.surface_eval(model, [s1, s2])
            rho = np.hypot(s1, s2)
            worst = max(
                worst,
                abs(sheets.re_plus - (2 + np.sqrt(2 * s2 + 2 * rho))),
                abs(sheets.re_minus - (2 - np.sqrt(2 * s2 + 2 * rho))),
                abs(sheets.im_plus - (-2 * s1 + np.sqrt(-2 * s2 + 2 * rho))),
                abs(sheets.im_minus - (-2 * s1 - np.sqrt(-2 * s2 + 2 * rho))),
            )
    assert worst <= 1e-12

    # exact-vs-model sup error over the disk, with the 3/2-order shrink
    def sup_error(radius):
        err = 0.0
        for rr in np.linspace(radius / 4, radius, 4):
            for theta in np.linspace(0, 2 * np.pi, 72, endpoint=False):
                dp = rr * np.array([np.cos(theta), np.sin(theta)])
                point = ep_asymptotics.surface_eval(model, dp)
                pair = (point.lam_plus, point.lam_minus)
                err = max(err, exact_pair_error(fam, dp, *pair))
        return err

    e_full, e_half = sup_error(0.05), sup_error(0.025)
    assert e_full <= 0.02
    assert e_full / e_half >= 2.5
    report_pass(3, f"crystal-1 surfaces: model exact to 1e-12; sup error "
                   f"{e_full:.4f} <= 0.02, shrink x{e_full / e_half:.2f} >= 2.5")


def test_criterion_04_example2_coupling_vectors(ex2):
    fam, a0, cluster = ex2
    pinned = degeneracy.dp_frame(
        degeneracy.classify(a0, cluster.center),
        right_basis=[np.array([1, 0, 0], complex), np.array([0, 1, 0], complex)])
    assert np.allclose(pinned.v1, EX2_V1, atol=1e-10)
    assert np.allclose(pinned.v2, EX2_V2, atol=1e-10)
    model = dp_asymptotics.dp_sensitivities(fam, pinned, [0.0, 0.0])
    for key, want in EX2_D.items():
        assert np.allclose(model.coupling[key], want, atol=1e-8)

    # frame-invariant check: c coefficients from arbitrary frames
    rng = np.random.default_rng(101)
    frames = [degeneracy.dp_frame(degeneracy.classify(a0, cluster.center))]
    for _ in range(3):
        t = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) + 2 * np.eye(2)
        basis = np.column_stack((pinned.u1, pinned.u2)) @ t
        frames.append(degeneracy.dp_frame(degeneracy.classify(a0, cluster.center),
                                          right_basis=basis.T))
    for frame in frames:
        other = dp_asymptotics.dp_sensitivities(fam, frame, [0.0, 0.0])
        rep = dp_asymptotics.surface_classification_2p(other)
        assert abs(rep.c11 - EX2_C_COEFFS[0]) < 1e-8
        assert abs(rep.c12 - EX2_C_COEFFS[1]) < 1e-8
        assert abs(rep.c22 - EX2_C_COEFFS[2]) < 1e-8
    report_pass(4, "crystal-2 coupling vectors match in the pinned frame; "
                   "c coefficients frame-invariant to 1e-8")


def test_criterion_05_example2_surfaces(ex2):
    fam, a0, cluster = ex2
    pinned = degeneracy.dp_frame(
        degeneracy.classify(a0, cluster.center),
        right_basis=[np.array([1, 0, 0], complex), np.array([0, 1, 0], complex)])
    model = dp_asymptotics.dp_sensitivities(fam, pinned, [0.0, 0.0])
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(300):
        s1, s2 = rng.uniform(-0.1, 0.1, size=2)
        split = dp_asymptotics.split_multiparam(model, [s1, s2])
        c = (45 + 8j) * s1 * s1 + 128j * s1 * s2 + (-83 + 8j) * s2 * s2
        re_rad = np.sqrt((abs(c) + c.real) / 2)
        im_rad = np.sqrt((abs(c) - c.real) / 2)
        worst = max(
            worst,
            abs(split.re_plus - (1 - s1 + re_rad)),
            abs(split.re_minus - (1 - s1 - re_rad)),
            abs(split.im_plus - (5 - 4 * s1 - 2 * s2 + im_rad)),
            abs(split.im_minus - (5 - 4 * s1 - 2 * s2 - im_rad)),
        )
    assert worst <= 1e-12

    directions = [d / np.linalg.norm(d) for d in rng.normal(size=(8, 2))]

    def sup_error(radius):
        err = 0.0
        for d in directions:
            split = dp_asymptotics.split_multiparam(model, radius * d)
            err = max(err, exact_pair_error(fam, radius * d,
                                            split.lam_plus, split.lam_minus))
        return err

    ratio = sup_error(1e-2) / sup_error(2.5e-3)
    assert ratio >= 3.5
    report_pass(5, f"crystal-2 surfaces: model exact to 1e-12; "
                   f"error ratio {ratio:.1f} >= 3.5 (little-o linear remainder)")


def test_criterion_06_classification_and_codimension(ex1, ex2):
    _, a1, cluster1, _, _ = ex1
    _, a2, cluster2 = ex2
    kind1 = classify(a1, cluster1.center)
    kind2 = classify(a2, cluster2.center)
    assert kind1.kind == "EP"
    assert kind2.kind == "DP"
    # the simple zero eigenvalue stays outside both clusters
    assert abs(cluster1.center - EX1_LAM0) < 1e-6
    assert abs(cluster2.center - EX2_LAM0) < 1e-6
    assert cluster1.external_gap > 1.0
    assert cluster2.external_gap > 1.0
    table = {
        ("real-symmetric", "DP"): 2, ("real-symmetric", "EP"): None,
        ("real-nonsymmetric", "DP"): 3, ("real-nonsymmetric", "EP"): 1,
        ("Hermitian", "DP"): 3, ("Hermitian", "EP"): None,
        ("complex-symmetric", "DP"): 4, ("complex-symmetric", "EP"): 2,
        ("complex-nonsymmetric", "DP"): 6, ("complex-nonsymmetric", "EP"): 2,
    }
    for key, want in table.items():
        assert codimension(*key) == want
    report_pass(6, "crystal-1 EP / crystal-2 DP with zero eigenvalue excluded; "
                   "all 10 codimension entries exact")


def test_criterion_07_ep_finder(ex1):
    fam, _, _, _, _ = ex1
    result = find_ep(fam, [0.05, -0.03])
    assert np.linalg.norm(result.p_star) <= 1e-10
    assert result.iterations <= 20

    toy = family_mod.MatrixFamily(
        2, 2,
        evaluator=lambda p: np.array([[0.0, 1.0], [p[0] + 1j * p[1], 0.0]]),
        deriv=lambda p, i: (np.array([[0.0, 0.0], [1.0, 0.0]]) if i == 0
                            else np.array([[0.0, 0.0], [1j, 0.0]])),
    )
    toy_result = find_ep(toy, [0.2, 0.1])
    assert np.linalg.norm(toy_result.p_star) <= 1e-10
    report_pass(7, f"EP finder: crystal-1 |p*| = {np.linalg.norm(result.p_star):.1e} "
                   f"in {result.iterations} iterations; toy family converges")


def test_criterion_08_loop_suite(ex1):
    _, _, _, _, model = ex1
    r = 0.01
    inside = ep_asymptotics.loop_trajectory(
        model, ep_asymptotics.LoopSpec(a=0.0, b=0.0, r=r))
    assert inside.regime == "inside"
    assert inside.winding_number == 1
    re_crossings = sorted(c.ordinate for c in inside.axis_crossings if c.axis == "re")
    want = 2 * np.sqrt(r)
    assert re_crossings[1] == pytest.approx(want, rel=1e-6)
    assert re_crossings[0] == pytest.approx(-want, rel=1e-6)

    outside = ep_asymptotics.loop_trajectory(
        model, ep_asymptotics.LoopSpec(a=0.0, b=0.02, r=r))
    assert outside.regime == "outside"
    assert outside.n_curves == 2
    assert outside.winding_number == 0
    # sigma > 0 selects the Im lam = Im lam0 axis; verify against the
    # sampled trajectories crossing that line (imaginary part sign flips)
    assert outside.sigma_sign == 1
    assert {c.axis for c in outside.axis_crossings} == {"im"}
    for curve in (outside.core_plus, outside.core_minus):
        signs = np.sign(curve.imag)
        assert np.count_nonzero(signs != np.roll(signs, 1)) == 2

    negative = ep_asymptotics.loop_trajectory(
        model, ep_asymptotics.LoopSpec(a=0.0, b=-0.02, r=r))
    assert negative.sigma_sign == -1
    assert {c.axis for c in negative.axis_crossings} == {"re"}
    report_pass(8, "loop suite: winding 1 inside, crossings +-2 sqrt(r), "
                   "kidneys outside, axis choice matches sign(sigma)")


def test_criterion_09_squared_consistency():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(10000):
        n = int(rng.integers(1, 5))
        model = ep_asymptotics.EPLocalModel(
            p0=np.zeros(n), lam0=complex(rng.normal(), rng.normal()),
            split_re=rng.normal(size=n), split_im=rng.normal(size=n),
            drift_re=rng.normal(size=n), drift_im=rng.normal(size=n),
        )
        dp = rng.normal(size=n)
        f_dp = float(model.split_re @ dp)
        g_dp = float(model.split_im @ dp)
        sheets = ep_asymptotics.surface_eval(model, dp)
        lam_a, lam_b = sheets.lam_plus, sheets.lam_minus
        mid = complex(model.lam0.real + 0.5 * model.drift_re @ dp,
                      model.lam0.imag + 0.5 * model.drift_im @ dp)
        delta = lam_a - mid
        scale = max(1.0, abs(complex(f_dp, g_dp)))
        worst = max(
            worst,
            abs(delta.real ** 2 - delta.imag ** 2 - f_dp) / scale,
            abs(2 * delta.real * delta.imag - g_dp) / scale,
            abs((lam_b - mid) + delta) / scale,
        )
    assert worst <= 1e-12
    report_pass(9, f"squared-gap relations hold on 10^4 draws "
                   f"(worst residual {worst:.1e} <= 1e-12)")


def test_criterion_10_dp_scenario_classifier():
    # four synthetic coupling models realizing each avoided-crossing type,
    # checked against a brute-force scan of Im c roots and Re c signs
    delta = 0.05
    cases = {
        "no-crossing": (lambda x: x * x + 1e-4, lambda x: x),
        "one-re-one-im": (lambda x: x * x - 1e-4, lambda x: 3 * x),
        "two-re": (lambda x: x * x - 1e-4, lambda x: -(x * x + 1.0)),
        "two-im": (lambda x: x * x - 1e-4, lambda x: x * x + 1.0),
    }
    for want, (im_poly, re_poly) in cases.items():
        c2 = (re_poly(1) + re_poly(-1)) / 2 - re_poly(0) + 1j * (
            (im_poly(1) + im_poly(-1)) / 2 - im_poly(0))
        c1 = (re_poly(1) - re_poly(-1)) / 2 + 1j * (im_poly(1) - im_poly(-1)) / 2
        c0 = re_poly(0) + 1j * im_poly(0)
        roots = np.roots([c2, c1, c0])
        scale = cmath.sqrt(c2)
        coupling = np.zeros((2, 2, 2), dtype=complex)
        coupling[0, 1] = [scale, -scale * roots[0] / delta]
        coupling[1, 0] = [scale, -scale * roots[1] / delta]
        model = dp_asymptotics.DPLocalModel(p0=np.zeros(2), lam0=0.0,
                                            coupling=coupling)
        report = dp_asymptotics.avoided_crossing_1p(model, [delta])
        assert report.scenario == want

        # independent oracle: dense scan of Im c sign changes + bisection
        xs = np.linspace(-0.05, 0.05, 5001)
        ims = np.array([
            dp_asymptotics.split_multiparam(model, [x, delta]).radicand.imag for x in xs])
        found = []
        for k in range(len(xs) - 1):
            if ims[k] * ims[k + 1] < 0:
                a, b = xs[k], xs[k + 1]
                for _ in range(60):
                    mid = (a + b) / 2
                    v = dp_asymptotics.split_multiparam(model, [mid, delta]).radicand.imag
                    if v * ims[k] < 0:
                        b = mid
                    else:
                        a = mid
                found.append(
                    dp_asymptotics.split_multiparam(model, [(a + b) / 2, delta]).radicand.real)
        if want == "no-crossing":
            assert found == []
        else:
            expected_signs = {"one-re-one-im": {-1.0, 1.0},
                              "two-re": {-1.0}, "two-im": {1.0}}[want]
            assert {np.sign(v) for v in found} == expected_signs
    report_pass(10, "all four avoided-crossing types labeled correctly vs "
                    "brute-force scan")


def test_criterion_11_reduced_problem_consistency():
    rng = np.random.default_rng(109)
    basis = np.eye(2, dtype=complex)
    frame = degeneracy.DPFrame(lam0=0.0, u1=basis[:, 0], u2=basis[:, 1],
                               v1=basis[:, 0], v2=basis[:, 1])
    worst = 0.0
    for _ in range(100):
        a1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        red = dp_asymptotics.reduced_problem(a1, frame)
        eigs = sorted(np.linalg.eigvals(red.matrix), key=lambda z: (z.real, z.imag))
        mus = sorted((red.mu_plus, red.mu_minus), key=lambda z: (z.real, z.imag))
        worst = max(worst, abs(mus[0] - eigs[0]), abs(mus[1] - eigs[1]))

        # one_param_slopes consistency with the same direction matrix
        coupling = np.zeros((2, 2, 1), dtype=complex)
        coupling[0, 0, 0] = red.matrix[0, 0]
        coupling[0, 1, 0] = red.matrix[1, 0]
        coupling[1, 0, 0] = red.matrix[0, 1]
        coupling[1, 1, 0] = red.matrix[1, 1]
        model = dp_asymptotics.DPLocalModel(p0=np.zeros(1), lam0=0.0,
                                            coupling=coupling)
        slopes = sorted(dp_asymptotics.one_param_slopes(model),
                        key=lambda z: (z.real, z.imag))
        worst = max(worst, abs(slopes[0] - eigs[0]), abs(slopes[1] - eigs[1]))
    assert worst <= 1e-12
    report_pass(11, f"reduced-problem eigenvalues and slopes agree with eig "
                    f"to {worst:.1e} on 100 instances")


def test_criterion_12_kernel_properties():
    rng = np.random.default_rng(113)
    worst_residual = 0.0
    worst_similarity = 0.0
    for _ in range(30):
        m = int(rng.integers(2, 9))
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        es = numkit.eig_all(a)
        norm_a = np.linalg.norm(a, 2)
        for lam, vec in es:
            worst_residual = max(
                worst_residual, np.linalg.norm(a @ vec - lam * vec) / norm_a)
        p = rng.normal(size=(m, m)) + m * np.eye(m)
        sim = np.linalg.solve(p, a @ p)
        wa = np.sort_complex(numkit.eig_all(a).values)
        wb = np.sort_complex(numkit.eig_all(sim).values)
        worst_similarity = max(worst_similarity, float(np.max(np.abs(wa - wb))))
    assert worst_residual <= 1e-10
    assert worst_similarity <= 1e-8
    report_pass(12, f"kernel: residuals {worst_residual:.1e} <= 1e-10, "
                    f"similarity drift {worst_similarity:.1e} <= 1e-8")


def test_zz_summary():
    # final line-by-line recap of every criterion that passed
    print()
    for line in PASS_LINES:
        print(line)
    assert len(PASS_LINES) == 12
