"""The shared pair model: one batched evaluation for EP and DP models."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigencoupling import crystal_optics, dp_asymptotics, ep_asymptotics
from eigencoupling import family as family_mod
from eigencoupling.degeneracy import DPFrame, JordanChain
from eigencoupling.errors import DimensionError
from eigencoupling.pairmodel import coupling, projection, sheets

FAMILIES = Path(__file__).parent / "families"


def grid(half=0.05, res=9):
    axis = np.linspace(-half, half, res)
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)


class TestSheets:
    def test_ep_crystal_closed_form(self, ep_model):
        dps = grid()
        out = sheets(ep_model, dps)
        s1, s2 = dps[:, 0], dps[:, 1]
        rho = np.hypot(s1, s2)
        want = np.column_stack((2 + np.sqrt(2 * s2 + 2 * rho), 2 - np.sqrt(2 * s2 + 2 * rho),
                                -2 * s1 + np.sqrt(-2 * s2 + 2 * rho),
                                -2 * s1 - np.sqrt(-2 * s2 + 2 * rho)))
        assert out.sheets.shape == (len(dps), 4)
        assert np.allclose(out.sheets, want, atol=1e-10)

    def test_dp_crystal_closed_form(self, dp_model_pinned):
        dps = grid()
        out = sheets(dp_model_pinned, dps)
        s1, s2 = dps[:, 0], dps[:, 1]
        c = (45 + 8j) * s1 * s1 + 128j * s1 * s2 + (-83 + 8j) * s2 * s2
        assert np.allclose(out.radicand, c, atol=1e-10)
        re_rad = np.sqrt((np.abs(c) + c.real) / 2)
        im_rad = np.sqrt((np.abs(c) - c.real) / 2)
        assert np.allclose(out.sheets[:, 0], 1 - s1 + re_rad, atol=1e-10)
        assert np.allclose(out.sheets[:, 3], 5 - 4 * s1 - 2 * s2 - im_rad, atol=1e-10)

    @pytest.mark.parametrize("model_name", ["ep_model", "dp_model_pinned"])
    def test_pair_is_mid_plus_minus_principal_root(self, model_name, request):
        model = request.getfixturevalue(model_name)
        out = sheets(model, grid())
        lam_p, lam_m = out.pair[:, 0], out.pair[:, 1]
        assert np.allclose(((lam_p - lam_m) / 2) ** 2, out.radicand, atol=1e-12)
        assert np.all(out.root.real >= 0)
        # branch pairing: the paired eigenvalues are built from the sheets
        assert np.allclose(lam_p.real, out.sheets[:, 0])
        assert np.allclose(lam_m.real, out.sheets[:, 1])
        assert np.allclose(np.maximum(lam_p.imag, lam_m.imag), out.sheets[:, 2])
        assert np.allclose(np.minimum(lam_p.imag, lam_m.imag), out.sheets[:, 3])

    def test_per_point_wrappers_agree(self, ep_model, dp_model_pinned):
        dps = grid(res=5)
        ep_batch = sheets(ep_model, dps)
        dp_batch = sheets(dp_model_pinned, dps)
        close = dict(rtol=1e-14, atol=1e-15)
        for k, dp in enumerate(dps):
            one = ep_asymptotics.surface_eval(ep_model, dp)
            assert np.allclose((one.re_plus, one.re_minus, one.im_plus, one.im_minus),
                               ep_batch.sheets[k], **close)
            assert np.allclose((one.lam_plus, one.lam_minus), ep_batch.pair[k], **close)
            assert np.allclose(one.radicand, ep_batch.radicand[k], **close)
            split = dp_asymptotics.split_multiparam(dp_model_pinned, dp)
            assert np.allclose((split.lam_plus, split.lam_minus), dp_batch.pair[k], **close)
            assert np.allclose(split.radicand, dp_batch.radicand[k], **close)

    def test_single_offset(self, ep_model):
        assert sheets(ep_model, [0.01, 0.0]).sheets.shape == (1, 4)

    def test_offset_shape_checked(self, ep_model, dp_model_pinned):
        for model in (ep_model, dp_model_pinned):
            with pytest.raises(DimensionError):
                sheets(model, np.zeros((4, 3)))
            with pytest.raises(DimensionError):
                sheets(model, [0.1])


def test_rest_offsets_checked_alike(ep_model, dp_model_pinned):
    """The conic, the EP section and the DP-1p scenario refuse the same
    wrong count of fixed offsets with the same error."""
    for call in (lambda rest: ep_asymptotics.complex_plane_conic(ep_model, rest),
                 lambda rest: ep_asymptotics.cross_section(ep_model, rest),
                 lambda rest: dp_asymptotics.avoided_crossing_1p(dp_model_pinned, rest)):
        with pytest.raises(DimensionError, match=r"parameters 2\.\.n must have 1 components"):
            call([0.01, 0.02])


def reference_ep_vectors(fam, chain, p0):
    """split and drift by one projection per derivative, as a reference."""
    n = fam.n_params
    split = np.zeros(n, dtype=complex)
    drift = np.zeros(n, dtype=complex)
    for s, d in enumerate(family_mod.derivative(fam, p0)):
        proj = projection(d, (chain.u0, chain.u1), (chain.v0, chain.v1))
        split[s] = proj[0, 0]
        drift[s] = proj[0, 1] + proj[1, 0]
    return split, drift


def reference_dp_coupling(fam, frame, p0):
    """The DP coupling stack by one projection per derivative, as a reference."""
    return np.stack([projection(d, (frame.u1, frame.u2), (frame.v1, frame.v2))
                     for d in family_mod.derivative(fam, p0)], axis=-1)


@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("n", range(1, 4))
def test_coupling_matches_per_derivative_reference(m, n):
    """Both local models read the pair's coupling stack bit for bit as the
    per-derivative loops do, on random derivatives and vectors."""
    rng = np.random.default_rng(100 * m + n)

    def cvec(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    derivs = cvec(n, m, m)
    fam = family_mod.MatrixFamily(m, n, evaluator=lambda p: derivs[0],
                                  deriv=lambda p: derivs)
    p0 = rng.normal(size=n)
    lam0 = complex(*rng.normal(size=2))
    chain = JordanChain(lam0, *cvec(4, m))
    split, drift = reference_ep_vectors(fam, chain, p0)
    model = ep_asymptotics.sensitivities(fam, chain, p0)
    for got, want in ((model.split_re, split.real), (model.split_im, split.imag),
                      (model.drift_re, drift.real), (model.drift_im, drift.imag)):
        assert got.tobytes() == want.tobytes()
    frame = DPFrame(lam0, *cvec(4, m))
    got = dp_asymptotics.dp_sensitivities(fam, frame, p0).coupling
    assert got.shape == (2, 2, n)
    assert got.tobytes() == reference_dp_coupling(fam, frame, p0).tobytes()


@pytest.mark.parametrize("source", ["quadratic-ep-m3", "crystal-example-1"])
def test_one_deriv_call_per_coupling(source, monkeypatch):
    """``coupling`` reads all n partials at a point from one call of the
    family's ``deriv``, on a polynomial family and on the crystal adapter."""
    if source in crystal_optics.builtin_specs():
        fam = crystal_optics.family_adapter(crystal_optics.builtin_specs()[source])
    else:
        fam = family_mod.parse_family((FAMILIES / f"{source}.json").read_text())
    calls = []
    deriv = fam._deriv
    monkeypatch.setattr(fam, "_deriv", lambda p: calls.append(p.tolist()) or deriv(p))
    vectors = (np.ones(fam.dim, dtype=complex), np.arange(fam.dim) + 1j)
    points = ([0.0, 0.0], [0.01, -0.02], [0.03, 0.05])
    for p in points:
        assert coupling(fam, p, vectors, vectors).shape == (2, 2, 2)
    assert calls == [list(map(float, p)) for p in points]


#: offset and coefficient parts: signed zeros, and values across scales
PART = st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.3, -2.5, 1e-7, 3e5, -1e-300, 1e200))


@st.composite
def pair_models(draw):
    """An EP or a DP local model of 1 to 3 parameters and 2 to 20 offsets."""
    n, rows = draw(st.integers(1, 3)), draw(st.integers(2, 20))
    parts = lambda size: np.array(draw(st.lists(PART, min_size=size, max_size=size)))  # noqa: E731
    dps = parts(rows * n).reshape(rows, n)
    lam0 = complex(*parts(2))
    if draw(st.booleans()):
        model = ep_asymptotics.EPLocalModel(np.zeros(n), lam0, *parts(4 * n).reshape(4, n))
    else:
        coupling = (parts(4 * n) + 1j * parts(4 * n)).reshape(2, 2, n)
        model = dp_asymptotics.DPLocalModel(np.zeros(n), lam0, coupling)
    return model, dps


def pair_terms_by_blas(model, dps):
    """``pair_terms`` as it reads with each linear form a matrix product."""
    if isinstance(model, ep_asymptotics.EPLocalModel):
        return (model.lam0 + dps @ (0.5 * (model.drift_re + 1j * model.drift_im)),
                dps @ (model.split_re + 1j * model.split_im))
    d = model.coupling
    diff = dps @ (d[0, 0] - d[1, 1])
    radicand = diff * diff / 4.0 + (dps @ d[0, 1]) * (dps @ d[1, 0])
    return model.lam0 + dps @ (d[0, 0] + d[1, 1]) / 2.0, radicand


@settings(max_examples=400)
@given(pair_models())
def test_pair_terms_keep_the_bits_of_the_matrix_product(model_and_offsets):
    """With up to three parameters, every model in the golden files and the
    benchmark, and two offsets or more, the sums from +0 in parameter order
    have the bits of the matrix products they replace, signed zeros
    included; where a product overflows both are non-finite, which every
    caller refuses. (From four parameters on BLAS's blocked sums may round
    otherwise; one offset goes to BLAS's dot, which may fuse multiply-adds.)"""
    model, dps = model_and_offsets
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = model.pair_terms(dps), pair_terms_by_blas(model, dps)
    for x, y in zip(got, want):
        finite = np.isfinite(x)
        assert np.array_equal(finite, np.isfinite(y))
        assert x[finite].tobytes() == y[finite].tobytes()


@settings(max_examples=200)
@given(pair_models())
def test_pair_terms_of_one_offset_are_its_row_of_many(model_and_offsets):
    """An offset alone gets the bits it gets among others, as a surface
    block of one point must."""
    model, dps = model_and_offsets
    with np.errstate(over="ignore", invalid="ignore"):
        batch = model.pair_terms(dps)
        for k in range(len(dps)):
            one = model.pair_terms(dps[k:k + 1])
            assert [x.tobytes() for x in one] == [x[k:k + 1].tobytes() for x in batch]


@settings(max_examples=300)
@given(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=2, max_size=2))
def test_one_offset_reports_are_the_radicand_bit_for_bit(ep_model, dp_model_pinned, dp):
    """On the two crystals' models, ``tangency_conditions`` returns (Re, Im)
    of the EP radicand F + iG, and ``pair_terms``' formula turns the three
    frame residuals of ``persistence_conditions`` into its re_c and im_c, bit
    for bit: no linear form at one offset is left to BLAS's dot."""
    def bits(*values):
        return np.array(values, dtype=float).tobytes()

    radicand = ep_model.pair_terms(np.array([dp]))[1]
    got = ep_asymptotics.tangency_conditions(ep_model, dp)
    assert bits(*got) == bits(radicand.real[0], radicand.imag[0])
    report = dp_asymptotics.persistence_conditions(dp_model_pinned, dp)
    res = report.frame_residuals
    diff, off12, off21 = (np.array([complex(res[k], res[k + 1])]) for k in (0, 2, 4))
    c = diff * diff / 4.0 + off12 * off21
    assert bits(report.re_c, report.im_c) == bits(c.real[0], c.imag[0])
