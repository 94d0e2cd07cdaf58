"""The shared pair model: one batched evaluation for EP and DP models."""

import numpy as np
import pytest

from eigencoupling import dp_asymptotics, ep_asymptotics
from eigencoupling.errors import DimensionError
from eigencoupling.pairmodel import sheets


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
