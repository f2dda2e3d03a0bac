"""Gradient-conditioning analysis tests with small hand-checkable cases."""

import math

import numpy as np
import pytest

from maskgrid.coding import (CodingTensor, DoaSet, MaskSet, SpatialGrid,
                             encode_mwsbc, encode_mwslc_sum)
from maskgrid.conditioning import (SWEEP_COLUMNS, grad_norm_at_zero,
                                   mwslc_norm_limit, theta_sweep)


def _tensor(values, theta, kind="mwslc"):
    return CodingTensor(values, SpatialGrid(theta), kind)


class TestGradNormAtZero:
    def test_equals_scaled_cell_sum(self):
        values = np.zeros((1, 2, 10))
        values[0, 0, 3] = 0.7
        values[0, 1, 3] = 0.2
        values[0, 1, 8] = 0.1
        norm = grad_norm_at_zero(_tensor(values, 10))
        np.testing.assert_allclose(norm, [[2 / 10 * 0.7, 2 / 10 * 0.3]])

    def test_matches_l1_norm_of_gradient(self, rng):
        # At a zero estimate every gradient entry is -(2/cells) * target,
        # so the spatial L1 norm is the scaled cell sum.
        theta = 16
        target = _tensor(rng.uniform(0, 1, (3, 2, theta)), theta)
        gradient = (2.0 / theta) * (0.0 - target.values)
        direct = np.abs(gradient).sum(axis=2)
        np.testing.assert_allclose(grad_norm_at_zero(target), direct, atol=1e-15)

    def test_mwsbc_norm_halves_per_doubling(self):
        # The nearest-cell target puts the same mask sum on every grid, so
        # the (2/cells) prefactor makes the norm scale exactly as 1/cells.
        masks = MaskSet(np.array([[[0.6]], [[0.4]]]))
        truth = DoaSet(np.array([50.0, 120.0]))
        norms = [grad_norm_at_zero(encode_mwsbc(masks, truth, SpatialGrid(n)))[0, 0]
                 for n in (180, 360, 720)]
        assert norms[0] == 2 * norms[1]
        assert norms[1] == 2 * norms[2]


class TestNormLimit:
    def test_closed_form_value(self):
        masks = MaskSet(np.array([[[0.6]], [[0.4]]]))
        limit = mwslc_norm_limit(masks, 6.0, 360.0)
        assert limit[0, 0] == pytest.approx(math.sqrt(math.pi) * 12 / 360)

    def test_scales_with_mask_sum(self):
        masks = MaskSet(np.array([[[0.25, 0.5]]]))
        limit = mwslc_norm_limit(masks, 6.0)
        assert limit[0, 1] == 2 * limit[0, 0]

    def test_sum_form_riemann_sum_converges_to_limit(self):
        # The sum-form norm is a Riemann sum of the Gaussian integral, so
        # refining the grid drives it to the closed form. 24 cells leave a
        # visible quadrature error; 90 cells are already sub-1e-6.
        masks = MaskSet(np.array([[[1.0]]]))
        truth = DoaSet(np.array([100.0]))
        limit = mwslc_norm_limit(masks, 6.0)[0, 0]
        gaps = []
        for theta in (24, 90):
            norm = grad_norm_at_zero(
                encode_mwslc_sum(masks, truth, SpatialGrid(theta), 6.0))[0, 0]
            gaps.append(abs(norm - limit) / limit)
        assert gaps[0] > 1e-3
        assert gaps[1] < 1e-6

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            mwslc_norm_limit(MaskSet(np.ones((1, 1, 1))), 0.0)


class TestThetaSweep:
    def test_report_shape_and_columns(self, two_speaker_scene):
        bundle = two_speaker_scene
        report = theta_sweep(bundle.masks, bundle.truth,
                             theta_counts=(90, 180, 360))
        assert len(report.rows) == 3
        table = report.as_table()
        assert set(table[0]) == set(SWEEP_COLUMNS)
        assert [r.theta_count for r in report.rows] == [90, 180, 360]

    def test_mwsbc_column_halves(self, two_speaker_scene):
        bundle = two_speaker_scene
        report = theta_sweep(bundle.masks, bundle.truth,
                             theta_counts=(180, 360, 720))
        means = [r.mean_mwsbc for r in report.rows]
        assert means[1] / means[0] == pytest.approx(0.5, rel=1e-12)
        assert means[2] / means[1] == pytest.approx(0.5, rel=1e-12)

    def test_active_bins_counted(self, two_speaker_scene):
        bundle = two_speaker_scene
        report = theta_sweep(bundle.masks, bundle.truth, theta_counts=(90,))
        expected = int(np.count_nonzero(bundle.masks.values.sum(axis=0) > 0))
        assert report.active_bins == expected

    def test_collision_row_flagged(self):
        # 6 and 14 deg both snap to the 10 deg cell of a 36-cell grid.
        masks = MaskSet(np.full((2, 1, 1), 0.5))
        truth = DoaSet(np.array([6.0, 14.0]))
        report = theta_sweep(masks, truth, theta_counts=(36, 720))
        assert report.rows[0].collision
        assert math.isnan(report.rows[0].mean_mwsbc)
        assert not report.rows[1].collision

    def test_keep_norms_exposes_per_bin_arrays(self, two_speaker_scene):
        bundle = two_speaker_scene
        report = theta_sweep(bundle.masks, bundle.truth, theta_counts=(360,),
                             keep_norms=True)
        row = report.rows[0]
        assert row.norms_mwsbc.shape == (62, 257)
        assert row.norms_mwslc_sum.shape == (62, 257)

    def test_unsorted_counts_rejected(self, two_speaker_scene):
        with pytest.raises(ValueError):
            theta_sweep(two_speaker_scene.masks, two_speaker_scene.truth,
                        theta_counts=(360, 180))

    def test_too_coarse_grid_rejected(self, two_speaker_scene):
        with pytest.raises(ValueError):
            theta_sweep(two_speaker_scene.masks, two_speaker_scene.truth,
                        theta_counts=(3,))
