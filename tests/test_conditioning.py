"""Gradient-conditioning analysis tests with small hand-checkable cases."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from maskgrid.coding import (ENCODERS, CodingTensor, DoaSet, MaskSet,
                             SpatialGrid, encode_mwsbc, encode_mwslc_sum)
from maskgrid.conditioning import (SWEEP_COLUMNS, grad_norm_at_zero,
                                   mwslc_norm_limit, theta_sweep)
from maskgrid.errors import CollisionError, ConfigError, ShapeError

# The closed forms sum in another order than the encoded tensors; zeros and
# subnormal products get an absolute floor.
RTOL, ATOL = 1e-12, 1e-300


def _tensor(values, theta, kind="mwslc"):
    return CodingTensor(values, SpatialGrid(theta), kind)


def _assert_norms_match(row, masks, truth, grid, sigma_deg=6.0):
    """A sweep row's kept norms against grad_norm_at_zero of the encoded
    tensors: mwsbc bit for bit up to two speakers, the max form bit for bit
    at bins with three or more active speakers, all to RTOL."""
    kept = {"mwsbc": row.norms_mwsbc, "mwslc": row.norms_mwslc_max,
            "mwslc_sum": row.norms_mwslc_sum}
    full = {kind: grad_norm_at_zero(ENCODERS[kind](masks, truth, grid,
                                                   sigma_deg))
            for kind in kept}
    for kind in kept:
        assert kept[kind].shape == full[kind].shape == (masks.frames,
                                                        masks.bins)
        np.testing.assert_allclose(kept[kind], full[kind], rtol=RTOL,
                                   atol=ATOL, err_msg=kind)
    if masks.speakers <= 2:
        assert kept["mwsbc"].tobytes() == full["mwsbc"].tobytes()
    many = (masks.values > 0).sum(axis=0) >= 3
    assert kept["mwslc"][many].tobytes() == full["mwslc"][many].tobytes()


@st.composite
def _sweep_inputs(draw):
    """(masks, truth, sigma, span, theta counts) with 0-4 speakers active
    per bin, silent frames and bins, and grids coarse enough to collide."""
    speakers = draw(st.integers(1, 4))
    # Not down to 0: below about 1e-307 deg, mwslc_norm_limit's 2 sigma /
    # span overflows.
    span = draw(st.floats(1e-6, 360.0))
    steps = draw(st.lists(st.integers(0, 3599), min_size=speakers,
                          max_size=speakers, unique=True))
    frames, bins = draw(st.integers(0, 6)), draw(st.integers(1, 5))
    values = draw(arrays(np.float64, (speakers, frames, bins),
                         elements=st.one_of(st.just(0.0),
                                            st.floats(0.0, 1.0))))
    values[:, draw(arrays(np.bool_, frames))] = 0.0
    values[:, draw(arrays(np.bool_, (frames, bins)))] = 0.0
    counts = draw(st.lists(st.integers(2 * speakers, 720), min_size=1,
                           max_size=3, unique=True))
    return (MaskSet(values), DoaSet(np.array(steps) * (span / 3600.0), span),
            draw(st.floats(1.0, 40.0)), span, sorted(counts))


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

    def test_span_overflowing_two_sigma_over_span_rejected(self):
        # The smallest normal double: 2 sigma / span overflows to inf, and
        # times a zero mask the limit used to be NaN with a RuntimeWarning.
        span = 2.2250738585072014e-308
        masks = MaskSet(np.zeros((1, 1, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="grid.span_deg"):
                mwslc_norm_limit(masks, 6.0, span)
            with pytest.raises(ConfigError, match="grid.span_deg"):
                theta_sweep(masks, DoaSet(np.array([0.0]), span), 6.0, span,
                            (2,))


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

    @pytest.mark.parametrize("theta", [90, 360, 1440])
    def test_kept_norms_equal_the_full_tensors(self, two_speaker_scene, theta):
        # The sweep sums closed forms; the norms of the full tensors are the
        # reference.
        bundle = two_speaker_scene
        row = theta_sweep(bundle.masks, bundle.truth, theta_counts=(theta,),
                          keep_norms=True).rows[0]
        _assert_norms_match(row, bundle.masks, bundle.truth,
                            SpatialGrid(theta))

    @pytest.mark.parametrize("frames", [0, 5])
    def test_frame_counts_around_the_block_size(self, rng, frames):
        masks = MaskSet(rng.uniform(0.0, 1.0, (2, frames, 3)))
        truth = DoaSet(np.array([30.0, 200.0]))
        row = theta_sweep(masks, truth, theta_counts=(90,),
                          keep_norms=True).rows[0]
        _assert_norms_match(row, masks, truth, SpatialGrid(90))

    def test_three_speaker_scene_matches_the_full_tensors(
            self, three_speaker_scene):
        bundle = three_speaker_scene
        row = theta_sweep(bundle.masks, bundle.truth, theta_counts=(720,),
                          keep_norms=True).rows[0]
        _assert_norms_match(row, bundle.masks, bundle.truth,
                            SpatialGrid(720))

    @settings(max_examples=100, deadline=None)
    @given(_sweep_inputs())
    @example((MaskSet(np.full((2, 1, 1), 0.5)), DoaSet(np.array([6.0, 14.0])),
              6.0, 360.0, [4, 36, 720]))
    @example((MaskSet(np.full((4, 0, 3), 0.5)),
              DoaSet(np.array([0.0, 90.0, 180.0, 270.0])), 6.0, 360.0, [8]))
    def test_kept_norms_match_the_full_tensors_on_any_input(self, inputs):
        masks, truth, sigma, span, counts = inputs
        report = theta_sweep(masks, truth, sigma, span, counts,
                             keep_norms=True)
        assert [row.theta_count for row in report.rows] == counts
        for row in report.rows:
            grid = SpatialGrid(row.theta_count, span)
            if row.collision:
                with pytest.raises(CollisionError):
                    encode_mwsbc(masks, truth, grid)
                assert math.isnan(row.mean_mwslc_max)
            else:
                _assert_norms_match(row, masks, truth, grid, sigma)

    @pytest.mark.parametrize("counts", [(36, 720), (720,)])
    def test_speaker_count_mismatch_raises_at_the_first_grid(self, counts):
        # 6 and 14 deg collide on 36 cells; the count check comes first.
        masks = MaskSet(np.full((3, 2, 2), 0.3))
        with pytest.raises(ShapeError, match="3 masks for 2 DoAs"):
            theta_sweep(masks, DoaSet(np.array([6.0, 14.0])),
                        theta_counts=counts)

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_nonpositive_sigma_raises_config_error(self, two_speaker_scene,
                                                   sigma):
        with pytest.raises(ConfigError, match="sigma must be positive"):
            theta_sweep(two_speaker_scene.masks, two_speaker_scene.truth,
                        sigma_deg=sigma, theta_counts=(360,))

    def test_all_collision_sweep_gives_nan_rows_without_warning(self):
        masks = MaskSet(np.full((2, 2, 2), 0.3))
        truth = DoaSet(np.array([6.0, 14.0]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = theta_sweep(masks, truth, theta_counts=(4, 36))
        assert caught == []
        assert [row.collision for row in report.rows] == [True, True]
        for row in report.rows:
            assert all(math.isnan(getattr(row, column))
                       for column in ("mean_mwsbc", "mean_mwslc_max",
                                      "mean_mwslc_sum", "rel_gap"))
            assert row.limit == report.rows[0].limit > 0

    def test_unsorted_counts_rejected(self, two_speaker_scene):
        with pytest.raises(ValueError):
            theta_sweep(two_speaker_scene.masks, two_speaker_scene.truth,
                        theta_counts=(360, 180))

    def test_too_coarse_grid_rejected(self, two_speaker_scene):
        with pytest.raises(ValueError):
            theta_sweep(two_speaker_scene.masks, two_speaker_scene.truth,
                        theta_counts=(3,))
