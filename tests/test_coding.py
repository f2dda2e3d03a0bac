"""Mask computation and angular-grid encoding tests."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from maskgrid.coding import (_ENCODE_BLOCK_ROWS, ENCODERS,
                             CodingTensor, DoaSet, FrameBlocks, MaskSet,
                             SpatialGrid, _gaussian_rows, _warn_shared_cells,
                             compute_irm, encode_mwsbc, encode_mwslc,
                             encode_mwslc_sum, encode_sbc,
                             encode_slc, frame_activity, snap_to_grid,
                             wrapped_distance)
from maskgrid.decode import freq_average
from maskgrid.errors import CollisionError, ConfigError, ShapeError
from maskgrid.stft import Spectrogram


def _unit_masks(count, frames=1, bins=1):
    return MaskSet(np.ones((count, frames, bins)))


def _oracle_encode_mwslc(masks, truth, grid, sigma_deg=6.0):
    """Reference max-form coding: one full-size product per speaker, kept as
    the test oracle."""
    gauss = _gaussian_rows(truth, grid, sigma_deg)
    values = np.zeros((masks.frames, masks.bins, grid.theta_count))
    for i in range(truth.count):
        np.maximum(values, masks.values[i][:, :, None] * gauss[i], out=values)
    return values


def _oracle_encode_mwslc_sum(masks, truth, grid, sigma_deg=6.0):
    """Reference sum-form coding: one full-size product per speaker, kept as
    the test oracle."""
    if masks.speakers != truth.count:
        raise ShapeError(f"{masks.speakers} masks for {truth.count} DoAs")
    gauss = _gaussian_rows(truth, grid, sigma_deg)
    values = np.zeros((masks.frames, masks.bins, grid.theta_count))
    for i in range(truth.count):
        values += masks.values[i][:, :, None] * gauss[i]
    return CodingTensor(values, grid, "mwslc_sum")


def _oracle_encode_mwsbc(masks, truth, grid):
    """The former per-speaker column add, verbatim but for its `out`
    buffer; kept as the test oracle."""
    if masks.speakers != truth.count:
        raise ShapeError(f"{masks.speakers} masks for {truth.count} DoAs")
    cells = snap_to_grid(truth, grid)
    if np.unique(cells).size < cells.size:
        raise CollisionError(
            f"speakers at {truth.angles_deg} deg share a cell on a "
            f"{grid.theta_count}-cell grid; refine the grid")
    values = np.zeros((masks.frames, masks.bins, grid.theta_count))
    for i, g in enumerate(cells):
        values[:, :, g] += masks.values[i]
    return CodingTensor(values, grid, "mwsbc")


def _oracle_encode_sbc(truth, activity, grid):
    """The former per-speaker column write, verbatim; kept as the test
    oracle."""
    cells = snap_to_grid(truth, grid)
    frames = activity.shape[1]
    values = np.zeros((frames, 1, grid.theta_count))
    for i, g in enumerate(cells):
        values[activity[i], 0, g] = 1.0
    return CodingTensor(values, grid, "sbc")


def _oracle_encode_slc(truth, activity, grid, sigma_deg=6.0):
    """The former per-speaker row maximum, verbatim; kept as the test
    oracle."""
    gauss = _gaussian_rows(truth, grid, sigma_deg)
    _warn_shared_cells(truth, grid, "slc")
    frames = activity.shape[1]
    values = np.zeros((frames, 1, grid.theta_count))
    for i in range(truth.count):
        rows = np.where(activity[i])[0]
        values[rows, 0, :] = np.maximum(values[rows, 0, :], gauss[i])
    return CodingTensor(values, grid, "slc")


def _assert_sum_matches_oracle(masks, truth, grid, sigma_deg=6.0):
    got = encode_mwslc_sum(masks, truth, grid, sigma_deg).values
    expected = _oracle_encode_mwslc_sum(masks, truth, grid, sigma_deg).values
    assert got.tobytes() == expected.tobytes()


def _assert_encoder_matches_oracle(masks, truth, grid, sigma_deg=6.0):
    got = encode_mwslc(masks, truth, grid, sigma_deg).values
    expected = _oracle_encode_mwslc(masks, truth, grid, sigma_deg)
    assert got.tobytes() == expected.tobytes()


class TestWrappedDistance:
    def test_plain_difference(self):
        assert wrapped_distance(50.0, 120.0) == 70.0

    def test_wraps_across_zero(self):
        assert wrapped_distance(359.0, 1.0) == 2.0
        assert wrapped_distance(1.0, 359.0) == 2.0

    def test_bounded_by_half_span(self):
        assert wrapped_distance(0.0, 180.0) == 180.0
        assert wrapped_distance(0.0, 181.0) == 179.0

    def test_symmetric_and_zero_on_diagonal(self, rng):
        a = rng.uniform(0, 360, 50)
        b = rng.uniform(0, 360, 50)
        np.testing.assert_array_equal(wrapped_distance(a, b),
                                      wrapped_distance(b, a))
        np.testing.assert_array_equal(wrapped_distance(a, a), 0.0)

    def test_custom_span(self):
        assert wrapped_distance(179.0, 1.0, span_deg=180.0) == 2.0


class TestSpatialGrid:
    def test_centers_and_width(self):
        grid = SpatialGrid(720)
        assert grid.cell_width_deg == 0.5
        np.testing.assert_allclose(grid.centers()[:3], [0.0, 0.5, 1.0])
        assert grid.angle_of(100) == 50.0

    def test_index_of_nearest(self):
        grid = SpatialGrid(360)
        assert grid.index_of(50.4) == 50
        assert grid.index_of(50.6) == 51
        assert grid.index_of(359.6) == 0

    def test_index_tie_goes_to_lower_cell(self):
        # 50.5 deg sits exactly between cells 50 and 51 on a 1-deg grid.
        assert SpatialGrid(360).index_of(50.5) == 50

    def test_too_few_cells_rejected(self):
        with pytest.raises(ValueError):
            SpatialGrid(1)

    def test_span_validated(self):
        with pytest.raises(ValueError):
            SpatialGrid(360, 400.0)


class TestDoaSet:
    def test_angles_stored_sorted_input_preserved(self):
        doas = DoaSet(np.array([120.0, 50.0]))
        np.testing.assert_array_equal(doas.angles_deg, [120.0, 50.0])
        assert doas.count == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DoaSet(np.array([0.0, 360.0]))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            DoaSet(np.array([10.0, 10.0]))

    @pytest.mark.parametrize("angles", [[np.nan, 10.0], [10.0, np.inf],
                                        [-np.inf], [10.0, 360.0], [-0.5], []])
    def test_rejects_non_finite_out_of_span_and_empty(self, angles):
        # NaN compared false with both bounds, so DoaSet([nan, 10]) was built.
        with pytest.raises(ConfigError):
            DoaSet(np.array(angles))


class TestMaskSet:
    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            MaskSet(np.zeros((2, 3)))


class TestComputeIrm:
    def _specs(self, mags):
        cfgless = [Spectrogram(m[np.newaxis].astype(complex)) for m in mags]
        return cfgless

    def test_power_ratio_where_above_threshold(self):
        a = np.full((4, 257), 3.0)
        b = np.full((4, 257), 1.0)
        masks = compute_irm(self._specs([a, b]))
        np.testing.assert_allclose(masks.values[0], 0.9)
        np.testing.assert_allclose(masks.values[1], 0.1)

    def test_threshold_relative_to_own_peak(self):
        # Speaker 0 has a bin 40 dB under its own peak: below the -35 dB
        # threshold, so its mask is zeroed there. Speaker 1 keeps the power
        # ratio against the full denominator.
        a = np.full((2, 3), 1.0)
        a[0, 0] = 10.0 ** (-40 / 20)
        b = np.full((2, 3), 0.5)
        masks = compute_irm(self._specs([a, b]))
        assert masks.values[0][0, 0] == 0.0
        assert masks.values[1][0, 0] == pytest.approx(0.25 / (0.25 + 0.01 ** 2))

    def test_partition_property_holds(self, two_speaker_scene):
        bundle = two_speaker_scene
        values = bundle.masks.values
        assert values.min() >= 0.0 and values.max() <= 1.0
        assert values.sum(axis=0).max() <= 1.0 + 1e-9
        assert bundle.masks.speakers == 2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            compute_irm(self._specs([np.ones((2, 3)), np.ones((2, 4))]))


class TestSpatialOnlyEncodings:
    def test_sbc_one_hot_rows(self):
        grid = SpatialGrid(360)
        truth = DoaSet(np.array([50.0, 120.0]))
        activity = np.array([[True, False], [True, True]])
        tensor = encode_sbc(truth, activity, grid)
        assert tensor.kind == "sbc"
        assert tensor.values.shape == (2, 1, 360)
        assert tensor.values[0, 0, 50] == 1.0
        assert tensor.values[0, 0, 120] == 1.0
        assert tensor.values[1, 0, 50] == 0.0
        assert tensor.values[1, 0, 120] == 1.0
        assert tensor.values.sum() == 3.0

    def test_slc_gaussian_bump(self):
        grid = SpatialGrid(360)
        truth = DoaSet(np.array([50.0]))
        tensor = encode_slc(truth, np.array([[True]]), grid, sigma_deg=6.0)
        row = tensor.values[0, 0]
        assert row[50] == 1.0
        assert row[56] == pytest.approx(np.exp(-1.0))
        assert row[62] == pytest.approx(np.exp(-4.0))

    def test_slc_takes_max_of_overlapping_bumps(self):
        # Cell 56 is 6 deg from the speaker at 50 and 10 deg from the one
        # at 66; the encoding keeps the larger bump, exp(-1).
        grid = SpatialGrid(360)
        truth = DoaSet(np.array([50.0, 66.0]))
        activity = np.ones((2, 1), dtype=bool)
        row = encode_slc(truth, activity, grid, 6.0).values[0, 0]
        assert row[56] == pytest.approx(np.exp(-1.0))
        assert row.max() == 1.0

    def test_shared_cell_warns(self):
        grid = SpatialGrid(36)
        truth = DoaSet(np.array([50.0, 52.0]))
        with pytest.warns(UserWarning):
            encode_slc(truth, np.ones((2, 1), dtype=bool), grid)


@st.composite
def _spatial_problems(draw):
    """(truth, activity, grid, sigma): 1-4 speakers on a grid coarse enough
    that two often share a cell, over enough frames to span several row
    blocks."""
    grid = SpatialGrid(draw(st.sampled_from([2, 4, 7, 36, 360])))
    angles = draw(st.lists(st.floats(0.0, 359.0), min_size=1, max_size=4,
                           unique=True))
    frames = draw(st.integers(1, 3 * _ENCODE_BLOCK_ROWS))
    activity = draw(arrays(bool, (len(angles), frames)))
    return (DoaSet(np.array(angles)), activity, grid,
            draw(st.floats(0.5, 90.0)))


# 50 and 52 deg share cell 5 of 36 in every frame.
_SHARED_CELL = (DoaSet(np.array([50.0, 52.0])), np.ones((2, 3), dtype=bool),
                SpatialGrid(36), 6.0)


class TestSpatialOnlyMatchesFormerLoops:
    @settings(max_examples=60, deadline=None)
    @given(problem=_spatial_problems())
    @example(problem=_SHARED_CELL)
    def test_sbc(self, problem):
        truth, activity, grid, _ = problem
        got = encode_sbc(truth, activity, grid)
        want = _oracle_encode_sbc(truth, activity, grid)
        assert got.kind == want.kind
        np.testing.assert_array_equal(got.values, want.values)

    @settings(max_examples=60, deadline=None)
    @given(problem=_spatial_problems())
    @example(problem=_SHARED_CELL)
    def test_slc(self, problem):
        truth, activity, grid, sigma = problem
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # shared cells warn in both
            got = encode_slc(truth, activity, grid, sigma)
            want = _oracle_encode_slc(truth, activity, grid, sigma)
        assert got.kind == want.kind
        np.testing.assert_array_equal(got.values, want.values)


class TestMaskWeightedEncodings:
    def test_mwsbc_places_masks_at_cells(self):
        grid = SpatialGrid(360)
        truth = DoaSet(np.array([50.0, 120.0]))
        masks = MaskSet(np.array([[[0.7]], [[0.3]]]))
        tensor = encode_mwsbc(masks, truth, grid)
        assert tensor.values[0, 0, 50] == 0.7
        assert tensor.values[0, 0, 120] == 0.3
        assert tensor.values.sum() == pytest.approx(1.0)

    def test_mwsbc_collision_raises(self):
        grid = SpatialGrid(36)
        truth = DoaSet(np.array([50.0, 52.0]))
        with pytest.raises(CollisionError):
            encode_mwsbc(_unit_masks(2), truth, grid)

    def test_mwslc_scales_bump_by_mask(self):
        grid = SpatialGrid(360)
        truth = DoaSet(np.array([100.0]))
        masks = MaskSet(np.array([[[0.5]]]))
        row = encode_mwslc(masks, truth, grid, 6.0).values[0, 0]
        assert row[100] == 0.5
        assert row[106] == pytest.approx(0.5 * np.exp(-1.0))

    def test_mwslc_max_vs_sum_far_speakers_agree(self):
        # At 36 deg separation the smaller Gaussian at any cell is at most
        # exp(-9), so the two forms are numerically indistinguishable.
        grid = SpatialGrid(720)
        truth = DoaSet(np.array([100.0, 136.0]))
        masks = _unit_masks(2)
        vmax = encode_mwslc(masks, truth, grid, 6.0).values
        vsum = encode_mwslc_sum(masks, truth, grid, 6.0).values
        assert np.abs(vsum - vmax).max() <= np.exp(-9.0) + 1e-15

    def test_mwslc_max_vs_sum_close_speakers_differ(self):
        grid = SpatialGrid(720)
        truth = DoaSet(np.array([100.0, 112.0]))
        masks = _unit_masks(2)
        vmax = encode_mwslc(masks, truth, grid, 6.0).values
        vsum = encode_mwslc_sum(masks, truth, grid, 6.0).values
        assert np.abs(vsum - vmax).max() > 1e-3

    def test_mask_count_must_match_doas(self):
        grid = SpatialGrid(360)
        truth = DoaSet(np.array([50.0, 120.0]))
        with pytest.raises(ShapeError):
            encode_mwslc(_unit_masks(3), truth, grid)

    def test_sum_form_unbounded_above_one(self):
        grid = SpatialGrid(720)
        truth = DoaSet(np.array([100.0, 115.0]))
        vsum = encode_mwslc_sum(_unit_masks(2), truth, grid, 6.0).values
        assert vsum.max() > 1.0

    def test_oracle_kinds_and_grid_round_trip(self, two_speaker_scene):
        bundle = two_speaker_scene
        assert bundle.coding.kind == "mwslc"
        assert bundle.coding.values.shape == (62, 257, 720)
        assert bundle.coding.grid.theta_count == 720


class TestMwslcOracleIdentity:
    """The zero-skipping block encoder is bitwise equal to the full loop."""

    def _sparse_masks(self, rng, speakers, frames, bins, zero_frac=0.5):
        values = rng.uniform(0.0, 1.0, (speakers, frames, bins))
        values[rng.uniform(size=values.shape) < zero_frac] = 0.0
        return MaskSet(values)

    def test_all_zero_speaker_mask(self, rng):
        grid = SpatialGrid(360)
        masks = self._sparse_masks(rng, 2, 7, 9)
        masks.values[1] = 0.0
        _assert_encoder_matches_oracle(masks, DoaSet(np.array([30.0, 200.0])),
                                       grid)
        alone = MaskSet(np.zeros((1, 7, 9)))
        got = encode_mwslc(alone, DoaSet(np.array([30.0])), grid).values
        assert got.tobytes() == np.zeros((7, 9, 360)).tobytes()

    @pytest.mark.parametrize("doas", [[100.0], [10.0, 95.5, 181.0, 300.25]])
    def test_one_and_four_speakers(self, rng, doas):
        masks = self._sparse_masks(rng, len(doas), 11, 13)
        _assert_encoder_matches_oracle(masks, DoaSet(np.array(doas)),
                                       SpatialGrid(720))

    @pytest.mark.parametrize("rows", [1, _ENCODE_BLOCK_ROWS - 1,
                                      _ENCODE_BLOCK_ROWS, _ENCODE_BLOCK_ROWS + 1,
                                      3 * _ENCODE_BLOCK_ROWS + 5])
    def test_row_counts_around_the_block_size(self, rng, rows):
        # Dense masks put exactly `rows` nonzero (t, k) rows in the blocks.
        masks = self._sparse_masks(rng, 2, rows, 1, zero_frac=0.0)
        _assert_encoder_matches_oracle(masks, DoaSet(np.array([40.0, 52.0])),
                                       SpatialGrid(360))

    def test_exact_zero_and_one_mask_values(self, rng):
        masks = MaskSet(rng.choice([0.0, 1.0], (3, 6, 40)))
        _assert_encoder_matches_oracle(
            masks, DoaSet(np.array([0.0, 7.0, 359.5])), SpatialGrid(720))

    @pytest.mark.parametrize("theta", [90, 180, 360, 720, 1440])
    def test_grid_sizes(self, rng, theta):
        masks = self._sparse_masks(rng, 2, 9, 17)
        _assert_encoder_matches_oracle(masks, DoaSet(np.array([50.0, 120.0])),
                                       SpatialGrid(theta))

    @pytest.mark.parametrize("theta", [720, 1440])
    def test_real_scene(self, two_speaker_scene, theta):
        bundle = two_speaker_scene
        _assert_encoder_matches_oracle(bundle.masks, bundle.truth,
                                       SpatialGrid(theta))

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 6),
                                        st.integers(1, 70)),
                  elements=st.one_of(st.just(0.0),
                                     st.floats(0.0, 1.0, allow_subnormal=True))),
           st.lists(st.integers(0, 3599), min_size=4, max_size=4, unique=True),
           st.sampled_from([90, 360, 1440]),
           st.sampled_from([0.5, 6.0, 40.0]))
    def test_matches_oracle_on_sparse_masks(self, values, tenths, theta, sigma):
        # np.abs turns any -0.0 into +0.0: masks are >= 0 with unsigned zeros.
        masks = MaskSet(np.abs(values))
        truth = DoaSet(np.array(tenths[:masks.speakers]) / 10.0)
        _assert_encoder_matches_oracle(masks, truth, SpatialGrid(theta), sigma)



class TestMwsbcOracleIdentity:
    """The one-hot rows folded by sum equal the former column add."""

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 6),
                                        st.integers(1, 70)),
                  elements=st.one_of(st.just(0.0), st.just(-0.0),
                                     st.floats(-1.0, 1.0, allow_subnormal=True))),
           st.lists(st.integers(0, 3599), min_size=3, max_size=3, unique=True),
           st.sampled_from([90, 360, 1440]))
    # 52 and 53 deg share cell 13 of 90.
    @example(np.ones((2, 1, 1)), [520, 530, 0], 90)
    def test_matches_oracle_on_sparse_masks(self, values, tenths, theta):
        # No sign premise: the running sum starts at +0 and never becomes
        # -0, so a skipped +-0 product could not have changed it.
        masks = MaskSet(values)
        truth = DoaSet(np.array(tenths[:masks.speakers]) / 10.0)
        grid = SpatialGrid(theta)
        try:
            want = _oracle_encode_mwsbc(masks, truth, grid)
        except CollisionError as err:
            with pytest.raises(CollisionError) as got:
                encode_mwsbc(masks, truth, grid)
            assert str(got.value) == str(err)
            return
        got = encode_mwsbc(masks, truth, grid)
        assert got.kind == want.kind
        assert got.values.tobytes() == want.values.tobytes()


class TestOneHotPeakMemory:
    """One-hot rows are (speakers, cells), never a cells x cells identity,
    so a one-hot encode allocates little beyond its result."""

    @pytest.mark.parametrize("kind", ["sbc", "mwsbc"])
    def test_peak_under_three_results_at_1440_cells(self, rng, kind):
        grid, truth = SpatialGrid(1440), DoaSet(np.array([50.0, 120.0]))
        masks = MaskSet(rng.uniform(0.0, 1.0, (2, 62, 4)))
        activity = frame_activity(masks)
        tracemalloc.start()
        try:
            result = (encode_sbc(truth, activity, grid) if kind == "sbc"
                      else encode_mwsbc(masks, truth, grid))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * result.values.nbytes


class TestMwslcSumOracleIdentity:
    """The sum form shares the max form's block loop and stays bitwise equal
    to the full per-speaker sum."""

    @pytest.mark.parametrize("theta", [90, 180, 360, 720, 1440])
    def test_real_scene(self, two_speaker_scene, theta):
        bundle = two_speaker_scene
        _assert_sum_matches_oracle(bundle.masks, bundle.truth,
                                   SpatialGrid(theta))

    def test_three_speaker_scene(self, three_speaker_scene):
        bundle = three_speaker_scene
        _assert_sum_matches_oracle(bundle.masks, bundle.truth,
                                   SpatialGrid(360), 40.0)

    @pytest.mark.parametrize("rows", [1, _ENCODE_BLOCK_ROWS,
                                      _ENCODE_BLOCK_ROWS + 1])
    def test_row_counts_around_the_block_size(self, rng, rows):
        masks = MaskSet(rng.uniform(0.0, 1.0, (2, rows, 1)))
        _assert_sum_matches_oracle(masks, DoaSet(np.array([40.0, 41.0])),
                                   SpatialGrid(360), 20.0)

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 6),
                                        st.integers(1, 70)),
                  elements=st.one_of(st.just(0.0), st.just(-0.0),
                                     st.floats(-1.0, 1.0, allow_subnormal=True))),
           st.lists(st.integers(0, 3599), min_size=4, max_size=4, unique=True),
           st.sampled_from([90, 360, 1440]),
           st.sampled_from([0.5, 6.0, 40.0]))
    def test_matches_oracle_on_sparse_masks(self, values, tenths, theta, sigma):
        # No sign premise: the running sum starts at +0 and never becomes
        # -0, so a skipped +-0 product could not have changed it.
        masks = MaskSet(values)
        truth = DoaSet(np.array(tenths[:masks.speakers]) / 10.0)
        _assert_sum_matches_oracle(masks, truth, SpatialGrid(theta), sigma)


def _joined_blocks(kind, masks, truth, grid, sigma_deg=6.0):
    """FrameBlocks' frames stacked, after checking that it yields one
    (bins, cells) frame per frame of the masks. A frame's array is reused
    once the next one is requested, so its values are copied."""
    blocks = FrameBlocks(kind, masks, truth, grid, sigma_deg)
    assert (blocks.kind, blocks.grid) == (kind, grid)
    frames = [frame.copy() for frame in blocks]
    assert [f.shape for f in frames] == \
        [(masks.bins, grid.theta_count)] * masks.frames
    return np.array(frames).reshape(masks.frames, masks.bins,
                                    grid.theta_count)


def _assert_blocks_match_full(kind, masks, truth, grid, sigma_deg=6.0):
    full = ENCODERS[kind](masks, truth, grid, sigma_deg).values
    joined = _joined_blocks(kind, masks, truth, grid, sigma_deg)
    assert joined.shape == full.shape
    assert joined.tobytes() == full.tobytes()


class TestEncodeReduced:
    """FrameBlocks' frames, stacked, give the full encoding, bit for bit,
    and the encoder's checks and warning behave as in one full encode."""

    @pytest.mark.parametrize("kind", sorted(ENCODERS))
    @pytest.mark.parametrize("frames", [0, 1, 3, 4, 12, 13])
    def test_frame_counts_around_the_block_size(self, rng, kind, frames):
        masks = MaskSet(rng.uniform(0.0, 1.0, (2, frames, 5)))
        _assert_blocks_match_full(kind, masks, DoaSet(np.array([40.0, 52.0])),
                                  SpatialGrid(360), 20.0)

    @pytest.mark.parametrize("kind", sorted(ENCODERS))
    def test_real_scene(self, two_speaker_scene, kind):
        bundle = two_speaker_scene
        _assert_blocks_match_full(kind, bundle.masks, bundle.truth,
                                  SpatialGrid(1440))

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(ENCODERS)),
           arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(0, 30),
                                        st.integers(1, 20)),
                  elements=st.one_of(st.just(0.0),
                                     st.floats(0.0, 1.0, allow_subnormal=True))),
           st.lists(st.integers(0, 3599), min_size=3, max_size=3, unique=True),
           st.sampled_from([90, 360, 1440]),
           st.sampled_from([0.5, 6.0, 40.0]))
    def test_matches_full_encoder(self, kind, values, tenths, theta, sigma):
        masks = MaskSet(np.abs(values))
        truth = DoaSet(np.array(tenths[:masks.speakers]) / 10.0)
        grid = SpatialGrid(theta)
        try:
            ENCODERS[kind](masks, truth, grid, sigma)
        except CollisionError:
            with pytest.raises(CollisionError):
                _joined_blocks(kind, masks, truth, grid, sigma)
            return
        _assert_blocks_match_full(kind, masks, truth, grid, sigma)

    @pytest.mark.parametrize("frames", [0, 1, 9])
    def test_collision_raised_before_the_first_block(self, frames):
        masks = _unit_masks(2, frames)
        truth = DoaSet(np.array([6.0, 14.0]))
        grid = SpatialGrid(36)
        with pytest.raises(CollisionError) as full:
            encode_mwsbc(masks, truth, grid)
        with pytest.raises(CollisionError) as blocked:
            _joined_blocks("mwsbc", masks, truth, grid)
        assert str(blocked.value) == str(full.value)

    @pytest.mark.parametrize("kind", sorted(ENCODERS))
    @pytest.mark.parametrize("frames", [0, 8])
    def test_speaker_count_checked_before_the_first_block(self, kind, frames):
        masks = _unit_masks(3, frames)
        truth = DoaSet(np.array([50.0, 120.0]))
        grid = SpatialGrid(360)
        with pytest.raises(ShapeError) as full:
            ENCODERS[kind](masks, truth, grid, 6.0)
        with pytest.raises(ShapeError) as blocked:
            _joined_blocks(kind, masks, truth, grid)
        assert str(blocked.value) == str(full.value)

    @pytest.mark.parametrize("kind", ["mwslc", "mwslc_sum"])
    def test_sigma_checked_before_the_first_block(self, kind):
        with pytest.raises(ConfigError):
            _joined_blocks(kind, _unit_masks(1, 0), DoaSet(np.array([5.0])),
                           SpatialGrid(360), 0.0)

    @pytest.mark.parametrize("frames", [0, 1, 13])
    def test_shared_cell_warning_given_once(self, frames):
        masks = _unit_masks(2, frames, 3)
        truth = DoaSet(np.array([6.0, 14.0]))
        grid = SpatialGrid(36)
        with warnings.catch_warnings(record=True) as full:
            warnings.simplefilter("always")
            encode_mwslc(masks, truth, grid)
        with warnings.catch_warnings(record=True) as blocked:
            warnings.simplefilter("always")
            _joined_blocks("mwslc", masks, truth, grid)
        assert len(full) == len(blocked) == 1
        assert str(blocked[0].message) == str(full[0].message)


class TestFrameBlocks:
    """FrameBlocks checks at construction and, on each iteration, yields the
    full encoding's frames in order; a CodingTensor yields its own."""

    def test_collision_raised_at_construction(self):
        with pytest.raises(CollisionError):
            FrameBlocks("mwsbc", _unit_masks(2, 9),
                        DoaSet(np.array([6.0, 14.0])), SpatialGrid(36), 6.0)

    @pytest.mark.parametrize("kind", sorted(ENCODERS))
    def test_blocks_in_order_and_equal_to_the_full_rows(self, rng, kind):
        masks = MaskSet(rng.uniform(0.0, 1.0, (2, 3, 5)))
        truth, grid = DoaSet(np.array([40.0, 52.0])), SpatialGrid(360)
        full = ENCODERS[kind](masks, truth, grid, 20.0)
        blocks = FrameBlocks(kind, masks, truth, grid, 20.0)
        assert (blocks.frames, blocks.bins, blocks.grid, blocks.kind) == (
            full.frames, full.bins, full.grid, full.kind)
        for _ in range(2):  # each iteration encodes the frames again
            count = 0
            for t, frame in enumerate(blocks):
                assert frame.tobytes() == full.values[t].tobytes()
                count += 1
            assert count == 3

    def test_coding_tensor_yields_its_frames(self):
        tensor = CodingTensor(np.arange(24.0).reshape(3, 2, 4),
                              SpatialGrid(4), "mwslc")
        frames = list(tensor)
        assert len(frames) == 3
        for t, frame in enumerate(frames):
            assert np.shares_memory(frame, tensor.values)  # never a copy
            assert frame.tobytes() == tensor.values[t].tobytes()


@st.composite
def _bin_mean_inputs(draw):
    """(kind, masks, truth, grid, sigma): 1-4 speakers, 0-4 of them active
    per bin, exact zeros, silent frames and bins, DoAs at 0 and just below
    the span, and sigmas down to where the bumps underflow one cell away."""
    kind = draw(st.sampled_from(sorted(ENCODERS)))
    speakers = draw(st.integers(1, 4))
    grid = draw(st.sampled_from([SpatialGrid(8), SpatialGrid(90),
                                 SpatialGrid(720), SpatialGrid(360, 90.0)]))
    span = grid.span_deg
    angles = draw(st.lists(
        st.one_of(st.just(0.0), st.just(float(np.nextafter(span, 0.0))),
                  st.integers(0, 3599).map(lambda n: n * span / 3600.0)),
        min_size=speakers, max_size=speakers, unique=True))
    # Past 8 bins np.sum adds a contiguous row pairwise, not in order.
    frames, bins = draw(st.integers(0, 6)), draw(st.integers(1, 24))
    values = draw(arrays(np.float64, (speakers, frames, bins),
                         elements=st.one_of(st.just(0.0),
                                            st.floats(0.0, 1.0))))
    values[:, draw(arrays(np.bool_, frames))] = 0.0
    values[:, :, draw(arrays(np.bool_, bins))] = 0.0
    values[:, draw(arrays(np.bool_, (frames, bins)))] = 0.0
    return (kind, MaskSet(values), DoaSet(np.array(angles), span), grid,
            draw(st.sampled_from([1e-3, 0.05, 6.0, 40.0])))


class TestMeanOverBins:
    """FrameBlocks.mean_over_bins, which encodes no cell, against
    freq_average of the frames: mwsbc bit for bit, the Gaussian kinds to
    1e-12 relative (zeros and subnormal products get an absolute floor)."""

    @staticmethod
    def _assert_matches_blocks(kind, masks, truth, grid, sigma):
        blocks = FrameBlocks(kind, masks, truth, grid, sigma)
        got = blocks.mean_over_bins()
        want = freq_average(blocks).values
        assert got.shape == want.shape == (masks.frames, grid.theta_count)
        if kind == "mwsbc":
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(max_examples=150, deadline=None)
    @given(_bin_mean_inputs())
    @example(("mwslc", MaskSet(np.full((2, 1, 3), 0.5)),
              DoaSet(np.array([0.0, np.nextafter(360.0, 0.0)])),
              SpatialGrid(720), 1e-3))
    @example(("mwslc", MaskSet(np.full((4, 2, 3), 0.25)),
              DoaSet(np.array([0.0, 90.0, 180.0, 270.0])), SpatialGrid(8),
              40.0))
    # One frame of 16 bins: in order, each 2^-53 rounds away against 1.0;
    # pairwise, they add up to one ulp first.
    @example(("mwsbc", MaskSet(np.array([[[1.0] + [2.0 ** -53] * 15]])),
              DoaSet(np.array([10.0])), SpatialGrid(720), 6.0))
    @example(("mwslc_sum", MaskSet(np.zeros((3, 0, 4))),
              DoaSet(np.array([10.0, 20.0, 30.0])), SpatialGrid(90), 6.0))
    def test_matches_freq_average_of_the_blocks(self, inputs):
        kind, masks, truth, grid, sigma = inputs
        try:
            FrameBlocks(kind, masks, truth, grid, sigma)
        except CollisionError:
            return  # mwsbc refuses DoAs that share a cell before any fold
        self._assert_matches_blocks(kind, masks, truth, grid, sigma)

    @pytest.mark.parametrize("kind", sorted(ENCODERS))
    def test_real_scenes(self, two_speaker_scene, three_speaker_scene, kind):
        for bundle in (two_speaker_scene, three_speaker_scene):
            self._assert_matches_blocks(kind, bundle.masks, bundle.truth,
                                        SpatialGrid(720), 6.0)


class TestSumOverCells:
    """FrameBlocks.sum_over_cells, which encodes no cell, against the
    encoded tensor summed over cells: mwsbc bit for bit up to two speakers,
    the max fold bit for bit at bins with three or more active speakers,
    all to 1e-12 relative (zeros and subnormal products get an absolute
    floor). theta_sweep never takes mwsbc through it."""

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(max_examples=150, deadline=None)
    @given(_bin_mean_inputs())
    @example(("mwslc", MaskSet(np.full((4, 2, 3), 0.25)),
              DoaSet(np.array([0.0, 90.0, 180.0, 270.0])), SpatialGrid(8),
              40.0))
    @example(("mwsbc", MaskSet(np.zeros((3, 0, 4))),
              DoaSet(np.array([10.0, 20.0, 30.0])), SpatialGrid(90), 6.0))
    def test_matches_the_encoded_cell_sums(self, inputs):
        kind, masks, truth, grid, sigma = inputs
        try:
            blocks = FrameBlocks(kind, masks, truth, grid, sigma)
        except CollisionError:
            return  # mwsbc refuses DoAs that share a cell before any fold
        got = blocks.sum_over_cells()
        want = ENCODERS[kind](masks, truth, grid, sigma).values.sum(axis=2)
        assert got.shape == want.shape == (masks.frames, masks.bins)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)
        if kind == "mwsbc" and masks.speakers <= 2:
            assert got.tobytes() == want.tobytes()
        if kind == "mwslc":
            many = (masks.values > 0).sum(axis=0) >= 3
            assert got[many].tobytes() == want[many].tobytes()


class TestWrapAround:
    """Rotating the DoAs by one cell rotates the encoding by one cell, also
    across 0 and the span. Angles and cell widths are binary fractions, so
    the rotated distances, and hence the rows, are exact."""

    @staticmethod
    def _rotated(truth, grid):
        return DoaSet((truth.angles_deg + grid.cell_width_deg) % grid.span_deg,
                      grid.span_deg)

    @staticmethod
    def _doas(eighths, grid):
        # Eighths of a degree counted from both ends of the span.
        top = int(grid.span_deg * 8)
        return DoaSet(np.array(sorted({e % top for e in eighths})) / 8.0,
                      grid.span_deg)

    _ends = st.lists(st.one_of(st.integers(0, 40), st.integers(-40, -1)),
                     min_size=1, max_size=3)
    _grids = st.sampled_from([SpatialGrid(90), SpatialGrid(720),
                              SpatialGrid(1440), SpatialGrid(360, 180.0),
                              SpatialGrid(64, 8.0)])

    @settings(max_examples=100, deadline=None)
    @given(_ends, _grids, st.sampled_from([0.5, 6.0, 40.0]))
    def test_gaussian_rows_rotate_with_the_doas(self, eighths, grid, sigma):
        truth = self._doas(eighths, grid)
        rows = _gaussian_rows(truth, grid, sigma)
        rotated = _gaussian_rows(self._rotated(truth, grid), grid, sigma)
        np.testing.assert_array_equal(rotated, np.roll(rows, 1, axis=1))

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(max_examples=60, deadline=None)
    @given(_ends, _grids, st.integers(0, 2**32 - 1))
    def test_mwslc_rotates_with_the_doas(self, eighths, grid, seed):
        truth = self._doas(eighths, grid)
        masks = MaskSet(np.random.default_rng(seed).uniform(
            0.0, 1.0, (truth.count, 3, 4)))
        coding = encode_mwslc(masks, truth, grid).values
        rotated = encode_mwslc(masks, self._rotated(truth, grid), grid).values
        np.testing.assert_array_equal(rotated, np.roll(coding, 1, axis=2))


class TestHelpers:
    def test_frame_activity(self):
        masks = MaskSet(np.array([[[0.0, 0.0], [0.4, 0.0]],
                                  [[0.0, 0.1], [0.0, 0.0]]]))
        np.testing.assert_array_equal(frame_activity(masks),
                                      [[False, True], [True, False]])

    def test_snap_to_grid(self):
        grid = SpatialGrid(360)
        truth = DoaSet(np.array([50.4, 120.6]))
        np.testing.assert_array_equal(snap_to_grid(truth, grid), [50, 121])

    def test_coding_tensor_validates_grid_axis(self):
        with pytest.raises(ShapeError):
            CodingTensor(np.zeros((2, 3, 100)), SpatialGrid(360), "mwslc")

    def test_coding_tensor_validates_kind(self):
        with pytest.raises(ValueError):
            CodingTensor(np.zeros((2, 3, 360)), SpatialGrid(360), "onehot")
