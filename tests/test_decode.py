"""Peak search, clustering, and threshold calibration tests."""

import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform

from maskgrid.coding import (ENCODERS, CodingTensor, DoaSet, FrameBlocks,
                             FrameSource, MaskSet, SpatialGrid, encode_mwslc,
                             wrapped_distance)
from maskgrid import decode
from maskgrid.container import CodingFile, save_coding, written
from maskgrid.errors import CollisionError
from maskgrid.decode import (CalibrationResult, CalibrationRow, Detection,
                             DoaCluster, DoaEstimates, FrameLikelihood,
                             _average_linkage, calibrate_threshold,
                             circular_mean, cluster_doas, freq_average,
                             peak_search, sample_masks)
from maskgrid.metrics import doa_precision_recall
from maskgrid.estimator import corrupt_oracle


def _oracle_average_linkage(angles, span, threshold):
    """Reference linkage: full masked argmin per merge, kept as the test oracle."""
    n = angles.size
    dist = wrapped_distance(angles[:, None], angles[None, :], span)
    np.fill_diagonal(dist, np.inf)
    members = [[i] for i in range(n)]
    sizes = np.ones(n)
    alive = np.ones(n, dtype=bool)
    while alive.sum() > 1:
        masked = np.where(alive[:, None] & alive[None, :], dist, np.inf)
        i, j = np.unravel_index(np.argmin(masked), masked.shape)
        if masked[i, j] > threshold:
            break
        # Lance-Williams update keeps dist[i] the exact mean pairwise distance.
        dist[i, :] = (sizes[i] * dist[i, :] + sizes[j] * dist[j, :]) / (
            sizes[i] + sizes[j])
        dist[:, i] = dist[i, :]
        dist[i, i] = np.inf
        members[i].extend(members[j])
        sizes[i] += sizes[j]
        alive[j] = False
    return [np.array(members[i]) for i in range(n) if alive[i]]


def _former_average_linkage(angles: np.ndarray, span: float,
                            threshold: float) -> list:
    """The nearest-neighbour-list loop over the whole set, before arcs were
    clustered on their own; verbatim but for its name."""
    n = angles.size
    if n == 0:
        return []
    dist = wrapped_distance(angles[:, None], angles[None, :], span)
    np.fill_diagonal(dist, np.inf)
    members = [[i] for i in range(n)]
    sizes = np.ones(n)
    alive = np.ones(n, dtype=bool)
    nearest = np.argmin(dist, axis=1)
    low = dist[np.arange(n), nearest]
    for _ in range(n - 1):
        i = int(np.argmin(low))
        j = int(nearest[i])
        if low[i] > threshold:
            break
        # Lance-Williams update keeps dist[i] the exact mean pairwise distance.
        dist[i, :] = (sizes[i] * dist[i, :] + sizes[j] * dist[j, :]) / (
            sizes[i] + sizes[j])
        dist[:, i] = dist[i, :]
        dist[i, i] = np.inf
        dist[j, :] = np.inf
        dist[:, j] = np.inf
        members[i].extend(members[j])
        sizes[i] += sizes[j]
        alive[j] = False
        low[j] = np.inf
        # i < j, as row i is the first to hold the minimum. A row's first
        # minimum moves to column i if the new distance beats it, or ties it
        # at or after i; rows whose minimum was at i or j (row i too) rescan.
        col = dist[i]
        to_i = (col < low) | ((col == low) & (nearest >= i))
        stale = np.flatnonzero(~to_i & ((nearest == i) | (nearest == j)))
        nearest[to_i] = i
        low[to_i] = col[to_i]
        nearest[stale] = np.argmin(dist[stale], axis=1)
        low[stale] = dist[stale, nearest[stale]]
    return [np.array(members[i]) for i in range(n) if alive[i]]


def _oracle_peak_search(fl, eps_theta, delta_theta_deg=6.0):
    """Reference peak search with a per-frame plateau walk, kept as the oracle."""
    if not 0.0 < eps_theta < 1.0:
        raise ValueError(f"eps_theta must be in (0, 1), got {eps_theta}")
    if delta_theta_deg <= 0:
        raise ValueError(f"delta_theta must be positive, got {delta_theta_deg}")
    v = fl.values
    grid = fl.grid
    theta = grid.theta_count
    reach = int(math.floor(delta_theta_deg / grid.cell_width_deg + 1e-9))
    reach = min(reach, theta // 2)
    window_max = v.copy()
    for off in range(1, reach + 1):
        np.maximum(window_max, np.roll(v, off, axis=1), out=window_max)
        np.maximum(window_max, np.roll(v, -off, axis=1), out=window_max)
    is_peak = (v >= eps_theta) & (v >= window_max)

    detections = []
    for t in np.nonzero(is_peak.any(axis=1))[0]:
        cand = np.flatnonzero(is_peak[t])
        cand_set = set(cand.tolist())
        visited = set()
        for g in cand.tolist():
            if g in visited:
                continue
            # Collect the maximal circular run of adjacent equal-valued
            # peaks around g; only its lowest index is reported.
            run = [g]
            visited.add(g)
            nxt = (g + 1) % theta
            while (nxt in cand_set and nxt not in visited
                   and v[t, nxt] == v[t, run[-1]]):
                run.append(nxt)
                visited.add(nxt)
                nxt = (run[-1] + 1) % theta
            prv = (g - 1) % theta
            while (prv in cand_set and prv not in visited
                   and v[t, prv] == v[t, run[0]]):
                run.insert(0, prv)
                visited.add(prv)
                prv = (run[0] - 1) % theta
            low = min(run)
            detections.append(Detection(int(t), grid.angle_of(low)))
    detections.sort(key=lambda d: (d.frame, d.angle_deg))
    return detections


def _assert_same_groups(angles, threshold, span=360.0,
                        reference=_oracle_average_linkage):
    got = _average_linkage(angles, span, threshold)
    expected = reference(angles, span, threshold)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)


def _likelihood(rows, theta=360):
    return FrameLikelihood(np.asarray(rows, dtype=float), SpatialGrid(theta))


def _bump(center, theta=360, height=1.0, sigma=6.0):
    grid = SpatialGrid(theta)
    d = wrapped_distance(grid.centers(), center)
    return height * np.exp(-((d / sigma) ** 2))


class TestFreqAverage:
    def test_mean_over_bins(self, rng):
        theta = 16
        values = rng.uniform(0, 1, (3, 5, theta))
        coding = CodingTensor(values, SpatialGrid(theta), "mwslc")
        fl = freq_average(coding)
        np.testing.assert_allclose(fl.values, values.mean(axis=1))
        assert fl.frames == 3

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            FrameLikelihood(np.zeros((3, 100)), SpatialGrid(360))


class TestPeakSearch:
    def test_single_bump_single_detection(self):
        fl = _likelihood([_bump(50.0)])
        detections = peak_search(fl, 0.3)
        assert len(detections) == 1
        assert detections[0] == Detection(0, 50.0)

    def test_two_separated_bumps(self):
        fl = _likelihood([np.maximum(_bump(50.0), _bump(120.0, height=0.8))])
        angles = [d.angle_deg for d in peak_search(fl, 0.3)]
        assert angles == [50.0, 120.0]

    def test_threshold_filters_low_peaks(self):
        fl = _likelihood([np.maximum(_bump(50.0), _bump(120.0, height=0.2))])
        angles = [d.angle_deg for d in peak_search(fl, 0.3)]
        assert angles == [50.0]

    def test_shoulder_within_window_suppressed(self):
        # A secondary bump 5 deg away is inside the +-6 deg window of the
        # primary maximum, so it is not locally maximal.
        row = np.maximum(_bump(50.0), _bump(55.0, height=0.9))
        angles = [d.angle_deg for d in peak_search(_likelihood([row]), 0.3)]
        assert angles == [50.0]

    def test_plateau_reports_lowest_cell(self):
        row = np.zeros(360)
        row[70:74] = 0.6
        angles = [d.angle_deg for d in peak_search(_likelihood([row]), 0.3)]
        assert angles == [70.0]

    def test_plateau_wrapping_zero_reports_once(self):
        row = np.zeros(360)
        row[358:] = 0.6
        row[:2] = 0.6
        detections = peak_search(_likelihood([row]), 0.3)
        assert len(detections) == 1
        assert detections[0].angle_deg == 0.0

    def test_per_frame_independence(self):
        fl = _likelihood([_bump(50.0), np.zeros(360), _bump(120.0)])
        detections = peak_search(fl, 0.3)
        assert [(d.frame, d.angle_deg) for d in detections] == \
            [(0, 50.0), (2, 120.0)]

    def test_eps_range_validated(self):
        with pytest.raises(ValueError):
            peak_search(_likelihood([np.zeros(360)]), 0.0)
        with pytest.raises(ValueError):
            peak_search(_likelihood([np.zeros(360)]), 1.0)

    def test_delta_validated(self):
        with pytest.raises(ValueError):
            peak_search(_likelihood([np.zeros(360)]), 0.3, 0.0)


# Plateau-heavy rows: few levels, so runs of equal cells are common; some
# rows are one level around the whole circle.
_LEVELS = st.sampled_from([0.0, 0.2, 0.5, 0.9])


@st.composite
def _plateau_likelihoods(draw):
    theta = draw(st.integers(2, 39))
    row = st.one_of(st.lists(_LEVELS, min_size=theta, max_size=theta),
                    _LEVELS.map(lambda level: [level] * theta))
    return _likelihood(draw(st.lists(row, min_size=1, max_size=4)), theta)


class TestPeakSearchOracle:
    """The run-start mask reports exactly the reference walk's detections,
    in the same order."""

    EPS = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

    @pytest.mark.parametrize("noise", [0.0, 0.15])
    def test_real_scene_likelihoods(self, two_speaker_scene, noise):
        fl = freq_average(corrupt_oracle(two_speaker_scene.coding, noise, 0,
                                         seed=3))
        for eps in self.EPS:
            assert peak_search(fl, eps) == _oracle_peak_search(fl, eps)
        assert peak_search(fl, 0.05)

    @pytest.mark.parametrize("theta", [2, 3])
    def test_whole_circle_plateau(self, theta):
        fl = _likelihood([[0.5] * theta], theta)
        assert peak_search(fl, 0.3) == _oracle_peak_search(fl, 0.3) == \
            [Detection(0, 0.0)]

    @settings(max_examples=400, deadline=None)
    @given(_plateau_likelihoods(), st.sampled_from([1.0, 6.0, 30.0, 200.0]),
           st.sampled_from([0.1, 0.3, 0.6]))
    def test_matches_oracle_on_plateaus(self, fl, delta, eps):
        assert peak_search(fl, eps, delta) == _oracle_peak_search(fl, eps, delta)


class TestCircularMean:
    def test_plain_average(self):
        assert circular_mean(np.array([10.0, 20.0])) == pytest.approx(15.0)

    def test_wraps_across_zero(self):
        assert circular_mean(np.array([350.0, 10.0])) == pytest.approx(0.0, abs=1e-9)

    def test_result_in_range(self, rng):
        for _ in range(20):
            m = circular_mean(rng.uniform(0, 360, 5))
            assert 0.0 <= m < 360.0

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([360.0, 180.0, 7.5]), st.data())
    def test_stays_in_range_near_both_ends(self, span, data):
        # Angles a hair above 0 and a hair below the span put the mean
        # direction next to the cut, where the mod can round to the span.
        near = st.one_of(
            st.floats(0.0, 1e-3, allow_subnormal=True),
            st.floats(0.0, 1e-3).map(lambda d: np.nextafter(span - d, 0.0)))
        angles = np.array(data.draw(st.lists(near, min_size=1, max_size=6)))
        m = circular_mean(angles, span)
        assert 0.0 <= m < span


class TestAverageLinkage:
    def test_matches_scipy_average_linkage(self, rng):
        # The merge-while-below-threshold rule is exactly a flat cut of
        # scipy's average-linkage dendrogram at that threshold.
        for _ in range(25):
            angles = rng.uniform(0, 360, int(rng.integers(2, 12)))
            d = wrapped_distance(angles[:, None], angles[None, :])
            np.fill_diagonal(d, 0.0)
            z = linkage(squareform(d, checks=False), method="average")
            labels = fcluster(z, t=12.0, criterion="distance")
            ours = sorted(sorted(g.tolist())
                          for g in _average_linkage(angles, 360.0, 12.0))
            theirs = sorted(sorted(np.flatnonzero(labels == lab).tolist())
                            for lab in np.unique(labels))
            assert ours == theirs

    def test_singleton(self):
        groups = _average_linkage(np.array([42.0]), 360.0, 12.0)
        assert len(groups) == 1

    def test_empty(self):
        assert _average_linkage(np.zeros(0), 360.0, 12.0) == []


class TestAverageLinkageOracle:
    """The cached-neighbour linkage makes the reference's merges: the same
    groups, in the same order, with the same member order."""

    @pytest.mark.parametrize("threshold", [1.0, 12.0, 40.0, 200.0])
    def test_uniform_angles(self, rng, threshold):
        for n in (2, 3, 17, 120):
            _assert_same_groups(rng.uniform(0, 360, n), threshold)

    @pytest.mark.parametrize("threshold", [0.0, 0.5, 6.0, 12.0, 90.0])
    def test_half_degree_cell_centres_with_ties(self, rng, threshold):
        # Few distinct cells, so equal distances and equal minima are common.
        for n in (5, 40, 150):
            _assert_same_groups(rng.integers(0, 40, n) * 0.5, threshold)
            _assert_same_groups(rng.integers(0, 720, n) * 0.5, threshold)

    def test_clustered_angles(self, rng):
        centres = np.array([3.0, 50.0, 56.0, 200.0, 357.0])
        angles = (rng.choice(centres, 200)
                  + rng.integers(-10, 11, 200) * 0.5) % 360.0
        for threshold in (2.0, 6.0, 12.0, 30.0):
            _assert_same_groups(angles, threshold)

    def test_noisy_coding_detections(self, two_speaker_scene):
        coding = two_speaker_scene.coding
        head = CodingTensor(coding.values[:16], coding.grid, coding.kind)
        noisy = corrupt_oracle(head, 0.15, 0, seed=5)
        detections = peak_search(freq_average(noisy), 0.05)
        assert len(detections) >= 300
        angles = np.array([d.angle_deg for d in detections])
        _assert_same_groups(angles, 12.0)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 719), min_size=0, max_size=60),
           st.sampled_from([0.0, 0.5, 3.0, 12.0, 45.0, 180.0]))
    def test_matches_oracle_on_cell_centres(self, cells, threshold):
        _assert_same_groups(np.array(cells, dtype=float) * 0.5, threshold)


_SPANS = st.sampled_from([360.0, 180.0])
_THRESHOLDS = st.sampled_from([0.0, 0.5, 3.0, 12.0, 45.0, 180.0])


@st.composite
def _arc_cases(draw):
    """(angles, span, threshold): a few cells under many duplicates, runs
    of cells across 0 (0.0 beside span - 0.5, and span itself), or chains
    whose gaps sit at the threshold, inside the cut margin or past it."""
    span, threshold = draw(_SPANS), draw(_THRESHOLDS)
    cells = int(2 * span)
    kind = draw(st.sampled_from(["plateau", "wrap", "chain"]))
    if kind == "plateau":
        distinct = draw(st.lists(st.integers(0, cells - 1), min_size=1,
                                 max_size=3, unique=True))
        angles = np.array(draw(st.lists(st.sampled_from(distinct),
                                        min_size=1, max_size=400))) * 0.5
    elif kind == "wrap":
        offsets = draw(st.lists(st.integers(-30, 30), min_size=1,
                                max_size=120))
        angles = (np.array(offsets) % cells) * 0.5
        if draw(st.booleans()):
            every_other = angles[::2]
            every_other[every_other == 0.0] = span
    else:
        margin = 1e-9 * span
        gaps = draw(st.lists(st.sampled_from(
            [0.0, 0.5, threshold, threshold + margin / 10,
             threshold + 10 * margin, threshold + 0.5]), min_size=1,
            max_size=12))
        start = draw(st.integers(0, cells - 1)) * 0.5
        points = (start + np.cumsum(gaps)) % span
        picks = draw(st.lists(st.integers(0, points.size - 1), min_size=1,
                              max_size=150))
        angles = points[picks]
    return angles, span, threshold


class TestArcsMatchFormerLoop:
    """Clustering each arc on its own makes the whole-set loop's groups,
    group order and member order."""

    @settings(max_examples=150, deadline=None)
    @given(_arc_cases())
    def test_matches_former_loop(self, case):
        angles, span, threshold = case
        _assert_same_groups(angles, threshold, span, _former_average_linkage)

    def test_gap_equal_to_threshold_merges(self):
        # Two cells 12 deg apart: the rule is <=, so at a 12 deg threshold
        # they are one arc and one group, at 11.5 two.
        angles = np.array([100.0, 112.0, 100.0, 112.0])
        assert [g.tolist() for g in _average_linkage(angles, 360.0, 12.0)] \
            == [[0, 2, 1, 3]]
        assert [g.tolist() for g in _average_linkage(angles, 360.0, 11.5)] \
            == [[0, 2], [1, 3]]
        for threshold in (11.5, 12.0):
            _assert_same_groups(angles, threshold,
                                reference=_former_average_linkage)

    def test_angles_beyond_the_span_stay_one_arc(self):
        # 700 deg is 340 deg, but sorts past it; such a set is not cut.
        angles = np.array([100.0, 340.0, 700.0, 100.0, 220.0])
        for threshold in (0.0, 12.0, 45.0):
            _assert_same_groups(angles, threshold,
                                reference=_former_average_linkage)

    def test_negative_threshold_merges_nothing(self):
        angles = np.array([5.0, 5.0, 5.0, 6.0])
        for threshold in (-1e-8, -1.0):
            assert [g.tolist() for g in _average_linkage(
                angles, 360.0, threshold)] == [[0], [1], [2], [3]]
            _assert_same_groups(angles, threshold,
                                reference=_former_average_linkage)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           noise=st.sampled_from([0.05, 0.15, 0.3]),
           eps=st.sampled_from([0.05, 0.2, 0.5]),
           threshold=st.sampled_from([0.0, 3.0, 12.0, 45.0]))
    def test_noisy_coding_detections(self, two_speaker_scene, seed, noise,
                                     eps, threshold):
        coding = two_speaker_scene.coding
        head = CodingTensor(coding.values[:12], coding.grid, coding.kind)
        noisy = corrupt_oracle(head, noise, 0, seed=seed)
        angles = np.array([d.angle_deg for d in
                           peak_search(freq_average(noisy), eps)])
        _assert_same_groups(angles, threshold,
                            reference=_former_average_linkage)

    def test_duplicates_on_few_cells_build_no_matrix(self):
        # The whole-set loop's 3000 x 3000 float64 matrix alone is 72 MB.
        labels = np.random.default_rng(0).integers(0, 3, 3000)
        angles = np.array([100.0, 130.0, 160.0])[labels]
        tracemalloc.start()
        try:
            groups = _average_linkage(angles, 360.0, 12.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        expected = sorted((np.flatnonzero(labels == k) for k in range(3)),
                          key=lambda g: g[0])
        assert len(groups) == 3
        for g, e in zip(groups, expected):
            assert np.array_equal(g, e)
        assert peak < 2**20


class TestClusterDoas:
    def _detections(self, frame_angles):
        return [Detection(t, a) for t, a in frame_angles]

    def test_two_well_separated_clusters(self):
        detections = self._detections(
            [(0, 49.5), (0, 120.0), (1, 50.5), (1, 119.5), (2, 50.0)])
        estimates = cluster_doas(detections, sigma_deg=6.0)
        assert estimates.count == 2
        # Sorted by support: the 50-deg cluster has three members.
        assert estimates.clusters[0].support == 3
        assert estimates.clusters[0].center_deg == pytest.approx(50.0)
        assert estimates.clusters[1].center_deg == pytest.approx(119.75)

    def test_cluster_wraps_across_zero(self):
        detections = self._detections([(0, 358.0), (1, 2.0), (2, 0.0)])
        estimates = cluster_doas(detections, sigma_deg=6.0)
        assert estimates.count == 1
        assert wrapped_distance(estimates.clusters[0].center_deg, 0.0) < 1.0

    def test_min_support_drops_stragglers(self):
        # 20 frames of detections at 50 deg and a single outlier: the
        # outlier holds 1/20 = 5% support, below a 10% floor.
        detections = self._detections([(t, 50.0) for t in range(20)]
                                      + [(5, 200.0)])
        estimates = cluster_doas(detections, min_support_frac=0.10)
        assert estimates.count == 1
        assert estimates.clusters[0].center_deg == pytest.approx(50.0)

    def test_support_floor_disabled_with_none(self):
        detections = self._detections([(t, 50.0) for t in range(20)]
                                      + [(5, 200.0)])
        estimates = cluster_doas(detections, min_support_frac=None)
        assert estimates.count == 2

    def test_empty_detections(self):
        estimates = cluster_doas([])
        assert estimates.count == 0
        assert estimates.centers_deg.size == 0

    def test_chained_clusters_merge_when_centers_close(self):
        # Three tight groups 10 deg apart: average linkage may stop with
        # centers still within 2 sigma; the post-pass merges them.
        detections = self._detections(
            [(t, a) for t in range(3) for a in (40.0, 50.0, 60.0)])
        estimates = cluster_doas(detections, sigma_deg=6.0)
        centers = estimates.centers_deg
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                assert wrapped_distance(centers[i], centers[j]) > 12.0


class TestSampleMasks:
    def test_slices_at_cluster_cells(self, rng):
        theta = 360
        values = rng.uniform(0, 1, (4, 3, theta))
        coding = CodingTensor(values, SpatialGrid(theta), "mwslc")
        detections = [Detection(t, 50.0) for t in range(3)] + \
            [Detection(t, 120.0) for t in range(3)]
        estimates = cluster_doas(detections)
        masks = sample_masks(coding, estimates)
        assert masks.speakers == 2
        order = [int(round(c.center_deg)) for c in estimates.clusters]
        np.testing.assert_array_equal(masks.values[0], values[:, :, order[0]])
        np.testing.assert_array_equal(masks.values[1], values[:, :, order[1]])

    def test_empty_estimates_give_empty_masks(self, rng):
        theta = 24
        coding = CodingTensor(rng.uniform(0, 1, (2, 3, theta)),
                              SpatialGrid(theta), "mwslc")
        masks = sample_masks(coding, cluster_doas([]))
        assert masks.values.shape == (0, 2, 3)


class TestCalibrateThreshold:
    def _scene(self, rng, doas, theta=360, frames=30, noise=0.0):
        grid = SpatialGrid(theta)
        rows = np.zeros((frames, theta))
        for doa in doas:
            rows = np.maximum(rows, np.tile(_bump(doa, theta), (frames, 1)))
        if noise:
            rows = np.clip(rows + rng.normal(0, noise, rows.shape), 0, 1)
        coding = CodingTensor(rows[:, None, :], grid, "mwslc")
        return coding, DoaSet(np.array(doas))

    def test_perfect_scene_reaches_f1_one(self, rng):
        scenes = [self._scene(rng, [50.0, 120.0]), self._scene(rng, [10.0, 200.0])]
        result = calibrate_threshold(scenes, [0.2, 0.5, 0.8])
        assert result.best_f1 == 1.0
        assert len(result.rows) == 3

    def test_tie_prefers_lowest_threshold(self, rng):
        scenes = [self._scene(rng, [50.0, 120.0])]
        result = calibrate_threshold(scenes, [0.6, 0.2, 0.4])
        assert result.best_eps_theta == 0.2

    def test_high_threshold_loses_recall(self, rng):
        coding, truth = self._scene(rng, [50.0])
        weak = CodingTensor(0.4 * coding.values, coding.grid, coding.kind)
        result = calibrate_threshold([(weak, truth)], [0.2, 0.9])
        by_eps = {r.eps_theta: r for r in result.rows}
        assert by_eps[0.2].recall == 1.0
        assert by_eps[0.9].recall == 0.0

    def test_empty_candidates_rejected(self, rng):
        with pytest.raises(ValueError):
            calibrate_threshold([self._scene(rng, [50.0])], [])

    def test_no_scenes_rejected(self):
        with pytest.raises(ValueError, match="validation scene"):
            calibrate_threshold([], [0.2, 0.5])
        with pytest.raises(ValueError, match="validation scene"):
            calibrate_threshold(iter(()), [0.2, 0.5])

    def test_generator_matches_list(self, rng):
        scenes = [self._scene(rng, [50.0, 120.0], noise=0.2),
                  self._scene(rng, [10.0, 200.0], noise=0.2),
                  self._scene(rng, [300.0])]
        consumed = []

        def one_at_a_time():
            for scene in scenes:
                consumed.append(scene)
                yield scene

        candidates = [0.1, 0.3, 0.5, 0.9]
        from_list = calibrate_threshold(scenes, candidates)
        from_generator = calibrate_threshold(one_at_a_time(), candidates)
        assert from_generator == from_list
        assert len(consumed) == len(scenes)

    def test_each_scene_is_scored_before_the_next_is_drawn(self, rng,
                                                            monkeypatch):
        # One neighbourhood maximum per scene serves every candidate, and a
        # scene is let go before the next is drawn.
        scenes = [self._scene(rng, [50.0, 120.0], noise=0.2),
                  self._scene(rng, [300.0])]
        events = []
        window, search = decode._at_window_max, decode.peak_search
        monkeypatch.setattr(decode, "_at_window_max", lambda *args: (
            events.append("window"), window(*args))[1])
        monkeypatch.setattr(decode, "peak_search", lambda *args: (
            events.append("peaks"), search(*args))[1])

        def drawn():
            for scene in scenes:
                events.append("scene")
                yield scene

        result = calibrate_threshold(drawn(), [0.5, 0.1, 0.3])
        assert events == ["scene", "window", "peaks", "peaks", "peaks"] * 2
        assert result == _former_calibrate_threshold(scenes, [0.5, 0.1, 0.3])

    def test_blocked_likelihoods_match_tensors(self, two_speaker_scene,
                                               three_speaker_scene):
        # Likelihoods averaged frame by frame, as pipeline builds them,
        # give the result of the tensors.
        grid = SpatialGrid(360)
        bundles = (two_speaker_scene, three_speaker_scene)

        def likelihoods():
            for bundle in bundles:
                blocks = FrameBlocks("mwslc", bundle.masks, bundle.truth,
                                     grid, 6.0)
                yield freq_average(blocks), bundle.truth

        tensors = [(encode_mwslc(b.masks, b.truth, grid), b.truth)
                   for b in bundles]
        for (fl, _), (tensor, _) in zip(likelihoods(), tensors):
            assert fl.values.tobytes() == freq_average(tensor).values.tobytes()
        candidates = [0.05, 0.1, 0.3, 0.6]
        assert (calibrate_threshold(likelihoods(), candidates)
                == calibrate_threshold(tensors, candidates))


class TestFreqAverageByBlocks:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 4), st.integers(1, 40), st.integers(2, 50),
           st.integers(0, 2**32 - 1))
    def test_blocks_of_frames_give_the_same_bytes(self, frames, bins, theta,
                                                  seed):
        # The mean over bins reduces each (frame, cell) on its own, so the
        # former whole-tensor mean and one tensor per frame leave every
        # byte as freq_average's frame loop gives it.
        values = np.random.default_rng(seed).uniform(0.0, 1.0,
                                                     (frames, bins, theta))
        grid = SpatialGrid(theta)
        full = freq_average(CodingTensor(values, grid, "mwslc")).values
        assert full.tobytes() == values.mean(axis=1).tobytes()
        framed = np.empty((frames, theta))
        for t in range(frames):
            framed[t] = freq_average(
                CodingTensor(values[t:t + 1], grid, "mwslc")).values
        assert framed.tobytes() == full.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 7), st.integers(1, 300), st.integers(2, 50),
           st.integers(0, 2**32 - 1))
    def test_write_pass_average_equals_the_written_files(
            self, frames, bins, theta, seed):
        # pipeline averages the float32 frames container.written yields,
        # summed in float64; staged decode averages coding.bin's float32
        # frames the same way. Zeros and values above 1 occur, as in the
        # codings. The source makes a fresh array per frame, as
        # corrupt_blocks does.
        values = np.random.default_rng(seed).uniform(0.0, 2.0,
                                                     (frames, bins, theta))
        values[values < 0.5] = 0.0
        grid = SpatialGrid(theta)
        source = FrameSource(frames, bins, grid, "mwslc_sum",
                             lambda: (frame.copy() for frame in values))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "coding.bin"
            average = freq_average(written(path, source))
            stored = freq_average(CodingFile(path))
        assert average.values.tobytes() == stored.values.tobytes()
        rounded = values.astype(np.float32).mean(axis=1, dtype=np.float64)
        assert average.values.tobytes() == rounded.tobytes()


class TestBlockSources:
    @pytest.mark.parametrize("kind", sorted(ENCODERS))
    def test_frame_blocks_decode_as_the_full_tensor(self, kind, tmp_path,
                                                    three_speaker_scene):
        # 62 frames; every byte matches the tensor's, and the masks sampled
        # from the file the frames write are the tensor's rounded to
        # float32.
        bundle, grid = three_speaker_scene, SpatialGrid(360)
        full = ENCODERS[kind](bundle.masks, bundle.truth, grid, 6.0)
        blocks = FrameBlocks(kind, bundle.masks, bundle.truth, grid, 6.0)
        fl = freq_average(blocks)
        assert fl.values.tobytes() == freq_average(full).values.tobytes()
        estimates = cluster_doas(peak_search(fl, 0.1))
        assert estimates.count == 3
        save_coding(tmp_path / "coding.bin", blocks)
        sampled = sample_masks(CodingFile(tmp_path / "coding.bin"), estimates)
        want = sample_masks(full, estimates).values
        assert sampled.values.tobytes() == \
            want.astype(np.float32).astype(np.float64).tobytes()

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(ENCODERS)),
           arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(0, 9),
                                        st.integers(1, 12)),
                  elements=st.one_of(st.just(0.0),
                                     st.floats(0.0, 1.0, allow_subnormal=True)),
                  fill=st.nothing()),
           st.lists(st.booleans(), min_size=9, max_size=9),
           st.lists(st.integers(0, 3599), min_size=3, max_size=3, unique=True),
           st.sampled_from([8, 90, 360]),
           st.sampled_from([0.5, 6.0, 40.0]),
           st.data())
    def test_one_pass_rows_and_columns_equal_the_full_tensor(
            self, kind, values, silent, tenths, theta, sigma, data):
        # Frames flagged silent are all zero in every mask; cell lists may be
        # empty, repeat a cell or come in any order.
        values[:, np.array(silent[:values.shape[1]], dtype=bool)] = 0.0
        masks = MaskSet(values)
        grid = SpatialGrid(theta)
        truth = DoaSet(np.array(tenths[:masks.speakers]) / 10.0)
        try:
            full = ENCODERS[kind](masks, truth, grid, sigma)
        except CollisionError:
            assume(False)
        # Half the cells are the speakers' own, where mwsbc is nonzero.
        snapped = [grid.index_of(a) for a in truth.angles_deg]
        cells = data.draw(st.lists(st.one_of(st.sampled_from(snapped),
                                             st.integers(0, theta - 1)),
                                   max_size=5))
        doas = DoaEstimates(tuple(DoaCluster(grid.angle_of(g), 1)
                                  for g in cells))
        want = np.moveaxis(full.values[:, :, cells], 2, 0)
        got = sample_masks(full, doas).values
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        blocks = FrameBlocks(kind, masks, truth, grid, sigma)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "coding.bin"
            rows = freq_average(written(path, blocks))
            stored = sample_masks(CodingFile(path), doas).values
        # The write pass averages the float32 values it writes.
        rounded = CodingTensor(full.values.astype(np.float32), grid, kind)
        assert rows.values.tobytes() == freq_average(rounded).values.tobytes()
        assert stored.shape == want.shape
        assert stored.tobytes() == \
            want.astype(np.float32).astype(np.float64).tobytes()

    def test_no_cluster_reads_no_block(self):
        class Untouchable:
            frames, bins, grid = 5, 3, SpatialGrid(8)

            def __iter__(self):
                raise AssertionError("a frame was read for no cluster")

        assert sample_masks(Untouchable(), cluster_doas([])).values.shape == \
            (0, 5, 3)


# The former centre-merge pass and threshold sweep, verbatim but for their
# names. The linkage is looked up on the module so a test can replace it
# for both; the sweep calls today's doa_precision_recall, which
# tests/test_metrics.py checks against its former code.
def _former_cluster_doas(detections, sigma_deg=6.0, span_deg=360.0,
                         min_support_frac=0.05):
    if not detections:
        return DoaEstimates((), span_deg)
    angles = np.array([d.angle_deg for d in detections])
    frames = {d.frame for d in detections}
    groups = decode._average_linkage(angles, span_deg, 2.0 * sigma_deg)

    clusters = [(circular_mean(angles[g], span_deg), angles[g]) for g in groups]
    merged = True
    while merged and len(clusters) > 1:
        merged = False
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                if wrapped_distance(clusters[i][0], clusters[j][0],
                                    span_deg) <= 2.0 * sigma_deg:
                    union = np.concatenate([clusters[i][1], clusters[j][1]])
                    clusters[i] = (circular_mean(union, span_deg), union)
                    del clusters[j]
                    merged = True
                    break
            if merged:
                break

    if min_support_frac:
        min_support = min_support_frac * len(frames)
        clusters = [c for c in clusters if c[1].size >= min_support]
    clusters.sort(key=lambda c: (-c[1].size, c[0]))
    return DoaEstimates(
        tuple(DoaCluster(center, int(members.size))
              for center, members in clusters),
        span_deg)


def _former_calibrate_threshold(validation_scenes, candidates,
                                delta_theta_deg=6.0, sigma_deg=6.0,
                                match_tol_deg=10.0, min_support_frac=0.05):
    scenes = []
    for likelihood, truth in validation_scenes:
        if not isinstance(likelihood, FrameLikelihood):
            likelihood = freq_average(likelihood)
        scenes.append((likelihood, truth))
    rows = []
    best = None
    for eps in sorted(candidates):
        tp = est_total = truth_total = 0
        for fl, truth in scenes:
            detections = peak_search(fl, eps, delta_theta_deg)
            estimates = _former_cluster_doas(detections, sigma_deg,
                                             truth.span_deg, min_support_frac)
            pr = doa_precision_recall(estimates, truth, match_tol_deg)
            tp += pr.matches
            est_total += pr.estimate_count
            truth_total += pr.truth_count
        precision = tp / est_total if est_total else 0.0
        recall = tp / truth_total
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall > 0 else 0.0)
        rows.append(CalibrationRow(eps, precision, recall, f1))
        if best is None or f1 > best.f1:
            best = rows[-1]
    return CalibrationResult(best.eps_theta, best.f1, tuple(rows))


@st.composite
def _dense_detections(draw):
    """Detections on half-degree cells inside an arc a few 2-sigma wide,
    several per cell, with their frame indices."""
    span = draw(st.sampled_from([360.0, 180.0]))
    base = draw(st.integers(0, int(span * 2) - 1))
    cells = draw(st.lists(st.integers(0, 80), min_size=1, max_size=60))
    frames = draw(st.lists(st.integers(0, 9), min_size=len(cells),
                           max_size=len(cells)))
    angles = ((base + np.array(cells)) % int(span * 2)) * 0.5
    return [Detection(t, a) for t, a in zip(frames, angles.tolist())], span


_SIGMAS = st.sampled_from([0.5, 1.0, 3.0, 6.0])
_SUPPORT_FRACS = st.sampled_from([None, 0.05, 0.3])


class TestClusteringMatchesFormerCode:
    @settings(max_examples=200, deadline=None)
    @given(_dense_detections(), _SIGMAS, _SUPPORT_FRACS)
    def test_cluster_doas(self, case, sigma, support):
        detections, span = case
        assert (cluster_doas(detections, sigma, span, support)
                == _former_cluster_doas(detections, sigma, span, support))

    @settings(max_examples=200, deadline=None)
    @given(_dense_detections(), _SIGMAS, _SUPPORT_FRACS, st.data())
    def test_centre_merges_from_any_partition(self, case, sigma, support,
                                              data):
        # Linkage rarely leaves two centres within 2 sigma, so an arbitrary
        # partition stands in for it; the merge pass then does the work.
        detections, span = case
        labels = np.array(data.draw(st.lists(
            st.integers(0, 7), min_size=len(detections),
            max_size=len(detections)), label="labels"))
        groups = [np.flatnonzero(labels == k) for k in dict.fromkeys(labels)]
        with mock.patch.object(decode, "_average_linkage",
                               lambda *args: groups):
            new = cluster_doas(detections, sigma, span, support)
            old = _former_cluster_doas(detections, sigma, span, support)
        assert new == old

    def test_centre_merge_after_linkage(self):
        # Linkage keeps these two runs apart (their mean pairwise distance
        # rounds above 2 sigma = 2 deg) though their centres are 2 deg
        # apart; the merge pass joins them.
        angles = [45.5, 46.5, 47.5, 45.5, 46.0, 47.0, 45.0, 46.5, 44.5, 45.0,
                  48.0, 47.0, 47.0, 47.5, 47.5, 48.0]
        detections = [Detection(t, a) for t, a in enumerate(angles)]
        assert len(_average_linkage(np.array(angles), 180.0, 2.0)) == 2
        estimates = cluster_doas(detections, 1.0, 180.0)
        assert estimates.count == 1
        assert estimates == _former_cluster_doas(detections, 1.0, 180.0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 359), min_size=1, max_size=3,
                             unique=True), min_size=1, max_size=3),
           st.sampled_from([0.0, 0.1, 0.3]), st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from([0.05, 0.1, 0.2, 0.4, 0.7, 0.9]),
                    min_size=1, max_size=4))
    def test_calibrate_threshold(self, scene_doas, noise, seed, candidates):
        rng = np.random.default_rng(seed)
        scenes = []
        for doas in scene_doas:
            rows = np.zeros((8, 360))
            for doa in doas:
                rows = np.maximum(rows, _bump(float(doa), height=0.8))
            rows = np.clip(rows + rng.normal(0, noise, rows.shape), 0, 1)
            scenes.append((_likelihood(rows), DoaSet(np.array(doas, float))))
        assert (calibrate_threshold(scenes, candidates)
                == _former_calibrate_threshold(scenes, candidates))
