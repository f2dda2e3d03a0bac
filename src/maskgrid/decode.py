"""Joint DoA and mask extraction from an estimated coding tensor.

The decoding chain averages the coding over frequency, finds per-frame
peaks that are prominent within an angular neighborhood, clusters the
detections into utterance-level DoAs, and samples per-speaker masks back
out of the tensor at the clustered angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coding import MaskSet, SpatialGrid, wrapped_distance
from .errors import ConfigError, ShapeError
from .metrics import PrecisionRecall, doa_precision_recall


@dataclass(frozen=True)
class FrameLikelihood:
    """Frequency-averaged coding, shape (frames, cells)."""

    values: np.ndarray
    grid: SpatialGrid

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.grid.theta_count:
            raise ShapeError(f"expected (frames, {self.grid.theta_count}), "
                             f"got {arr.shape}")
        object.__setattr__(self, "values", arr)

    @property
    def frames(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Detection:
    """A per-frame peak: frame index and cell-center angle."""

    frame: int
    angle_deg: float


@dataclass(frozen=True)
class DoaCluster:
    center_deg: float
    support: int


@dataclass(frozen=True)
class DoaEstimates:
    """Utterance-level DoA clusters, sorted by support descending."""

    clusters: tuple
    span_deg: float = 360.0

    @property
    def count(self) -> int:
        return len(self.clusters)

    @property
    def centers_deg(self) -> np.ndarray:
        return np.array([c.center_deg for c in self.clusters])


def freq_average(coding) -> FrameLikelihood:
    """Mean of the coding over all frequency bins, per frame and cell.

    coding: a coding source (see coding.CodingTensor). Each frame's mean is
    taken on its own, so every source of the same values gives the same
    bits; pipeline passes container.written, whose float32 frames, summed
    in float64, give the bits of the written file.
    """
    values = np.empty((coding.frames, coding.grid.theta_count))
    for t, frame in enumerate(coding):
        values[t] = frame.mean(axis=0, dtype=np.float64)
    return FrameLikelihood(values, coding.grid)


def _at_window_max(fl: FrameLikelihood, delta_theta_deg: float) -> np.ndarray:
    """(frames, cells): where a value is the maximum of its wrapped
    neighbourhood of +-delta_theta_deg (closed at the boundary)."""
    if delta_theta_deg <= 0:
        raise ConfigError(f"delta_theta must be positive, got {delta_theta_deg}")
    v = fl.values
    reach = int(math.floor(delta_theta_deg / fl.grid.cell_width_deg + 1e-9))
    reach = min(reach, fl.grid.theta_count // 2)
    window_max = v.copy()
    for off in range(1, reach + 1):
        np.maximum(window_max, np.roll(v, off, axis=1), out=window_max)
        np.maximum(window_max, np.roll(v, -off, axis=1), out=window_max)
    return v >= window_max


def peak_search(fl: FrameLikelihood, eps_theta: float,
                delta_theta_deg: float = 6.0, at_window_max=None) -> list:
    """Frame-wise peaks: cells at or above eps_theta that are maximal within
    a wrapped neighborhood of +-delta_theta_deg (closed at the boundary).

    A plateau of circularly adjacent equal-valued peaks yields only its
    lowest-index cell. at_window_max: _at_window_max(fl, delta_theta_deg),
    which calibrate_threshold takes once per scene for all its thresholds;
    computed here if None.
    """
    if not 0.0 < eps_theta < 1.0:
        raise ConfigError(f"eps_theta must be in (0, 1), got {eps_theta}")
    if at_window_max is None:
        at_window_max = _at_window_max(fl, delta_theta_deg)
    v = fl.values
    grid = fl.grid
    theta = grid.theta_count
    is_peak = (v >= eps_theta) & at_window_max

    # A run of circularly adjacent equal peaks starts where the left
    # neighbour is not an equal peak. A run through cell 0 is reported at
    # cell 0 instead of at its start, the row's last one (a whole-circle
    # run has no start, and clearing cell theta - 1 changes nothing).
    joins_left = is_peak & np.roll(is_peak, 1, axis=1) & (v == np.roll(v, 1, axis=1))
    report = is_peak & ~joins_left
    wraps = joins_left[:, 0]
    last_start = theta - 1 - np.argmax(report[wraps, ::-1], axis=1)
    report[wraps, last_start] = False
    report[wraps, 0] = True
    frames, cells = np.nonzero(report)
    return [Detection(t, grid.angle_of(g))
            for t, g in zip(frames.tolist(), cells.tolist())]


def circular_mean(angles_deg: np.ndarray, span_deg: float = 360.0) -> float:
    """Mean direction of angles on a circle of the given span, in [0, span)."""
    phases = np.asarray(angles_deg, dtype=np.float64) * (2 * np.pi / span_deg)
    mean = math.atan2(np.sin(phases).mean(), np.cos(phases).mean())
    value = (mean * span_deg / (2 * np.pi)) % span_deg
    # The mod rounds up to span_deg itself when mean is a hair below zero.
    return 0.0 if value >= span_deg else value


def _average_linkage(angles: np.ndarray, span: float, threshold: float) -> list:
    """Agglomerative clustering: merge while the smallest average pairwise
    wrapped distance between clusters is at or below the threshold.

    Returns a list of member-index arrays, ordered by their first member,
    each in merge order.

    The circle is cut at every gap between neighbouring angles wider than
    the threshold, and each arc is clustered on its own; with fewer than
    two cuts the whole set is one arc. The result is that of one loop over
    the whole set, groups, group order and member order alike:
    - every pair from two arcs lies farther apart than the threshold, and
      a Lance-Williams value for two clusters from two arcs is an average
      of such distances, so no merge crosses a cut;
    - a merge changes only its own arc's rows;
    - the loop breaks ties by the first pair in row-major order, and a
      cluster's row is its smallest member, so an arc taken in ascending
      index order makes its merges in the same order.
    A gap must exceed the threshold by 1e-9 span to cut, so that rounding
    in the wrapped distance or in an average cannot bring a value across
    the threshold; a gap inside that margin only keeps two arcs as one.
    An arc on one angle is one group in index order, which is what the
    loop makes of it, so duplicate detections on a few cells build no
    matrix and take no loop pass each.
    """
    n = angles.size
    if n == 0:
        return []
    order = np.argsort(angles)
    gaps = np.diff(angles[order], append=angles[order[0]] + span)
    cuts = np.flatnonzero(gaps > threshold + 1e-9 * span)
    # An angle outside [0, span], never a cell centre, has no place on the
    # sorted circle, so such a set stays one arc.
    if cuts.size < 2 or not 0.0 <= angles.min() <= angles.max() <= span:
        arcs = [np.arange(n)]
    else:
        arcs = np.split(np.roll(order, -1 - cuts[-1]),
                        cuts[:-1] + n - cuts[-1])
    groups = []
    for arc in arcs:
        arc = np.sort(arc)
        # The loop merges one angle's points into one group in index order,
        # unless the threshold is negative.
        if threshold >= 0 and np.ptp(angles[arc]) == 0:
            groups.append(arc)
        else:
            groups.extend(arc[g] for g in _nearest_neighbour_merges(
                angles[arc], span, threshold))
    groups.sort(key=lambda g: g[0])
    return groups


def _nearest_neighbour_merges(angles: np.ndarray, span: float,
                              threshold: float) -> list:
    """_average_linkage's loop over one arc's angles.

    Each row caches its minimum and the first column holding it (the
    nearest-neighbour list of Muellner, arXiv:1109.2378), so a merge picks
    the pair a row-major argmin over the live matrix would pick, and only
    rows whose nearest cluster was merged away are rescanned.
    """
    n = angles.size
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


def cluster_doas(detections, sigma_deg: float = 6.0, span_deg: float = 360.0,
                 min_support_frac: float | None = 0.05) -> DoaEstimates:
    """Detections to utterance-level DoAs via average-linkage clustering.

    Merging continues while the average inter-cluster distance is at most
    2 sigma; the linkage clusters each arc between gaps wider than 2 sigma
    on its own, which gives the merges of one pass over all detections
    (see _average_linkage). Afterwards any clusters whose circular-mean
    centers still sit within 2 sigma are merged so the result is
    unambiguous. Clusters
    supported by fewer than min_support_frac of the detected frames are
    dropped (pass None or 0 to keep everything).
    """
    if not detections:
        return DoaEstimates((), span_deg)
    angles = np.array([d.angle_deg for d in detections])
    frames = {d.frame for d in detections}
    groups = _average_linkage(angles, span_deg, 2.0 * sigma_deg)

    clusters = [(circular_mean(angles[g], span_deg), angles[g]) for g in groups]
    # Merge the first row-major pair of centres within 2 sigma until none is
    # left; that order fixes the member order circular_mean sums over.
    while len(clusters) > 1:
        centers = np.array([c[0] for c in clusters])
        close = np.argwhere(np.triu(wrapped_distance(
            centers[:, None], centers[None, :], span_deg) <= 2.0 * sigma_deg, 1))
        if not close.size:
            break
        i, j = close[0]
        union = np.concatenate([clusters[i][1], clusters[j][1]])
        clusters[i] = (circular_mean(union, span_deg), union)
        del clusters[j]

    if min_support_frac:
        min_support = min_support_frac * len(frames)
        clusters = [c for c in clusters if c[1].size >= min_support]
    clusters.sort(key=lambda c: (-c[1].size, c[0]))
    return DoaEstimates(
        tuple(DoaCluster(center, int(members.size))
              for center, members in clusters),
        span_deg)


def sample_masks(coding, doas: DoaEstimates) -> MaskSet:
    """Per-speaker masks sliced from the coding at each cluster's cell.

    coding: a coding source (see coding.CodingTensor), read in one pass;
    each frame's cells are taken before they are widened to float64.
    Nothing is read when there is no cluster.
    """
    cells = [coding.grid.index_of(c.center_deg) for c in doas.clusters]
    values = np.empty((len(cells), coding.frames, coding.bins))
    for t, frame in enumerate(coding if cells else ()):
        values[:, t] = frame[:, cells].T
    return MaskSet(values)


@dataclass(frozen=True)
class CalibrationRow:
    eps_theta: float
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class CalibrationResult:
    best_eps_theta: float
    best_f1: float
    rows: tuple


def calibrate_threshold(validation_scenes, candidates, delta_theta_deg: float = 6.0,
                        sigma_deg: float = 6.0, match_tol_deg: float = 10.0,
                        min_support_frac: float | None = 0.05) -> CalibrationResult:
    """Exhaustive threshold search maximizing micro-averaged F1.

    validation_scenes: any iterable of (FrameLikelihood or CodingTensor,
    DoaSet) pairs, consumed once. Each scene is run through every candidate
    on arrival and not kept: a tensor is reduced to its FrameLikelihood,
    and the peak search's neighbourhood maximum is taken once per scene.
    So a generator keeps one scene alive at a time, and one of likelihoods
    (cli's calibrate takes coding.FrameBlocks.mean_over_bins, which
    encodes no cell) holds no tensor at all.

    Every candidate is run through peak search and clustering on every
    scene; matches within match_tol_deg count as true positives, summed
    over scenes per candidate. Ties prefer the lower threshold.

    Raises:
        ConfigError: no candidates, or no validation scenes.
    """
    if not candidates:
        raise ConfigError("need at least one threshold candidate")
    thresholds = sorted(candidates)
    # Per candidate: true positives, estimates and truths over the scenes.
    counts = np.zeros((len(thresholds), 3), dtype=np.int64)
    scenes = 0
    for likelihood, truth in validation_scenes:
        if not isinstance(likelihood, FrameLikelihood):
            likelihood = freq_average(likelihood)  # drops the tensor
        at_max = _at_window_max(likelihood, delta_theta_deg)
        for n, eps in enumerate(thresholds):
            detections = peak_search(likelihood, eps, delta_theta_deg, at_max)
            estimates = cluster_doas(detections, sigma_deg, truth.span_deg,
                                     min_support_frac)
            pr = doa_precision_recall(estimates, truth, match_tol_deg)
            counts[n] += pr.matches, pr.estimate_count, pr.truth_count
        scenes += 1
    if not scenes:
        raise ConfigError("need at least one validation scene")
    rows = []
    best = None
    for eps, (tp, est_total, truth_total) in zip(thresholds, counts.tolist()):
        total = PrecisionRecall.of(tp, est_total, truth_total)
        rows.append(CalibrationRow(eps, total.precision, total.recall, total.f1))
        if best is None or total.f1 > best.f1:
            best = rows[-1]
    return CalibrationResult(best.eps_theta, best.f1, tuple(rows))
