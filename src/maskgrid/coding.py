"""Thresholded ratio masks and the five grid encodings of speaker positions.

A uniform angular grid of theta_count cells covers a span of span_deg
degrees. Each encoding gives every speaker a row over the grid, a one-hot
at its nearest cell or a Gaussian bump over angular distance, weighted by
its frame activity (sbc, slc) or its time-frequency mask per bin (mwsbc,
mwslc, mwslc_sum), and folds the speakers by max or by sum (_CODINGS).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CollisionError, ConfigError, ShapeError

# Full-width (t, k) rows per gather/scatter block in _place (a narrower
# row span takes more rows). A block's three temporaries stay in a 2 MiB L2
# up to 1440 cells; 256 rows spilled and ran 2-3x slower.
_ENCODE_BLOCK_ROWS = 32


def wrapped_distance(a, b, span_deg: float = 360.0):
    """Circular angular distance min(|a-b|, span - |a-b|), in degrees.

    Symmetric, bounded by span/2. Accepts scalars or broadcastable arrays.
    """
    d = np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))
    out = np.minimum(d, span_deg - d)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform circular grid with cell centers at g * span / theta_count."""

    theta_count: int
    span_deg: float = 360.0

    def __post_init__(self):
        if self.theta_count < 2:
            raise ConfigError(f"need at least 2 cells, got {self.theta_count}")
        if not 0.0 < self.span_deg <= 360.0:
            raise ConfigError(f"span must be in (0, 360], got {self.span_deg}")

    @property
    def cell_width_deg(self) -> float:
        return self.span_deg / self.theta_count

    def centers(self) -> np.ndarray:
        return np.arange(self.theta_count) * self.span_deg / self.theta_count

    def angle_of(self, g: int) -> float:
        return g * self.span_deg / self.theta_count

    def index_of(self, angle_deg: float) -> int:
        """Nearest cell by wrapped distance; ties go to the lower index."""
        d = wrapped_distance(self.centers(), angle_deg, self.span_deg)
        return int(np.argmin(d))


@dataclass(frozen=True)
class DoaSet:
    """Per-speaker azimuths in degrees, circular on [0, span)."""

    angles_deg: np.ndarray
    span_deg: float = 360.0

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.angles_deg, dtype=np.float64))
        if arr.ndim != 1 or arr.size == 0:
            raise ShapeError("need a 1-D, non-empty set of angles")
        if not np.all((arr >= 0) & (arr < self.span_deg)):  # NaN fails too
            raise ConfigError(f"angles must lie in [0, {self.span_deg}), got {arr}")
        # In [0, span), a wrapped distance of 0 means equal values.
        _, first, counts = np.unique(arr, return_index=True, return_counts=True)
        if counts.max() > 1:
            raise ConfigError(f"duplicate DoA at {arr[first[counts > 1].min()]} deg")
        object.__setattr__(self, "angles_deg", arr)

    @property
    def count(self) -> int:
        return self.angles_deg.size

    def pairs_closer_than(self, gap_deg: float) -> np.ndarray:
        """Index pairs (i < j, row-major) of DoAs under gap_deg apart."""
        a = self.angles_deg
        close = wrapped_distance(a[:, None], a, self.span_deg) < gap_deg
        return np.argwhere(np.triu(close, 1))

    def shares_a_cell(self, grid: SpatialGrid) -> bool:
        """Whether two DoAs snap to one cell of `grid`."""
        return np.unique(snap_to_grid(self, grid)).size < self.count


@dataclass(frozen=True)
class MaskSet:
    """Per-speaker time-frequency masks, shape (speakers, frames, bins)."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 3:
            raise ShapeError(f"masks must be 3-D (I, T, K), got ndim={arr.ndim}")
        object.__setattr__(self, "values", arr)

    @property
    def speakers(self) -> int:
        return self.values.shape[0]

    @property
    def frames(self) -> int:
        return self.values.shape[1]

    @property
    def bins(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class CodingTensor:
    """Grid encoding over (frames, bins, cells) with its grid and kind.

    Spatial-only kinds (sbc, slc) carry a single frequency bin (K = 1).
    All kinds are bounded by [0, 1] except mwslc_sum, which can exceed 1
    where Gaussians of nearby speakers overlap.

    A coding source is anything with `frames`, `bins`, `grid` and `kind`
    whose iteration yields each frame's (bins, cells) values in order: a
    CodingTensor, FrameBlocks, FrameSource or container.CodingFile. A frame
    yielded by a source other than a CodingTensor is valid only until the
    next one is requested, as its array may be reused.
    """

    values: np.ndarray
    grid: SpatialGrid
    kind: str

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 3:
            raise ShapeError(f"coding must be 3-D (T, K, cells), got ndim={arr.ndim}")
        if arr.shape[2] != self.grid.theta_count:
            raise ShapeError(
                f"last axis {arr.shape[2]} does not match grid {self.grid.theta_count}")
        if self.kind not in CODING_KINDS:
            raise ConfigError(f"unknown coding kind {self.kind!r}")
        object.__setattr__(self, "values", arr)

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def bins(self) -> int:
        return self.values.shape[1]

    def __iter__(self):
        return iter(self.values)


class FrameSource:
    """A coding source whose iteration is make(), a fresh iterator over its
    frames in order."""

    def __init__(self, frames: int, bins: int, grid: SpatialGrid, kind: str,
                 make):
        self.frames, self.bins, self.grid, self.kind = frames, bins, grid, kind
        self._make = make

    def __iter__(self):
        return self._make()


def compute_irm(source_specs, eps_m_db: float = -35.0) -> MaskSet:
    """Thresholded ideal ratio masks from per-speaker source spectrograms.

    Each mask is |S_i|^2 over the summed power of all speakers, zeroed
    wherever |S_i| does not exceed the threshold. The threshold is relative
    to that speaker's own maximum STFT magnitude: |S_i| > max|S_i| *
    10^(eps_m_db/20), which keeps the dB semantics scale-invariant.

    Args:
        source_specs: per-speaker reference-channel Spectrogram list.
        eps_m_db: threshold below the per-speaker peak magnitude, in dB.

    Returns:
        MaskSet of shape (I, T, K) with sums over speakers <= 1.
    """
    mags = []
    shape = None
    for spec in source_specs:
        v = spec.values[0]
        if shape is None:
            shape = v.shape
        elif v.shape != shape:
            raise ShapeError(f"spectrogram shapes differ: {v.shape} vs {shape}")
        mags.append(np.abs(v))
    mag = np.stack(mags)
    power = mag ** 2
    denom = power.sum(axis=0)
    thresholds = mag.max(axis=(1, 2), keepdims=True) * 10.0 ** (eps_m_db / 20.0)
    above = mag > thresholds
    masks = np.where(above, power / np.maximum(denom, 1e-300), 0.0)
    return MaskSet(masks)


def frame_activity(masks: MaskSet) -> np.ndarray:
    """Per-speaker, per-frame activity: any nonzero mask bin in the frame."""
    return masks.values.max(axis=2) > 0


def snap_to_grid(truth: DoaSet, grid: SpatialGrid) -> np.ndarray:
    """Nearest-cell index per speaker (ties to the lower index)."""
    return np.array([grid.index_of(a) for a in truth.angles_deg], dtype=np.intp)


def _gaussian_exponents(truth: DoaSet, grid: SpatialGrid,
                        sigma_deg: float) -> np.ndarray:
    """Per-speaker (d / sigma)^2 over cell centers, d the wrapped distance
    to the DoA; (I, cells)."""
    if sigma_deg <= 0:
        raise ConfigError(f"sigma must be positive, got {sigma_deg}")
    d = wrapped_distance(truth.angles_deg[:, None], grid.centers()[None, :],
                         grid.span_deg)
    return (d / sigma_deg) ** 2


def _gaussian_rows(truth: DoaSet, grid: SpatialGrid, sigma_deg: float) -> np.ndarray:
    """Per-speaker Gaussian over cell centers, exp(-d^2 / sigma^2); (I, cells)."""
    return np.exp(-_gaussian_exponents(truth, grid, sigma_deg))


def _one_hot_rows(truth: DoaSet, grid: SpatialGrid, _sigma_deg=None) -> np.ndarray:
    """Per-speaker Kronecker row, 1 at its nearest cell; (I, cells)."""
    cells = np.arange(grid.theta_count)
    return (snap_to_grid(truth, grid)[:, None] == cells).astype(float)


def _warn_shared_cells(truth: DoaSet, grid: SpatialGrid, kind: str) -> None:
    if truth.shares_a_cell(grid):
        warnings.warn(
            f"{kind}: two speakers fall into one {grid.cell_width_deg:.3g} deg "
            "cell; the maximum silently keeps the larger value", stacklevel=4)


def _refuse_shared_cells(truth: DoaSet, grid: SpatialGrid, kind: str) -> None:
    if truth.shares_a_cell(grid):
        raise CollisionError(
            f"speakers at {truth.angles_deg} deg share a cell on a "
            f"{grid.theta_count}-cell grid; refine the grid")


# Per kind: the speakers' rows over the grid, called as (truth, grid,
# sigma_deg) and weighted by each speaker's mask (frame activity for sbc and
# slc); the fold over speakers; and the check run on the DoAs before a fold.
_CODINGS = {
    "sbc": (_one_hot_rows, np.maximum, None),
    "slc": (_gaussian_rows, np.maximum, _warn_shared_cells),
    "mwsbc": (_one_hot_rows, np.add, _refuse_shared_cells),
    "mwslc": (_gaussian_rows, np.maximum, _warn_shared_cells),
    "mwslc_sum": (_gaussian_rows, np.add, None),
}
CODING_KINDS = (*_CODINGS, "estimated")


def _check_speakers(speakers: int, rows: np.ndarray) -> None:
    if speakers != rows.shape[0]:
        raise ShapeError(f"{speakers} masks for {rows.shape[0]} DoAs")


def _rows(kind: str, speakers: int, truth: DoaSet, grid: SpatialGrid,
          sigma_deg):
    """`kind`'s rows, after checking sigma, the speaker count, then `kind`."""
    make_rows, _, check = _CODINGS[kind]
    rows = make_rows(truth, grid, sigma_deg)
    _check_speakers(speakers, rows)
    if check is not None:
        check(truth, grid, kind)
    return rows


def _place(masks: MaskSet, rows: np.ndarray, combine,
           out: np.ndarray | None = None) -> np.ndarray:
    """fold()'s values: (frames, bins, row length)."""
    _check_speakers(masks.speakers, rows)
    shape = (masks.frames, masks.bins, rows.shape[1])
    if out is None:
        out = np.zeros(shape)
    elif out.shape != shape:
        raise ShapeError(f"out has shape {out.shape}, the coding {shape}")
    else:
        out.fill(0.0)
    flat = out.reshape(masks.frames * masks.bins, rows.shape[1])
    for mask, row in zip(masks.values.reshape(masks.speakers, -1), rows):
        # Rows are finite and >= 0, so a zero factor gives a zero product: it
        # leaves the running sum (never -0) unchanged, and the running maximum
        # too for masks >= 0. So only nonzero (t, k) rows are visited, and only
        # the cells from the row's first nonzero to its last (one if one-hot),
        # in blocks of as many values as _ENCODE_BLOCK_ROWS full rows.
        cells = np.flatnonzero(row)
        lo, hi = (cells[0], cells[-1] + 1) if cells.size else (0, 0)
        step = _ENCODE_BLOCK_ROWS * max(row.size // max(hi - lo, 1), 1)
        nonzero = np.flatnonzero(mask)
        for start in range(0, nonzero.size, step):
            block = nonzero[start:start + step]
            flat[block, lo:hi] = combine(flat[block, lo:hi],
                                         mask[block, None] * row[lo:hi])
    return out


def _split_sums(points, bounds, below, above, side: str):
    """With `points` sorted, each bound's (sum of `below` over the points
    before its searchsorted position, sum of `above` over those from it on).

    The max fold of two active speakers i and j gives (bin k, cell c) to
    speaker i iff key[c] = exps_j[c] - exps_i[c] >= log M_j[k] - log M_i[k]:
    FrameBlocks.sum_over_cells sorts the cells' keys and splits them at each
    bin's log ratio, FrameBlocks.mean_over_bins sorts a frame's log ratios
    and splits them at each cell's key.
    """
    order = np.argsort(points, kind="stable")
    split = np.searchsorted(points[order], bounds, side=side)
    before = np.append(0.0, np.cumsum(below[order]))
    after = np.append(np.cumsum(above[order][::-1])[::-1], 0.0)
    return before[split], after[split]


def fold(masks: MaskSet, rows: np.ndarray, grid: SpatialGrid, kind: str,
         out: np.ndarray | None = None) -> CodingTensor:
    """CodingTensor of `kind`: each mask times its row, folded from zeros in
    speaker order by the kind's max or sum, into `out` if given."""
    return CodingTensor(_place(masks, rows, _CODINGS[kind][1], out), grid, kind)


def encode_sbc(truth: DoaSet, activity: np.ndarray, grid: SpatialGrid) -> CodingTensor:
    """Binary spatial-only coding: 1 at each active speaker's nearest cell.

    activity: boolean (speakers, frames) from frame_activity or ground truth.
    """
    rows = _rows("sbc", len(activity), truth, grid, None)
    return fold(MaskSet(activity[:, :, None]), rows, grid, "sbc")


def encode_slc(truth: DoaSet, activity: np.ndarray, grid: SpatialGrid,
               sigma_deg: float = 6.0) -> CodingTensor:
    """Gaussian spatial-only coding: per-frame max of unit bumps at DoAs."""
    rows = _rows("slc", len(activity), truth, grid, sigma_deg)
    return fold(MaskSet(activity[:, :, None]), rows, grid, "slc")


def encode_mwsbc(masks: MaskSet, truth: DoaSet, grid: SpatialGrid) -> CodingTensor:
    """Mask-weighted binary coding: each speaker's mask at its nearest cell.

    Raises:
        CollisionError: two speakers snap to the same cell (grid too coarse).
    """
    rows = _rows("mwsbc", masks.speakers, truth, grid, None)
    return fold(masks, rows, grid, "mwsbc")


def encode_mwslc(masks: MaskSet, truth: DoaSet, grid: SpatialGrid,
                 sigma_deg: float = 6.0) -> CodingTensor:
    """Mask-weighted Gaussian coding: max over speakers of mask * bump."""
    rows = _rows("mwslc", masks.speakers, truth, grid, sigma_deg)
    return fold(masks, rows, grid, "mwslc")


def encode_mwslc_sum(masks: MaskSet, truth: DoaSet, grid: SpatialGrid,
                     sigma_deg: float = 6.0) -> CodingTensor:
    """Sum-form variant of encode_mwslc; values can exceed 1 near close DoAs.

    This is the analytically tractable approximation used by the
    conditioning sweep; the decoder always consumes the max form.
    """
    rows = _rows("mwslc_sum", masks.speakers, truth, grid, sigma_deg)
    return fold(masks, rows, grid, "mwslc_sum")


# Mask-weighted encoders by config name, called as (masks, truth, grid,
# sigma_deg); mwsbc's one-hot rows take no sigma.
ENCODERS = {
    "mwsbc": lambda masks, truth, grid, _: encode_mwsbc(masks, truth, grid),
    "mwslc": encode_mwslc,
    "mwslc_sum": encode_mwslc_sum,
}


class FrameBlocks:
    """ENCODERS[kind](masks, truth, grid, sigma_deg) as a coding source
    (see CodingTensor) that encodes a frame at a time, so the full (frames,
    bins, cells) tensor is never held.

    The kind's rows are built, and its checks and shared-cell warning run,
    once, here; each frame is fold() of that frame of the masks against
    them, bit-identical to its rows of the full encoding.
    """

    def __init__(self, kind: str, masks: MaskSet, truth: DoaSet,
                 grid: SpatialGrid, sigma_deg: float):
        self.rows = _rows(kind, masks.speakers, truth, grid, sigma_deg)
        self.masks, self.truth, self.grid, self.kind = masks, truth, grid, kind
        self.sigma_deg = sigma_deg
        self.frames, self.bins = masks.frames, masks.bins

    def __iter__(self):
        """Each frame folded into one reused (1, bins, cells) buffer. On the
        pipeline benchmark (seed 7, 25 s runs; 257 bins, 720 cells) blocks
        of 1 frame peaked at 50.8 MiB RSS, 2 frames at 53.6-54.1 MiB and 4
        frames at 59-64 MiB while each block was a fresh array."""
        buffer = np.empty((1, self.bins, self.grid.theta_count))
        for t in range(self.frames):
            frame = MaskSet(self.masks.values[:, t:t + 1])
            yield fold(frame, self.rows, self.grid, self.kind,
                       out=buffer).values[0]

    def mean_over_bins(self) -> np.ndarray:
        """(frames, cells): the encoding's mean over bins, as
        decode.freq_average of these frames gives it, from the masks and
        rows without encoding a cell.

        With masks M_i and rows g_i, the sum over bins at frame t is
          - a sum fold: sum_i (sum_k M_i[t, k]) g_i;
          - the max fold: g_i sum_k M_i[t, k] over the bins where only
            speaker i is active; over the bins where i and j are, speaker i
            holds cell c at bin k iff key[c] = exps_j[c] - exps_i[c] >=
            log M_j[t, k] - log M_i[t, k] (_split_sums, the bins' log ratios
            sorted once per frame); and at bins with three or more active
            speakers the maximum cell by cell, as the encoder takes it.
        mwsbc sums each mask over bins in bin order, as the mean over a
        frame's bin axis does, so for finite masks it is bit-identical; the
        Gaussian kinds sum in another order and agree to 1e-12 relative.
        Masks are nonnegative, as compute_irm gives them.
        """
        masks, rows = self.masks.values, self.rows
        speakers, frames, bins = masks.shape
        if _CODINGS[self.kind][1] is np.add:
            # A running sum adds the bins in order, as the mean over a
            # frame's bin axis does; np.sum along a contiguous axis (one
            # frame) adds pairwise.
            sums = np.cumsum(masks, axis=2)[:, :, -1]
            return (sums.T @ rows) / bins
        values = masks.reshape(speakers, -1)
        active = values > 0
        count = active.sum(axis=0)
        single = np.where(count == 1, values, 0.0)
        total = single.reshape(speakers, frames, bins).sum(axis=2).T @ rows
        exps = _gaussian_exponents(self.truth, self.grid, self.sigma_deg)
        for i, j in itertools.combinations(range(speakers), 2):
            pair = ((count == 2) & active[i] & active[j]).reshape(frames, bins)
            key = exps[j] - exps[i]
            for t in np.flatnonzero(pair.any(axis=1)):
                at = np.flatnonzero(pair[t])
                mask_i, mask_j = masks[i, t, at], masks[j, t, at]
                held_by_i, held_by_j = _split_sums(
                    np.log(mask_j) - np.log(mask_i), key, mask_i, mask_j,
                    "right")
                total[t] += rows[i] * held_by_i + rows[j] * held_by_j
        many = np.flatnonzero(count >= 3)
        for start in range(0, many.size, _ENCODE_BLOCK_ROWS):
            at = many[start:start + _ENCODE_BLOCK_ROWS]
            np.add.at(total, at // bins,
                      (values[:, at, None] * rows[:, None, :]).max(axis=0))
        return total / bins

    def sum_over_cells(self) -> np.ndarray:
        """(frames, bins): the encoding summed over cells, from the masks and
        rows without encoding a cell.

        With masks M_i, rows g_i and G_i = sum_cells g_i, a bin's cell sum
        is sum_i M_i G_i for a sum fold. For the max fold it is M_i G_i with
        one active speaker; with two, i and j, speaker i holds exactly the
        cells where M_i g_i >= M_j g_j, that is where (d_j^2 - d_i^2) /
        sigma^2 >= log(M_j / M_i) for distances d to the DoAs: the cells
        sorted once by that key, each bin's sum is one binary search into
        prefix sums of g_i and g_j (_split_sums). With three or more it is
        the cell-by-cell maximum, as the encoder takes it, summed. These
        sums run in another order than a sum over encoded cells and agree
        with it to 1e-12 relative; mwsbc's are bit-identical up to two
        speakers, as are the max fold's at bins with three or more active
        speakers. Masks are nonnegative, as compute_irm gives them.
        """
        rows = self.rows
        values = self.masks.values.reshape(self.masks.speakers, -1)
        sums = np.tensordot(rows.sum(axis=1), values, axes=1)
        if _CODINGS[self.kind][1] is np.maximum:
            exps = _gaussian_exponents(self.truth, self.grid, self.sigma_deg)
            active = values > 0
            count = active.sum(axis=0)
            for i, j in itertools.combinations(range(len(values)), 2):
                at = np.flatnonzero((count == 2) & active[i] & active[j])
                masks_i, masks_j = values[i, at], values[j, at]
                # The key stays in exponent form, because g underflows to 0
                # far from a DoA.
                held_by_j, held_by_i = _split_sums(
                    exps[j] - exps[i], np.log(masks_j) - np.log(masks_i),
                    rows[j], rows[i], "left")
                sums[at] = masks_i * held_by_i + masks_j * held_by_j
            many = np.flatnonzero(count >= 3)
            for start in range(0, many.size, _ENCODE_BLOCK_ROWS):
                at = many[start:start + _ENCODE_BLOCK_ROWS]
                sums[at] = (values[:, at, None] * rows[:, None, :]).max(
                    axis=0).sum(axis=1)
        return sums.reshape(self.frames, self.bins)
