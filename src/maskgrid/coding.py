"""Thresholded ratio masks and the four grid encodings of speaker positions.

A uniform angular grid of theta_count cells covers a span of span_deg
degrees. Spatial-only encodings (sbc, slc) mark per-frame speaker activity
on the grid; the mask-weighted variants (mwsbc, mwslc) place each
speaker's time-frequency mask into the grid per bin, either at the nearest
cell (Kronecker) or as a Gaussian bump over angular distance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CollisionError, ConfigError, ShapeError

CODING_KINDS = ("sbc", "slc", "mwsbc", "mwslc", "mwslc_sum", "estimated")
# (t, k) rows per gather/scatter block in _place. A block's three
# temporaries stay in a 2 MiB L2 up to 1440 cells; 256 rows spilled and ran
# 2-3x slower, and fewer rows only add per-block call overhead.
_ENCODE_BLOCK_ROWS = 32
# Frames per block in encode_reduced. On the conditioning benchmark (62
# frames, 257 bins, up to 1440 cells; median of 3 runs) 4 frames gave a
# 60 MiB peak RSS at 0.50 s per sweep, against 241 MiB and 0.75 s for the
# full tensors. 8 frames ran as fast at 77 MiB; 16 and 32 frames ran
# 0.66-0.70 s at 112-158 MiB; 1-2 frames saved 9-12 MiB more but ran
# 0.52-0.59 s, paying the per-block call overhead more often.
_ENCODE_BLOCK_FRAMES = 4


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
        for i in range(arr.size):
            for j in range(i + 1, arr.size):
                if wrapped_distance(arr[i], arr[j], self.span_deg) == 0.0:
                    raise ConfigError(f"duplicate DoA at {arr[i]} deg")
        object.__setattr__(self, "angles_deg", arr)

    @property
    def count(self) -> int:
        return self.angles_deg.size


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


def _gaussian_rows(truth: DoaSet, grid: SpatialGrid, sigma_deg: float) -> np.ndarray:
    """Per-speaker Gaussian over cell centers, exp(-d^2 / sigma^2); (I, cells)."""
    if sigma_deg <= 0:
        raise ConfigError(f"sigma must be positive, got {sigma_deg}")
    d = wrapped_distance(truth.angles_deg[:, None], grid.centers()[None, :],
                         grid.span_deg)
    return np.exp(-(d / sigma_deg) ** 2)


def _warn_shared_cells(truth: DoaSet, grid: SpatialGrid, kind: str) -> None:
    cells = snap_to_grid(truth, grid)
    if np.unique(cells).size < cells.size:
        warnings.warn(
            f"{kind}: two speakers fall into one {grid.cell_width_deg:.3g} deg "
            "cell; the maximum silently keeps the larger value", stacklevel=3)


def encode_sbc(truth: DoaSet, activity: np.ndarray, grid: SpatialGrid) -> CodingTensor:
    """Binary spatial-only coding: 1 at each active speaker's nearest cell.

    activity: boolean (speakers, frames) from frame_activity or ground truth.
    """
    one_hot = np.eye(grid.theta_count)[snap_to_grid(truth, grid)]
    return _place(MaskSet(activity[:, :, None]), one_hot, grid, np.maximum, "sbc")


def encode_slc(truth: DoaSet, activity: np.ndarray, grid: SpatialGrid,
               sigma_deg: float = 6.0) -> CodingTensor:
    """Gaussian spatial-only coding: per-frame max of unit bumps at DoAs."""
    gauss = _gaussian_rows(truth, grid, sigma_deg)
    _warn_shared_cells(truth, grid, "slc")
    return _place(MaskSet(activity[:, :, None]), gauss, grid, np.maximum, "slc")


def encode_mwsbc(masks: MaskSet, truth: DoaSet, grid: SpatialGrid) -> CodingTensor:
    """Mask-weighted binary coding: each speaker's mask at its nearest cell.

    Raises:
        CollisionError: two speakers snap to the same cell (grid too coarse).
    """
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


def _place(masks: MaskSet, rows: np.ndarray, grid: SpatialGrid, combine,
           kind: str) -> CodingTensor:
    """Fold each speaker's mask * its (cells,) row into a zero tensor with
    `combine`."""
    if masks.speakers != rows.shape[0]:
        raise ShapeError(f"{masks.speakers} masks for {rows.shape[0]} DoAs")
    values = np.zeros((masks.frames, masks.bins, grid.theta_count))
    flat = values.reshape(-1, grid.theta_count)
    for mask, row in zip(masks.values.reshape(masks.speakers, -1), rows):
        # Rows are finite and >= 0, so a zero mask gives a zero product. It
        # leaves the running sum (never -0) unchanged, and the running
        # maximum too for masks without -0.0: only the nonzero (t, k) rows
        # are visited.
        nonzero = np.flatnonzero(mask)
        for start in range(0, nonzero.size, _ENCODE_BLOCK_ROWS):
            block = nonzero[start:start + _ENCODE_BLOCK_ROWS]
            flat[block] = combine(flat[block], mask[block, None] * row)
    return CodingTensor(values, grid, kind)


def encode_mwslc(masks: MaskSet, truth: DoaSet, grid: SpatialGrid,
                 sigma_deg: float = 6.0) -> CodingTensor:
    """Mask-weighted Gaussian coding: max over speakers of mask * bump."""
    coding = _place(masks, _gaussian_rows(truth, grid, sigma_deg), grid,
                    np.maximum, "mwslc")
    _warn_shared_cells(truth, grid, "mwslc")
    return coding


def encode_mwslc_sum(masks: MaskSet, truth: DoaSet, grid: SpatialGrid,
                     sigma_deg: float = 6.0) -> CodingTensor:
    """Sum-form variant of encode_mwslc; values can exceed 1 near close DoAs.

    This is the analytically tractable approximation used by the
    conditioning sweep; the decoder always consumes the max form.
    """
    return _place(masks, _gaussian_rows(truth, grid, sigma_deg), grid, np.add,
                  "mwslc_sum")


# Mask-weighted encoders by config name, called as (masks, truth, grid, sigma_deg).
ENCODERS = {
    "mwsbc": lambda masks, truth, grid, _: encode_mwsbc(masks, truth, grid),
    "mwslc": encode_mwslc,
    "mwslc_sum": encode_mwslc_sum,
}


def encode_reduced(kind: str, masks: MaskSet, truth: DoaSet,
                   grid: SpatialGrid, sigma_deg: float, reduce) -> np.ndarray:
    """reduce(ENCODERS[kind](masks, ...)), computed a block of frames at a
    time, so the full (frames, bins, cells) tensor is never held.

    reduce maps a CodingTensor of n frames to an array of n rows, each
    depending on its own frame only (a sum or mean over bins or cells).
    Each block is ENCODERS[kind] on frames t0 .. t0 + n of the masks, which
    are bit-identical to those rows of the full encoding, so the result is
    bit-identical to reducing the full tensor. The encoder's checks (speaker
    count, nearest-cell collision, sigma) and its shared-cell warning run
    once, on a 0-frame encode before the first block.
    """
    encode = ENCODERS[kind]
    empty = reduce(encode(MaskSet(masks.values[:, :0]), truth, grid, sigma_deg))
    out = np.empty((masks.frames,) + empty.shape[1:])
    for t0 in range(0, masks.frames, _ENCODE_BLOCK_FRAMES):
        block = MaskSet(masks.values[:, t0:t0 + _ENCODE_BLOCK_FRAMES])
        with warnings.catch_warnings():
            # The only UserWarning an encoder gives is the shared-cell one,
            # already given by the 0-frame encode.
            warnings.simplefilter("ignore", UserWarning)
            out[t0:t0 + block.frames] = reduce(encode(block, truth, grid,
                                                      sigma_deg))
    return out
