"""Gradient conditioning of grid encodings under the MSE loss.

For a target coding L and estimate L-hat, the per-bin loss is the mean
squared difference over cells; its gradient at the zero estimate has a
spatial L1 norm of (2/theta_count) * sum_cells L. For a nearest-cell
(mwsbc) target this decays as 1/theta_count; for a sum-form Gaussian
(mwslc_sum) target it converges to a resolution-free constant
sqrt(pi) * (2 sigma / span) * sum_i M_i. The sweep measures both against
that closed form across grid resolutions.

The sweep encodes no cells. With speaker masks M_i, Gaussian rows g_i
over the cells and G_i = sum_cells g_i, the cell sum at a bin is
  - mwsbc: sum_i M_i, each mask sitting in a cell of its own;
  - mwslc_sum: sum_i M_i G_i;
  - mwslc (max form): M_i G_i with one active speaker. With two, i and j,
    speaker i holds exactly the cells where M_i g_i >= M_j g_j, that is
    where (d_j^2 - d_i^2) / sigma^2 >= log(M_j / M_i) for distances d to
    the DoAs: the cells sorted once by that key, each bin's sum is one
    binary search into prefix sums of g_i and g_j. Bins with three or
    more active speakers take the maximum cell by cell.
These sums run in another order than a sum over encoded cells, so they
agree with it to 1e-12 relative; theta_sweep says where they are
bit-identical.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .coding import (_ENCODE_BLOCK_ROWS, CodingTensor, DoaSet, MaskSet,
                     SpatialGrid, _gaussian_exponents, snap_to_grid)
from .errors import ConfigError, ShapeError

SWEEP_COLUMNS = ("theta_count", "mean_mwsbc", "mean_mwslc_max",
                 "mean_mwslc_sum", "limit", "rel_gap")


def grad_norm_at_zero(target: CodingTensor) -> np.ndarray:
    """Spatial L1 norm of the loss gradient at a zero estimate, shape (T, K).

    Equals (2/cells) * sum_cells of the target, which for a mask-weighted
    nearest-cell target is (2/cells) * sum of speaker masks at that bin.
    """
    theta = target.grid.theta_count
    return (2.0 / theta) * target.values.sum(axis=2)


def mwslc_norm_limit(masks: MaskSet, sigma_deg: float,
                     span_deg: float = 360.0) -> np.ndarray:
    """Resolution-free limit of the Gaussian-coding gradient norm, (T, K).

    sqrt(pi) * (2 sigma / span) * sum_i M_i per bin; the Riemann sum of the
    sum-form encoding converges to this as the grid is refined.
    """
    if sigma_deg <= 0:
        raise ConfigError(f"sigma must be positive, got {sigma_deg}")
    return math.sqrt(math.pi) * (2.0 * sigma_deg / span_deg) * masks.values.sum(axis=0)


@dataclass(frozen=True)
class SweepRow:
    """One grid resolution of the conditioning sweep.

    Means are over speech-active (frame, bin) cells. A nearest-cell snapping
    collision marks the row skipped with NaN aggregates. norms_* hold the
    per-(t, k) gradient norms behind the means.
    """

    theta_count: int
    mean_mwsbc: float
    mean_mwslc_max: float
    mean_mwslc_sum: float
    limit: float
    rel_gap: float
    collision: bool = False
    norms_mwsbc: np.ndarray | None = None
    norms_mwslc_max: np.ndarray | None = None
    norms_mwslc_sum: np.ndarray | None = None


@dataclass(frozen=True)
class ConditioningReport:
    """Sweep rows and the number of speech-active (frame, bin) cells."""

    rows: tuple
    active_bins: int

    def as_table(self):
        """Rows as plain dicts with the CSV column names."""
        return [{c: getattr(r, c) for c in SWEEP_COLUMNS} for r in self.rows]


def _pair_cell_sums(exps_i, exps_j, rows_i, rows_j, masks_i, masks_j):
    """Per bin, sum_cells max(M_i g_i, M_j g_j) for masks M_i, M_j > 0.

    Speaker i holds the cells where key = exps_j - exps_i >= log(M_j / M_i).
    The key stays in exponent form, because g underflows to 0 far from a
    DoA.
    """
    key = exps_j - exps_i
    order = np.argsort(key, kind="stable")
    # Speaker i holds the sorted cells from `split` on, speaker j the rest.
    split = np.searchsorted(key[order], np.log(masks_j) - np.log(masks_i))
    held_by_i = np.append(np.cumsum(rows_i[order][::-1])[::-1], 0.0)
    held_by_j = np.append(0.0, np.cumsum(rows_j[order]))
    return masks_i * held_by_i[split] + masks_j * held_by_j[split]


def _gaussian_cell_sums(masks: MaskSet, exps: np.ndarray):
    """sum_cells of the max-form and sum-form Gaussian codings, each (T, K).

    exps holds each speaker's (d / sigma)^2 over the cells. Masks are
    nonnegative, as compute_irm gives them.
    """
    rows = np.exp(-exps)
    values = masks.values.reshape(masks.speakers, -1)
    sum_form = np.tensordot(rows.sum(axis=1), values, axes=1)
    # A bin with one active speaker i sums M_i G_i in either form.
    max_form = sum_form.copy()
    active = values > 0
    count = active.sum(axis=0)
    for i, j in itertools.combinations(range(masks.speakers), 2):
        at = np.flatnonzero((count == 2) & active[i] & active[j])
        max_form[at] = _pair_cell_sums(exps[i], exps[j], rows[i], rows[j],
                                       values[i, at], values[j, at])
    # Three or more: the maximum over speakers cell by cell, as the encoder
    # takes it, then the same sum over cells.
    many = np.flatnonzero(count >= 3)
    for start in range(0, many.size, _ENCODE_BLOCK_ROWS):
        at = many[start:start + _ENCODE_BLOCK_ROWS]
        max_form[at] = (values[:, at, None] * rows[:, None, :]).max(
            axis=0).sum(axis=1)
    shape = (masks.frames, masks.bins)
    return max_form.reshape(shape), sum_form.reshape(shape)


def theta_sweep(masks: MaskSet, truth: DoaSet, sigma_deg: float = 6.0,
                span_deg: float = 360.0, theta_counts=(90, 180, 360, 720, 1440),
                keep_norms: bool = False) -> ConditioningReport:
    """Gradient norms at the zero estimate across grid resolutions.

    Computes grad_norm_at_zero of the nearest-cell coding and of both
    Gaussian forms at each resolution from the masks and the per-speaker
    Gaussian rows by the closed forms of the module docstring, without
    encoding a cell, and averages them over speech-active bins (bins where
    the speaker masks sum to anything nonzero). rel_gap is the relative
    distance of the sum-form mean from the closed-form limit.

    Against the norms of the encoded tensors, the mwsbc norms are
    bit-identical for up to two speakers, as are the max-form norms at bins
    with three or more active speakers. Elsewhere the sums run in another
    order, and the norms agree to 1e-12 relative.

    Args:
        masks: nonnegative masks, one per DoA.
        theta_counts: ascending cell counts, each at least 2 per speaker.

    Returns:
        ConditioningReport; rows where two speakers snapped to one cell are
        flagged as collisions and carry NaN aggregates.
    """
    counts = list(theta_counts)
    if counts != sorted(counts):
        raise ConfigError(f"theta counts must ascend, got {counts}")
    if counts and counts[0] < 2 * truth.count:
        raise ConfigError(
            f"coarsest grid {counts[0]} has fewer than 2 cells per speaker")

    mask_sum = masks.values.sum(axis=0)
    active = mask_sum > 0
    limit_per_bin = mwslc_norm_limit(masks, sigma_deg, span_deg)
    n_active = int(np.count_nonzero(active))
    limit_mean = float(limit_per_bin[active].mean()) if n_active else 0.0

    rows = []
    for theta in counts:
        grid = SpatialGrid(theta, span_deg)
        if masks.speakers != truth.count:
            raise ShapeError(f"{masks.speakers} masks for {truth.count} DoAs")
        cells = snap_to_grid(truth, grid)
        if np.unique(cells).size < cells.size:
            rows.append(SweepRow(theta, math.nan, math.nan, math.nan,
                                 limit_mean, math.nan, collision=True))
            continue
        scale = 2.0 / theta
        sbc_norm = scale * mask_sum
        max_cells, sum_cells = _gaussian_cell_sums(
            masks, _gaussian_exponents(truth, grid, sigma_deg))
        max_norm, sum_norm = scale * max_cells, scale * sum_cells
        if n_active:
            mean_sbc = float(sbc_norm[active].mean())
            mean_max = float(max_norm[active].mean())
            mean_sum = float(sum_norm[active].mean())
            rel_gap = (abs(mean_sum - limit_mean) / limit_mean
                       if limit_mean > 0 else 0.0)
        else:
            mean_sbc = mean_max = mean_sum = rel_gap = 0.0
        rows.append(SweepRow(
            theta, mean_sbc, mean_max, mean_sum, limit_mean, rel_gap,
            norms_mwsbc=sbc_norm if keep_norms else None,
            norms_mwslc_max=max_norm if keep_norms else None,
            norms_mwslc_sum=sum_norm if keep_norms else None,
        ))
    return ConditioningReport(tuple(rows), n_active)
