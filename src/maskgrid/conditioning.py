"""Gradient conditioning of grid encodings under the MSE loss.

For a target coding L and estimate L-hat, the per-bin loss is the mean
squared difference over cells; its gradient at the zero estimate has a
spatial L1 norm of (2/theta_count) * sum_cells L. For a nearest-cell
(mwsbc) target this decays as 1/theta_count; for a sum-form Gaussian
(mwslc_sum) target it converges to a resolution-free constant
sqrt(pi) * (2 sigma / span) * sum_i M_i. The sweep measures both against
that closed form across grid resolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coding import (CodingTensor, DoaSet, FrameBlocks, MaskSet, SpatialGrid,
                     snap_to_grid)
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

    Raises:
        ConfigError: sigma is not positive, or 2 sigma / span is not finite
            (a span below about 1e-307 deg overflows it).
    """
    if sigma_deg <= 0:
        raise ConfigError(f"sigma must be positive, got {sigma_deg}")
    ratio = 2.0 * sigma_deg / span_deg
    if not math.isfinite(ratio):
        raise ConfigError(f"grid.span_deg: 2 * sigma_deg / span_deg = 2 * "
                          f"{sigma_deg!r} / {span_deg!r} is not finite")
    return math.sqrt(math.pi) * ratio * masks.values.sum(axis=0)


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


def theta_sweep(masks: MaskSet, truth: DoaSet, sigma_deg: float = 6.0,
                span_deg: float = 360.0, theta_counts=(90, 180, 360, 720, 1440),
                keep_norms: bool = False) -> ConditioningReport:
    """Gradient norms at the zero estimate across grid resolutions.

    Computes grad_norm_at_zero of the nearest-cell coding and of both
    Gaussian forms at each resolution from the masks (mwsbc) and
    coding.FrameBlocks.sum_over_cells (mwslc, mwslc_sum), without encoding
    a cell, and averages them over speech-active bins (bins where the
    speaker masks sum to anything nonzero). rel_gap is the relative
    distance of the sum-form mean from the closed-form limit.

    The norms agree with those of the encoded tensors as sum_over_cells
    states, the mwsbc norms included.

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
        max_norm, sum_norm = (
            scale * FrameBlocks(kind, masks, truth, grid,
                                sigma_deg).sum_over_cells()
            for kind in ("mwslc", "mwslc_sum"))
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
