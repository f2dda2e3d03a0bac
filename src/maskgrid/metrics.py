"""Localization and separation scoring.

Wrapped angular MAE for a known speaker count, greedy precision/recall for
an unknown count, scale-invariant SDR with exhaustive permutation
alignment, and the improvement of the separated outputs over the raw
mixture channel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .coding import DoaSet, wrapped_distance
from .errors import DegenerateInputError, ShapeError
from .signal import TimeSignal

SI_SDR_CAP_DB = 100.0


def _mono(signal: TimeSignal, name: str) -> np.ndarray:
    if signal.channels != 1:
        raise ShapeError(f"{name} must be mono, got {signal.channels} channels")
    return signal.samples[0]


def si_sdr(estimate: TimeSignal, reference: TimeSignal) -> float:
    """Scale-invariant SDR of the estimate against the reference, in dB.

    The reference is rescaled by its projection coefficient, so the score
    is unchanged under any positive scaling of the estimate. Capped at
    +-100 dB so exact matches and zero projections stay finite.

    Raises:
        DegenerateInputError: all-zero reference.
        ShapeError: length or channel mismatch.
    """
    est = _mono(estimate, "estimate")
    ref = _mono(reference, "reference")
    if est.size != ref.size:
        raise ShapeError(f"length mismatch: {est.size} vs {ref.size}")
    ref_energy = float(ref @ ref)
    if ref_energy == 0.0:
        raise DegenerateInputError("reference signal is silent")
    alpha = float(est @ ref) / ref_energy
    target = alpha * ref
    target_energy = float(target @ target)
    residual = est - target
    residual_energy = float(residual @ residual)
    if target_energy == 0.0:
        return -SI_SDR_CAP_DB
    if residual_energy == 0.0:
        return SI_SDR_CAP_DB
    value = 10.0 * np.log10(target_energy / residual_energy)
    return float(np.clip(value, -SI_SDR_CAP_DB, SI_SDR_CAP_DB))


@dataclass(frozen=True)
class Alignment:
    """Best injective pairing of estimates to references.

    assignment[r] is the estimate index matched to reference r, or None;
    pair_si_sdr_db[r] carries the cap value for unmatched references.
    """

    assignment: tuple
    pair_si_sdr_db: tuple

    @property
    def mean_si_sdr_db(self) -> float:
        return float(np.mean(self.pair_si_sdr_db))


def _pairings(n_ref: int, n_est: int):
    """Every injective pairing of min(n_ref, n_est) references and estimates,
    as (reference, estimate) tuples: permutations of the larger side in
    itertools order, listed along the smaller side. Nothing if a side is
    empty.
    """
    if min(n_ref, n_est) == 0:
        return
    if n_est >= n_ref:
        for perm in itertools.permutations(range(n_est), n_ref):
            yield tuple(enumerate(perm))
    else:
        for perm in itertools.permutations(range(n_ref), n_est):
            yield tuple(zip(perm, range(n_est)))


def permute_align(estimates, references) -> Alignment:
    """Exhaustive assignment of estimates to references maximizing mean SI-SDR.

    Counts may differ; min(count) pairs are formed and leftover references
    score at the -100 dB cap. Intended for small speaker counts (the search
    is factorial).
    """
    if not references:
        raise ValueError("references must be non-empty")
    n_est, n_ref = len(estimates), len(references)
    scores = np.full((n_ref, n_est), -SI_SDR_CAP_DB)
    for r, e in itertools.product(range(n_ref), range(n_est)):
        scores[r, e] = si_sdr(estimates[e], references[r])

    best_pairs, best_mean = (), -np.inf
    for pairs in _pairings(n_ref, n_est):
        mean = float(np.mean([scores[r, e] for r, e in pairs]))
        if mean > best_mean:
            best_mean, best_pairs = mean, pairs
    matched = dict(best_pairs)
    assignment = tuple(matched.get(r) for r in range(n_ref))
    pair_scores = tuple(
        float(scores[r, a]) if a is not None else -SI_SDR_CAP_DB
        for r, a in enumerate(assignment))
    return Alignment(assignment, pair_scores)


def _estimate_angles(estimates) -> np.ndarray:
    """Accept DoaEstimates-like objects (ordered by support) or plain angles."""
    centers = getattr(estimates, "centers_deg", None)
    if centers is not None:
        return np.asarray(centers, dtype=np.float64)
    return np.atleast_1d(np.asarray(estimates, dtype=np.float64))


@dataclass(frozen=True)
class DoaMae:
    value_deg: float
    pairs_used: int
    incomplete: bool


def doa_mae_known_count(estimates, truth: DoaSet) -> DoaMae:
    """Wrapped mean absolute DoA error assuming the speaker count is known.

    Takes the |truth| best-supported estimates and minimizes the mean
    wrapped distance over all injective assignments. With fewer estimates
    than speakers the mean runs over the available pairs and the result is
    flagged incomplete.
    """
    angles = _estimate_angles(estimates)[: truth.count]
    if angles.size == 0:
        return DoaMae(float("nan"), 0, True)
    ref = truth.angles_deg
    n_pairs = min(angles.size, ref.size)
    best = np.inf
    for pairs in _pairings(ref.size, angles.size):
        err = np.mean([wrapped_distance(angles[e], ref[r], truth.span_deg)
                       for r, e in pairs])
        best = min(best, float(err))
    return DoaMae(best, n_pairs, angles.size < ref.size)


@dataclass(frozen=True)
class PrecisionRecall:
    precision: float
    recall: float
    f1: float
    matches: int
    estimate_count: int
    truth_count: int
    empty_estimates: bool = False


def doa_precision_recall(estimates, truth: DoaSet,
                         tolerance_deg: float = 10.0) -> PrecisionRecall:
    """Greedy DoA matching for an unknown speaker count.

    Pairs are claimed in ascending wrapped distance, each side used once,
    and count as matches when within tolerance_deg. Empty estimates against
    non-empty truth give precision 0 with a flag; two empty sets are a
    perfect (vacuous) score.
    """
    angles = _estimate_angles(estimates)
    ref = truth.angles_deg
    n_est, n_ref = angles.size, ref.size
    if n_est == 0 and n_ref == 0:
        return PrecisionRecall(1.0, 1.0, 1.0, 0, 0, 0)
    pairs = sorted(
        ((wrapped_distance(angles[e], ref[r], truth.span_deg), e, r)
         for e in range(n_est) for r in range(n_ref)),
        key=lambda p: p[0])
    used_e, used_r = set(), set()
    matches = 0
    for dist, e, r in pairs:
        if dist > tolerance_deg:
            break
        if e in used_e or r in used_r:
            continue
        used_e.add(e)
        used_r.add(r)
        matches += 1
    precision = matches / n_est if n_est else 0.0
    recall = matches / n_ref if n_ref else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    return PrecisionRecall(precision, recall, f1, matches, n_est, n_ref,
                           empty_estimates=(n_est == 0))


@dataclass(frozen=True)
class SeparationScore:
    """SI-SDR improvement of separated outputs over the mixture channel."""

    delta_db: float
    per_speaker_delta_db: tuple
    output_si_sdr_db: tuple
    input_si_sdr_db: tuple
    assignment: tuple


def delta_si_sdr(separated, mixture_ref: TimeSignal, references) -> SeparationScore:
    """Mean per-speaker improvement: aligned output SI-SDR minus the SI-SDR
    of the unprocessed mixture channel against the same reference."""
    aligned = permute_align(separated, references)
    input_scores = tuple(si_sdr(mixture_ref, ref) for ref in references)
    deltas = tuple(out - inp for out, inp
                   in zip(aligned.pair_si_sdr_db, input_scores))
    return SeparationScore(float(np.mean(deltas)), deltas,
                           aligned.pair_si_sdr_db, input_scores,
                           aligned.assignment)


@dataclass(frozen=True)
class EvalReport:
    """One scene's localization and separation scores."""

    scene_id: str
    doa_mae_deg: float
    mae_incomplete: bool
    precision: float
    recall: float
    f1: float
    per_speaker_si_sdr_db: tuple
    delta_si_sdr_db: float
    assignment: tuple

    COLUMNS = ("scene_id", "doa_mae_deg", "precision", "recall", "f1",
               "delta_si_sdr_db", "mean_si_sdr_db", "assignment")

    def as_row(self) -> dict:
        return {
            "scene_id": self.scene_id,
            "doa_mae_deg": self.doa_mae_deg,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "delta_si_sdr_db": self.delta_si_sdr_db,
            "mean_si_sdr_db": float(np.mean(self.per_speaker_si_sdr_db)),
            "assignment": " ".join("-" if a is None else str(a)
                                   for a in self.assignment),
        }


def evaluate_scene(scene_id: str, estimates, truth: DoaSet, separated,
                   mixture_ref: TimeSignal, references,
                   tolerance_deg: float = 10.0) -> EvalReport:
    """Bundle the localization and separation metrics for one scene."""
    mae = doa_mae_known_count(estimates, truth)
    pr = doa_precision_recall(estimates, truth, tolerance_deg)
    sep = delta_si_sdr(separated, mixture_ref, references)
    return EvalReport(scene_id, mae.value_deg, mae.incomplete, pr.precision,
                      pr.recall, pr.f1, sep.output_si_sdr_db, sep.delta_db,
                      sep.assignment)
