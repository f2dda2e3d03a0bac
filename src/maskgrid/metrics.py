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
from .errors import ConfigError, DegenerateInputError, ShapeError
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


def _best_pairing(scores: np.ndarray):
    """Injective pairing of the rows (references) and columns (estimates) of
    scores with the highest mean, as ((r, e), ...) and that mean: the longer
    side's permutations in itertools order, the first of equal means, and
    ((), -inf) if a side is empty."""
    flip = scores.shape[0] > scores.shape[1]
    short = scores.T if flip else scores
    if short.shape[0] == 0:
        return (), -np.inf
    along = range(short.shape[0])
    best_pairs, best_mean = (), -np.inf
    for perm in itertools.permutations(range(short.shape[1]), short.shape[0]):
        mean = float(np.mean(short[along, perm]))
        if mean > best_mean:
            pairs = zip(perm, along) if flip else zip(along, perm)
            best_mean, best_pairs = mean, tuple(pairs)
    return best_pairs, best_mean


def permute_align(estimates, references) -> Alignment:
    """Exhaustive assignment of estimates to references maximizing mean SI-SDR.

    Counts may differ; min(count) pairs are formed and leftover references
    score at the -100 dB cap. Intended for small speaker counts (the search
    is factorial).
    """
    if not references:
        raise ConfigError("references must be non-empty")
    n_est, n_ref = len(estimates), len(references)
    scores = np.full((n_ref, n_est), -SI_SDR_CAP_DB)
    for r, e in itertools.product(range(n_ref), range(n_est)):
        scores[r, e] = si_sdr(estimates[e], references[r])

    matched = dict(_best_pairing(scores)[0])
    assignment = tuple(matched.get(r) for r in range(n_ref))
    pair_scores = tuple(
        float(scores[r, a]) if a is not None else -SI_SDR_CAP_DB
        for r, a in enumerate(assignment))
    return Alignment(assignment, pair_scores)


def _distances(estimates, truth: DoaSet) -> np.ndarray:
    """(n_ref, n_est) wrapped distances from each truth to each estimate, of
    DoaEstimates-like objects (ordered by support) or plain angles."""
    angles = np.atleast_1d(np.asarray(
        getattr(estimates, "centers_deg", estimates), dtype=np.float64))
    return wrapped_distance(angles[None, :], truth.angles_deg[:, None],
                            truth.span_deg)


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
    dist = _distances(estimates, truth)[:, : truth.count]
    used = dist.shape[1]
    if used == 0:
        return DoaMae(float("nan"), 0, True)
    # Negation is exact, so the best mean of -d is minus the least mean of d.
    return DoaMae(-_best_pairing(-dist)[1], used, used < truth.count)


@dataclass(frozen=True)
class PrecisionRecall:
    precision: float
    recall: float
    f1: float
    matches: int
    estimate_count: int
    truth_count: int
    empty_estimates: bool = False

    @classmethod
    def of(cls, matches: int, n_est: int, n_ref: int) -> "PrecisionRecall":
        """Scores of matches among n_est estimates and n_ref >= 1 truths;
        no estimates give precision 0 with a flag."""
        precision = matches / n_est if n_est else 0.0
        recall = matches / n_ref
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall > 0 else 0.0)
        return cls(precision, recall, f1, matches, n_est, n_ref,
                   empty_estimates=(n_est == 0))


def doa_precision_recall(estimates, truth: DoaSet,
                         tolerance_deg: float = 10.0) -> PrecisionRecall:
    """Greedy DoA matching for an unknown speaker count.

    Pairs are claimed in ascending wrapped distance, each side used once,
    and count as matches when within tolerance_deg; equal distances are
    claimed estimate by estimate, then truth by truth. Empty estimates give
    precision 0 with a flag.
    """
    dist = _distances(estimates, truth).T  # (n_est, n_ref)
    used_e, used_r = set(), set()
    for e, r in zip(*np.unravel_index(np.argsort(dist, axis=None, kind="stable"),
                                      dist.shape)):
        if dist[e, r] > tolerance_deg:
            break
        if e not in used_e and r not in used_r:
            used_e.add(e)
            used_r.add(r)
    return PrecisionRecall.of(len(used_e), dist.shape[0], truth.count)


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
