"""Scoring metric tests with independent brute-force oracles."""

import itertools
import warnings

import numpy as np
import pytest

from maskgrid.coding import DoaSet
from maskgrid.decode import DoaCluster, DoaEstimates
from maskgrid.errors import DegenerateInputError, ShapeError
from maskgrid.metrics import (SI_SDR_CAP_DB, delta_si_sdr, doa_mae_known_count,
                              doa_precision_recall, evaluate_scene,
                              permute_align, si_sdr)
from maskgrid.signal import TimeSignal


def _sig(samples):
    return TimeSignal(np.asarray(samples, dtype=float))


def _estimates(centers, supports=None):
    supports = supports or [10] * len(centers)
    clusters = tuple(DoaCluster(c, s) for c, s in zip(centers, supports))
    return DoaEstimates(clusters)


def _brute_force_align(scores):
    """Independent factorial search over injective pairings.

    scores: (refs, ests). Returns the best mean and assignment tuple, with
    unmatched references scored at the negative cap.
    """
    n_ref, n_est = scores.shape
    best_mean, best = -np.inf, None
    ref_ids = range(n_ref)
    est_ids = range(n_est)
    size = min(n_ref, n_est)
    for ref_subset in itertools.permutations(ref_ids, size):
        for est_subset in itertools.permutations(est_ids, size):
            pairs = dict(zip(ref_subset, est_subset))
            values = [scores[r, pairs[r]] if r in pairs else -SI_SDR_CAP_DB
                      for r in ref_ids]
            mean = float(np.mean(values))
            if mean > best_mean:
                best_mean = mean
                best = tuple(pairs.get(r) for r in ref_ids)
    return best_mean, best


class TestSiSdr:
    def test_scale_invariance(self, rng):
        # Power-of-two scaling commutes exactly with float rounding; other
        # factors perturb the projections by at most an ulp.
        ref = _sig(rng.standard_normal(500))
        est = _sig(rng.standard_normal(500))
        assert si_sdr(_sig(4.0 * est.samples[0]), ref) == si_sdr(est, ref)
        assert si_sdr(_sig(3.7 * est.samples[0]), ref) == pytest.approx(
            si_sdr(est, ref), rel=1e-9)

    def test_scaled_copy_hits_positive_cap(self, rng):
        ref = _sig(rng.standard_normal(300))
        assert si_sdr(_sig(3.7 * ref.samples[0]), ref) == SI_SDR_CAP_DB

    def test_orthogonal_hits_negative_cap(self):
        ref = _sig([1.0, 0.0, 1.0, 0.0])
        est = _sig([0.0, 1.0, 0.0, 1.0])
        assert si_sdr(est, ref) == -SI_SDR_CAP_DB

    def test_known_energy_ratio(self, rng):
        # Construct estimate = ref + orthogonal noise with target/residual
        # energy ratio exactly 10 -> 10 dB.
        n = 1000
        ref = rng.standard_normal(n)
        noise = rng.standard_normal(n)
        noise -= (noise @ ref) / (ref @ ref) * ref
        noise *= np.linalg.norm(ref) / np.linalg.norm(noise) / np.sqrt(10)
        value = si_sdr(_sig(ref + noise), _sig(ref))
        assert value == pytest.approx(10.0, abs=1e-9)

    def test_zero_reference_rejected(self):
        with pytest.raises(DegenerateInputError):
            si_sdr(_sig([1.0, 2.0]), _sig([0.0, 0.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            si_sdr(_sig([1.0, 2.0]), _sig([1.0, 2.0, 3.0]))

    def test_multichannel_rejected(self):
        with pytest.raises(ShapeError):
            si_sdr(TimeSignal(np.zeros((2, 10))), _sig(np.ones(10)))


class TestPermuteAlign:
    def _signals(self, rng, count, n=200):
        return [_sig(rng.standard_normal(n)) for _ in range(count)]

    def _score_matrix(self, estimates, references):
        return np.array([[si_sdr(e, r) for e in estimates] for r in references])

    def test_swapped_references_recovered(self, rng):
        refs = self._signals(rng, 2)
        aligned = permute_align([refs[1], refs[0]], refs)
        assert aligned.assignment == (1, 0)
        assert aligned.pair_si_sdr_db == (SI_SDR_CAP_DB, SI_SDR_CAP_DB)

    def test_singleton_identity(self, rng):
        refs = self._signals(rng, 1)
        aligned = permute_align(refs, refs)
        assert aligned.assignment == (0,)

    def test_matches_brute_force_3x3_and_4x4(self, rng):
        for count in (3, 4):
            for _ in range(5):
                ests = self._signals(rng, count)
                refs = self._signals(rng, count)
                aligned = permute_align(ests, refs)
                scores = self._score_matrix(ests, refs)
                best_mean, best = _brute_force_align(scores)
                assert aligned.assignment == best
                assert aligned.mean_si_sdr_db == pytest.approx(best_mean)

    def test_more_references_than_estimates(self, rng):
        refs = self._signals(rng, 3)
        aligned = permute_align([refs[2]], refs)
        assert aligned.assignment == (None, None, 0)
        assert aligned.pair_si_sdr_db[:2] == (-SI_SDR_CAP_DB, -SI_SDR_CAP_DB)

    def test_more_estimates_than_references(self, rng):
        refs = self._signals(rng, 2)
        ests = [_sig(rng.standard_normal(200)), refs[1], refs[0]]
        aligned = permute_align(ests, refs)
        assert aligned.assignment == (2, 1)

    def test_empty_references_rejected(self, rng):
        with pytest.raises(ValueError):
            permute_align(self._signals(rng, 1), [])

    def test_no_estimates_leaves_every_reference_unmatched(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            aligned = permute_align([], self._signals(rng, 2))
        assert aligned.assignment == (None, None)
        assert aligned.pair_si_sdr_db == (-SI_SDR_CAP_DB, -SI_SDR_CAP_DB)

    def test_ties_keep_the_first_pairing(self, rng):
        # Equal means: the first pairing in itertools.permutations order of
        # the larger side wins, on either side.
        ref = self._signals(rng, 1)
        assert permute_align([ref[0], ref[0]], ref).assignment == (0,)
        assert permute_align(ref, [ref[0], ref[0]]).assignment == (0, None)


class TestDoaMae:
    def test_identity_is_zero(self):
        truth = DoaSet(np.array([50.0, 120.0]))
        mae = doa_mae_known_count(_estimates([50.0, 120.0]), truth)
        assert mae.value_deg == 0.0
        assert not mae.incomplete

    def test_hand_case(self):
        truth = DoaSet(np.array([50.0, 120.0]))
        mae = doa_mae_known_count(_estimates([121.0, 49.0]), truth)
        assert mae.value_deg == pytest.approx(1.0)

    def test_wrap_case(self):
        truth = DoaSet(np.array([359.0]))
        mae = doa_mae_known_count(_estimates([1.0]), truth)
        assert mae.value_deg == pytest.approx(2.0)

    def test_takes_top_supported_estimates(self):
        truth = DoaSet(np.array([50.0, 120.0]))
        # The spurious 200-deg cluster has the weakest support and must be
        # ignored when the true count is 2.
        estimates = _estimates([50.0, 120.0, 200.0], supports=[30, 20, 1])
        mae = doa_mae_known_count(estimates, truth)
        assert mae.value_deg == 0.0

    def test_fewer_estimates_flagged_incomplete(self):
        truth = DoaSet(np.array([50.0, 120.0]))
        mae = doa_mae_known_count(_estimates([50.0]), truth)
        assert mae.incomplete
        assert mae.pairs_used == 1
        assert mae.value_deg == 0.0

    def test_no_estimates_yields_nan(self):
        truth = DoaSet(np.array([50.0]))
        mae = doa_mae_known_count(_estimates([]), truth)
        assert np.isnan(mae.value_deg)

    def test_permutation_invariance(self, rng):
        angles = rng.uniform(0, 360, 3)
        truth_a = DoaSet(angles)
        truth_b = DoaSet(angles[::-1].copy())
        ests = _estimates(list(rng.uniform(0, 360, 3)))
        a = doa_mae_known_count(ests, truth_a).value_deg
        b = doa_mae_known_count(ests, truth_b).value_deg
        assert a == pytest.approx(b)

    def test_plain_angles_accepted(self):
        truth = DoaSet(np.array([50.0]))
        assert doa_mae_known_count([49.0], truth).value_deg == pytest.approx(1.0)


class TestPrecisionRecall:
    def test_perfect(self):
        truth = DoaSet(np.array([50.0, 120.0]))
        pr = doa_precision_recall(_estimates([50.0, 120.0]), truth)
        assert (pr.precision, pr.recall, pr.f1) == (1.0, 1.0, 1.0)

    def test_one_match_of_two(self):
        truth = DoaSet(np.array([50.0, 120.0]))
        pr = doa_precision_recall(_estimates([52.0, 200.0]), truth)
        assert pr.precision == 0.5
        assert pr.recall == 0.5

    def test_tolerance_boundary(self):
        truth = DoaSet(np.array([50.0]))
        assert doa_precision_recall(_estimates([60.0]), truth).recall == 1.0
        assert doa_precision_recall(_estimates([60.1]), truth).recall == 0.0

    def test_each_truth_matched_once(self):
        # Two estimates near one speaker: only one can claim the match.
        truth = DoaSet(np.array([50.0, 120.0]))
        pr = doa_precision_recall(_estimates([49.0, 51.0]), truth)
        assert pr.matches == 1
        assert pr.precision == 0.5

    def test_empty_estimates_flagged(self):
        truth = DoaSet(np.array([50.0]))
        pr = doa_precision_recall(_estimates([]), truth)
        assert pr.precision == 0.0
        assert pr.recall == 0.0
        assert pr.empty_estimates

    def test_spurious_estimate_lowers_precision_not_recall(self):
        truth = DoaSet(np.array([50.0, 120.0]))
        base = doa_precision_recall(_estimates([50.0, 120.0]), truth)
        spur = doa_precision_recall(_estimates([50.0, 120.0, 260.0]), truth)
        assert spur.precision < base.precision
        assert spur.recall == base.recall


class TestDeltaSiSdr:
    def test_mixture_passthrough_is_zero(self, rng):
        refs = [_sig(rng.standard_normal(400)) for _ in range(2)]
        mixture = _sig(refs[0].samples[0] + refs[1].samples[0])
        score = delta_si_sdr([mixture, mixture], mixture, refs)
        assert score.delta_db == pytest.approx(0.0, abs=1e-12)

    def test_perfect_separation_hits_cap(self, rng):
        refs = [_sig(rng.standard_normal(400)) for _ in range(2)]
        mixture = _sig(refs[0].samples[0] + refs[1].samples[0])
        score = delta_si_sdr(refs, mixture, refs)
        for out, inp, delta in zip(score.output_si_sdr_db,
                                   score.input_si_sdr_db,
                                   score.per_speaker_delta_db):
            assert out == SI_SDR_CAP_DB
            assert delta == pytest.approx(SI_SDR_CAP_DB - inp)


class TestEvaluateScene:
    def test_report_row_fields(self, rng):
        refs = [_sig(rng.standard_normal(400)) for _ in range(2)]
        mixture = _sig(refs[0].samples[0] + refs[1].samples[0])
        truth = DoaSet(np.array([50.0, 120.0]))
        report = evaluate_scene("scene0", _estimates([50.5, 119.5]), truth,
                                refs, mixture, refs)
        row = report.as_row()
        assert row["scene_id"] == "scene0"
        assert row["doa_mae_deg"] == pytest.approx(0.5)
        assert row["precision"] == 1.0
        assert row["recall"] == 1.0
        assert row["assignment"] == "0 1"
        assert report.per_speaker_si_sdr_db == (SI_SDR_CAP_DB, SI_SDR_CAP_DB)
