"""Scoring metric tests with independent brute-force oracles."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskgrid.coding import DoaSet, wrapped_distance
from maskgrid.decode import DoaCluster, DoaEstimates
from maskgrid.errors import DegenerateInputError, ShapeError
from maskgrid.metrics import (SI_SDR_CAP_DB, Alignment, DoaMae,
                              PrecisionRecall, delta_si_sdr,
                              doa_mae_known_count, doa_precision_recall,
                              evaluate_scene, permute_align, si_sdr)
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

    def test_closest_pair_does_not_block_two_matches(self):
        # 8 is closest to 15, but taking that pair leaves 22 with no truth
        # within 10 deg; 8-0 and 22-15 match both. Greedy matching by
        # distance counted 1 (F1 0.5).
        pr = doa_precision_recall([8.0, 22.0], DoaSet(np.array([0.0, 15.0])))
        assert pr == PrecisionRecall.of(2, 2, 2)
        assert pr.f1 == 1.0


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


# The former matchers, verbatim but for their names: one pairing generator
# with a branch per longer side, a search loop each in permute_align and
# doa_mae_known_count, and a sorted generator of (distance, e, r) triples.
def _former_estimate_angles(estimates) -> np.ndarray:
    centers = getattr(estimates, "centers_deg", None)
    if centers is not None:
        return np.asarray(centers, dtype=np.float64)
    return np.atleast_1d(np.asarray(estimates, dtype=np.float64))


def _former_pairings(n_ref: int, n_est: int):
    if min(n_ref, n_est) == 0:
        return
    if n_est >= n_ref:
        for perm in itertools.permutations(range(n_est), n_ref):
            yield tuple(enumerate(perm))
    else:
        for perm in itertools.permutations(range(n_ref), n_est):
            yield tuple(zip(perm, range(n_est)))


def _former_permute_align(estimates, references) -> Alignment:
    n_est, n_ref = len(estimates), len(references)
    scores = np.full((n_ref, n_est), -SI_SDR_CAP_DB)
    for r, e in itertools.product(range(n_ref), range(n_est)):
        scores[r, e] = si_sdr(estimates[e], references[r])

    best_pairs, best_mean = (), -np.inf
    for pairs in _former_pairings(n_ref, n_est):
        mean = float(np.mean([scores[r, e] for r, e in pairs]))
        if mean > best_mean:
            best_mean, best_pairs = mean, pairs
    matched = dict(best_pairs)
    assignment = tuple(matched.get(r) for r in range(n_ref))
    pair_scores = tuple(
        float(scores[r, a]) if a is not None else -SI_SDR_CAP_DB
        for r, a in enumerate(assignment))
    return Alignment(assignment, pair_scores)


def _former_doa_mae_known_count(estimates, truth: DoaSet) -> DoaMae:
    angles = _former_estimate_angles(estimates)[: truth.count]
    if angles.size == 0:
        return DoaMae(float("nan"), 0, True)
    ref = truth.angles_deg
    n_pairs = min(angles.size, ref.size)
    best = np.inf
    for pairs in _former_pairings(ref.size, angles.size):
        err = np.mean([wrapped_distance(angles[e], ref[r], truth.span_deg)
                       for r, e in pairs])
        best = min(best, float(err))
    return DoaMae(best, n_pairs, angles.size < ref.size)


def _brute_force_matches(angles, truth: DoaSet, tolerance_deg) -> int:
    """Largest k such that some k estimates and k truths pair up one to one
    within tolerance, by trying every pairing."""
    near = [[wrapped_distance(a, r, truth.span_deg) <= tolerance_deg
             for r in truth.angles_deg] for a in angles]
    for k in range(min(len(angles), truth.count), 0, -1):
        for ests in itertools.permutations(range(len(angles)), k):
            for refs in itertools.combinations(range(truth.count), k):
                if all(near[e][r] for e, r in zip(ests, refs)):
                    return k
    return 0


def _former_doa_precision_recall(estimates, truth: DoaSet,
                                 tolerance_deg: float = 10.0) -> PrecisionRecall:
    angles = _former_estimate_angles(estimates)
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


# Four fixed signals; drawing with repeats gives equal SI-SDR scores, so
# ties between pairings are common.
_SIGNALS = [_sig(np.random.default_rng(seed).standard_normal(64))
            for seed in range(4)]


@st.composite
def _doa_cases(draw):
    """(estimate angles, truth, tolerance) on a half-degree lattice, where
    equal distances and distances exactly at the tolerance are common; some
    draws use a span below 360."""
    span = draw(st.sampled_from([360.0, 180.0, 90.0]))
    cells = int(span * 2)
    truth_cells = draw(st.lists(st.integers(0, cells - 1), min_size=1,
                                max_size=4, unique=True))
    est_cells = draw(st.lists(st.integers(0, cells - 1), max_size=6))
    tolerance = draw(st.sampled_from([0.0, 0.5, 2.0, 10.0, 45.0]))
    truth = DoaSet(np.array(truth_cells) * 0.5, span)
    return np.array(est_cells, dtype=float) * 0.5, truth, tolerance


class TestMatchersMatchFormerCode:
    """One pairing search and one distance matrix give the former bytes."""

    @settings(max_examples=300, deadline=None)
    @given(_doa_cases())
    def test_mae(self, case):
        angles, truth, _ = case
        new = doa_mae_known_count(angles, truth)
        old = _former_doa_mae_known_count(angles, truth)
        assert np.array_equal(new.value_deg, old.value_deg, equal_nan=True)
        assert (new.pairs_used, new.incomplete) == (old.pairs_used,
                                                    old.incomplete)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=4),
           st.lists(st.integers(0, 3), min_size=1, max_size=4))
    def test_permute_align(self, est_ids, ref_ids):
        estimates = [_SIGNALS[i] for i in est_ids]
        references = [_SIGNALS[i] for i in ref_ids]
        new = permute_align(estimates, references)
        old = _former_permute_align(estimates, references)
        assert new.assignment == old.assignment
        assert new.pair_si_sdr_db == old.pair_si_sdr_db

    def test_mae_takes_the_least_mean_over_pairings(self):
        # 10 and 20 against 12 and 19: pairing 10-12, 20-19 gives 1.5 deg,
        # the crossed pairing 8.5 deg.
        mae = doa_mae_known_count([10.0, 20.0], DoaSet(np.array([12.0, 19.0])))
        assert mae == DoaMae(1.5, 2, False)


class TestMaximumMatching:
    """doa_precision_recall counts a maximum matching, by brute force."""

    @settings(max_examples=300, deadline=None)
    @given(_doa_cases())
    def test_matches_are_the_maximum_matching(self, case):
        angles, truth, tolerance = case
        new = doa_precision_recall(angles, truth, tolerance)
        old = _former_doa_precision_recall(angles, truth, tolerance)
        assert new.matches == _brute_force_matches(angles, truth, tolerance)
        assert new == PrecisionRecall.of(new.matches, angles.size,
                                          truth.count)
        # The former greedy matching never found more, and where it found
        # as many every field is unchanged.
        assert new.matches >= old.matches
        if new.matches == old.matches:
            assert new == old


class TestPrecisionRecallOf:
    def test_formulas(self):
        pr = PrecisionRecall.of(2, 4, 3)
        assert (pr.precision, pr.recall) == (0.5, 2 / 3)
        assert pr.f1 == 2 * 0.5 * (2 / 3) / (0.5 + 2 / 3)
        assert not pr.empty_estimates

    def test_no_estimates(self):
        assert PrecisionRecall.of(0, 0, 2) == PrecisionRecall(
            0.0, 0.0, 0.0, 0, 0, 2, empty_estimates=True)
