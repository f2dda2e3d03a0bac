"""Covariance, Cholesky solve, and MVDR filter tests."""

import numpy as np
import pytest

from maskgrid.beamform import (CovarianceSet, interference_covariance, mvdr,
                               mvdr_weights, separate, solve_hermitian)
from maskgrid.coding import MaskSet
from maskgrid.errors import DegenerateInputError, NumericError, ShapeError
from maskgrid.scene import ArrayGeometry
from maskgrid.stft import Spectrogram


def _random_hpd(rng, c=4, loading=1e-3):
    a = rng.standard_normal((c, c)) + 1j * rng.standard_normal((c, c))
    r = a @ a.conj().T
    return r + loading * np.trace(r).real / c * np.eye(c)


def _random_steering(rng, c=4):
    d = np.exp(1j * rng.uniform(0, 2 * np.pi, c))
    d[0] = 1.0
    return d


class TestSolveHermitian:
    def test_matches_numpy_solve(self, rng):
        for _ in range(20):
            r = _random_hpd(rng)
            b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            x = solve_hermitian(r, b)
            np.testing.assert_allclose(x, np.linalg.solve(r, b),
                                       rtol=1e-10, atol=1e-10)

    def test_identity_is_identity(self):
        b = np.array([1.0 + 2j, -3.0, 0.5j, 2.0])
        np.testing.assert_allclose(solve_hermitian(np.eye(4), b), b, atol=1e-15)

    def test_singular_matrix_raises(self):
        r = np.zeros((3, 3), dtype=complex)
        with pytest.raises(NumericError):
            solve_hermitian(r, np.ones(3))

    def test_indefinite_matrix_raises(self):
        r = np.diag([1.0, -1.0, 1.0]).astype(complex)
        with pytest.raises(NumericError):
            solve_hermitian(r, np.ones(3))


class TestMvdrWeights:
    def test_distortionless_constraint(self, rng):
        for _ in range(50):
            r = _random_hpd(rng)
            d = _random_steering(rng)
            w = mvdr_weights(r, d)
            assert abs(np.conj(w) @ d - 1.0) <= 1e-10

    def test_covariance_scale_invariance(self, rng):
        r = _random_hpd(rng)
        d = _random_steering(rng)
        w1 = mvdr_weights(r, d)
        w2 = mvdr_weights(1000.0 * r, d)
        np.testing.assert_allclose(w1, w2, rtol=1e-10, atol=1e-12)

    def test_identity_covariance_matches_delay_and_sum(self, rng):
        # With white covariance the MVDR solution reduces to d / |d|^2.
        d = _random_steering(rng)
        w = mvdr_weights(np.eye(4), d)
        np.testing.assert_allclose(w, d / (np.conj(d) @ d).real, atol=1e-12)

    def test_minimizes_power_under_constraint(self, rng):
        # Any other unit-gain filter passes at least as much power.
        r = _random_hpd(rng)
        d = _random_steering(rng)
        w = mvdr_weights(r, d)
        power = (np.conj(w) @ r @ w).real
        for _ in range(25):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v = v / np.conj(np.conj(v) @ d)
            assert (np.conj(v) @ r @ v).real >= power - 1e-10


class TestInterferenceCovariance:
    def test_shape_and_hermitian_psd(self, two_speaker_scene):
        bundle = two_speaker_scene
        cov = interference_covariance(bundle.mixture_spec, bundle.masks)
        assert cov.values.shape == (2, 257, 4, 4)
        cov.validate()

    def test_unmasked_average_is_plain_covariance(self, rng):
        # Zero masks keep every frame: R must equal (1/T) sum Y Y^H plus
        # the diagonal loading term.
        c, t, k = 3, 10, 2
        values = rng.standard_normal((c, t, k)) + 1j * rng.standard_normal((c, t, k))
        spec = Spectrogram(values)
        masks = MaskSet(np.zeros((1, t, k)))
        eps = 1e-6
        cov = interference_covariance(spec, masks, eps)
        y = values[:, :, 0].T
        plain = (y[:, :, None] * y[:, None, :].conj()).sum(axis=0) / t
        loaded = plain + eps * np.trace(plain).real / c * np.eye(c)
        np.testing.assert_allclose(cov.values[0, 0], loaded, rtol=1e-12)

    def test_full_mask_leaves_loading_only(self, rng):
        c, t, k = 3, 8, 2
        values = rng.standard_normal((c, t, k)) + 1j * rng.standard_normal((c, t, k))
        spec = Spectrogram(values)
        masks = MaskSet(np.ones((1, t, k)))
        cov = interference_covariance(spec, masks, 1e-6)
        np.testing.assert_allclose(cov.values[0, 0], np.zeros((c, c)), atol=1e-18)

    def test_mask_shape_mismatch_rejected(self, rng):
        spec = Spectrogram(rng.standard_normal((2, 4, 3)).astype(complex))
        with pytest.raises(ShapeError):
            interference_covariance(spec, MaskSet(np.zeros((1, 5, 3))))

    def test_validate_flags_asymmetry(self):
        bad = np.zeros((1, 1, 2, 2), dtype=complex)
        bad[0, 0] = [[1.0, 1.0], [0.0, 1.0]]
        with pytest.raises(NumericError):
            CovarianceSet(bad).validate()


class TestMvdrAndSeparate:
    def test_output_shapes(self, two_speaker_scene):
        bundle = two_speaker_scene
        separated = separate(bundle.mixture_spec, bundle.masks,
                             bundle.truth.angles_deg, bundle.geometry,
                             loading_eps=1e-2)
        assert len(separated) == 2
        for out in separated:
            assert out.channels == 1
            assert out.frames == bundle.mixture_spec.frames
            assert out.bins == bundle.mixture_spec.bins

    def test_oracle_separation_reduces_interference(self, two_speaker_scene):
        # Each output should correlate far better with its own source image
        # than the raw mixture channel does.
        from maskgrid.metrics import si_sdr
        from maskgrid.signal import TimeSignal
        from maskgrid.stft import synthesize

        bundle = two_speaker_scene
        separated = separate(bundle.mixture_spec, bundle.masks,
                             bundle.truth.angles_deg, bundle.geometry,
                             loading_eps=1e-2)
        n = min(min(synthesize(s).length for s in separated),
                bundle.rendered.mixture.length)
        for i, sep in enumerate(separated):
            est = TimeSignal(synthesize(sep).samples[:, :n], 16000)
            ref = TimeSignal(bundle.rendered.source_images[i].samples[0:1, :n],
                             16000)
            mix = TimeSignal(bundle.rendered.mixture.samples[0:1, :n], 16000)
            assert si_sdr(est, ref) > si_sdr(mix, ref)

    def test_steering_shape_mismatch_rejected(self, two_speaker_scene):
        bundle = two_speaker_scene
        cov = interference_covariance(bundle.mixture_spec, bundle.masks)
        bad = np.ones((2, 10, 4), dtype=complex)
        with pytest.raises(ShapeError):
            mvdr(bundle.mixture_spec, bad, cov)

    def test_error_names_speaker_and_bin(self, rng):
        c, t, k = 3, 4, 2
        spec = Spectrogram(np.zeros((c, t, k), dtype=complex))
        masks = MaskSet(np.ones((1, t, k)))
        steering = np.ones((1, k, c), dtype=complex)
        cov = interference_covariance(spec, masks, 0.0)
        with pytest.raises(NumericError, match="speaker 0, bin 0"):
            mvdr(spec, steering, cov)


class TestSeparateWithoutSpeakers:
    @pytest.mark.parametrize("doas", [[], np.array([])])
    def test_empty_doas_is_degenerate(self, two_speaker_scene, doas):
        bundle = two_speaker_scene
        spec = bundle.mixture_spec
        masks = MaskSet(np.zeros((0, spec.frames, spec.bins)))
        with pytest.raises(DegenerateInputError, match="no speaker"):
            separate(spec, masks, doas, bundle.geometry)
