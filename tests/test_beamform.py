"""Covariance, batched Hermitian solve, and MVDR filter tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskgrid.beamform import (CovarianceSet, interference_covariance, mvdr,
                               mvdr_weights, separate, solve_hermitian)
from maskgrid.coding import MaskSet
from maskgrid.errors import DegenerateInputError, NumericError, ShapeError
from maskgrid.scene import steering_matrix
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


# Verbatim copy of the per-bin solver the batched path replaced: a
# hand-rolled complex Cholesky, two triangular substitutions and one
# mvdr_weights call per (speaker, bin). Kept only as the test oracle.
def _oracle_cholesky(r: np.ndarray) -> np.ndarray:
    c = r.shape[0]
    low = np.zeros((c, c), dtype=np.complex128)
    for j in range(c):
        pivot = r[j, j].real - float(np.sum(np.abs(low[j, :j]) ** 2))
        if not np.isfinite(pivot) or pivot <= 0.0:
            raise NumericError(f"pivot {pivot:.3e} at column {j}")
        low[j, j] = np.sqrt(pivot)
        for i in range(j + 1, c):
            low[i, j] = (r[i, j] - low[i, :j] @ np.conj(low[j, :j])) / low[j, j]
    return low


def _oracle_solve_hermitian(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    low = _oracle_cholesky(np.asarray(r, dtype=np.complex128))
    c = low.shape[0]
    b = np.asarray(b, dtype=np.complex128)
    z = np.zeros(c, dtype=np.complex128)
    for i in range(c):
        z[i] = (b[i] - low[i, :i] @ z[:i]) / low[i, i]
    x = np.zeros(c, dtype=np.complex128)
    for i in reversed(range(c)):
        x[i] = (z[i] - np.conj(low[i + 1 :, i]) @ x[i + 1 :]) / low[i, i].real
    return x


def _oracle_mvdr_weights(r: np.ndarray, d: np.ndarray) -> np.ndarray:
    x = _oracle_solve_hermitian(r, d)
    denom = np.conj(d) @ x
    if not np.isfinite(denom.real) or denom.real <= 0.0:
        raise NumericError(f"non-positive beamformer denominator {denom.real:.3e}")
    return x / denom.real


def _oracle_mvdr(mixture: Spectrogram, steering: np.ndarray,
                 cov: CovarianceSet) -> list:
    c, t, k = mixture.values.shape
    steering = np.asarray(steering, dtype=np.complex128)
    if steering.shape != (cov.speakers, k, c):
        raise ShapeError(f"steering shape {steering.shape} does not match "
                         f"({cov.speakers}, {k}, {c})")
    y = np.transpose(mixture.values, (1, 2, 0))
    outputs = []
    for i in range(cov.speakers):
        out = np.empty((1, t, k), dtype=np.complex128)
        for kk in range(k):
            try:
                w = _oracle_mvdr_weights(cov.values[i, kk], steering[i, kk])
            except NumericError as err:
                raise NumericError(
                    f"speaker {i}, bin {kk}: {err}") from err
            out[0, :, kk] = y[:, kk, :] @ np.conj(w)
        outputs.append(Spectrogram(out, mixture.config, mixture.sample_rate_hz))
    return outputs


def _random_hpd_stack(rng, shape, c, loading=1e-3):
    a = (rng.standard_normal(shape + (c, c))
         + 1j * rng.standard_normal(shape + (c, c)))
    r = a @ np.conj(np.swapaxes(a, -1, -2))
    trace = np.trace(r, axis1=-2, axis2=-1).real
    return r + (loading * trace / c)[..., None, None] * np.eye(c)


def _random_problem(rng, speakers=2, bins=9, channels=4, frames=6):
    values = (rng.standard_normal((channels, frames, bins))
              + 1j * rng.standard_normal((channels, frames, bins)))
    steering = np.exp(1j * rng.uniform(0, 2 * np.pi,
                                       (speakers, bins, channels)))
    cov = CovarianceSet(_random_hpd_stack(rng, (speakers, bins), channels))
    return Spectrogram(values), steering, cov


def _assert_matches_oracle(spec, steering, cov, rtol=1e-12):
    want_w = np.array([[_oracle_mvdr_weights(cov.values[i, k], steering[i, k])
                        for k in range(spec.bins)]
                       for i in range(cov.speakers)])
    np.testing.assert_allclose(mvdr_weights(cov.values, steering), want_w,
                               rtol=rtol, atol=0)
    got, want = mvdr(spec, steering, cov), _oracle_mvdr(spec, steering, cov)
    assert len(got) == len(want) == cov.speakers
    # An output is a C-term dot product that may cancel, so its error is
    # bounded relative to sum_c |y_c| |w_c|, not to its own magnitude.
    scale = np.einsum("ctk,ikc->itk", np.abs(spec.values), np.abs(want_w))
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.values.shape == w.values.shape == (1,) + scale.shape[1:]
        assert np.all(np.abs(g.values[0] - w.values[0]) <= rtol * scale[i])


class TestBatchedMatchesPerBinOracle:
    def test_two_speaker_scene(self, two_speaker_scene):
        bundle = two_speaker_scene
        spec = bundle.mixture_spec
        cov = interference_covariance(spec, bundle.masks, 1e-2)
        steering = np.stack([
            steering_matrix(bundle.geometry, float(a), spec.config,
                            spec.sample_rate_hz)
            for a in bundle.truth.angles_deg])
        _assert_matches_oracle(spec, steering, cov)

    @pytest.mark.parametrize("speakers, channels", [(1, 2), (2, 4), (3, 6)])
    def test_random_hpd_stacks(self, rng, speakers, channels):
        _assert_matches_oracle(*_random_problem(rng, speakers, 11, channels))


class TestBatchedSolveProperties:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), channels=st.integers(2, 6),
           lead=st.sampled_from([(), (5,), (2, 3)]))
    def test_distortionless_and_equal_to_per_matrix(self, seed, channels, lead):
        rng = np.random.default_rng(seed)
        r = _random_hpd_stack(rng, lead, channels)
        d = np.exp(1j * rng.uniform(0, 2 * np.pi, lead + (channels,)))
        w = mvdr_weights(r, d)
        assert w.shape == lead + (channels,)
        gain = np.einsum("...c,...c->...", np.conj(w), d)
        np.testing.assert_allclose(gain, 1.0, rtol=0, atol=1e-10)
        x = solve_hermitian(r, d)
        for idx in np.ndindex(*lead):
            np.testing.assert_allclose(x[idx], solve_hermitian(r[idx], d[idx]),
                                       rtol=1e-13, atol=0)
            np.testing.assert_allclose(w[idx], mvdr_weights(r[idx], d[idx]),
                                       rtol=1e-13, atol=0)


class TestBatchedErrorPath:
    def test_singular_matrix_names_its_speaker_and_bin(self, rng):
        spec, steering, cov = _random_problem(rng, speakers=2, bins=10,
                                              channels=3)
        values = cov.values.copy()
        values[1, 7] = 0.0
        with pytest.raises(NumericError, match="^speaker 1, bin 7: "):
            mvdr(spec, steering, CovarianceSet(values))

    def test_first_failure_is_speaker_major(self, rng):
        # (0, 9) comes before (1, 2) speaker-major although its bin is later.
        spec, steering, cov = _random_problem(rng, speakers=2, bins=10,
                                              channels=3)
        values = cov.values.copy()
        values[1, 2] = np.diag([1.0, -1.0, 1.0])
        values[0, 9] = 0.0
        with pytest.raises(NumericError, match="^speaker 0, bin 9: "):
            mvdr(spec, steering, CovarianceSet(values))

    def test_zero_steering_names_its_speaker_and_bin(self, rng):
        spec, steering, cov = _random_problem(rng, speakers=2, bins=6)
        steering[1, 3] = 0.0
        with pytest.raises(NumericError,
                           match="^speaker 1, bin 3: non-positive beamformer"):
            mvdr(spec, steering, cov)

    @pytest.mark.parametrize("bad", [
        np.zeros((3, 3)), np.diag([1.0, -1.0, 1.0]), np.full((3, 3), np.nan),
        np.diag([np.inf, 1.0, 1.0]),
    ], ids=["singular", "indefinite", "nan", "inf"])
    def test_no_linalg_error_escapes(self, rng, bad):
        # LinAlgError subclasses ValueError, which the CLI reports as a
        # config error; a numerical failure must stay a NumericError.
        stack = _random_hpd_stack(rng, (4,), 3)
        stack[2] = bad
        for r, b in ((bad, np.ones(3)), (stack, np.ones((4, 3)))):
            with pytest.raises(NumericError):
                solve_hermitian(r, b)

    def test_non_square_is_numeric_error(self):
        with pytest.raises(NumericError):
            solve_hermitian(np.ones((2, 3)), np.ones(2))
