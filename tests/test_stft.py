"""Analysis/synthesis transform tests, cross-checked against scipy."""

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from maskgrid.errors import ConfigError, ShapeError
from maskgrid.signal import TimeSignal
from maskgrid.stft import (Spectrogram, StftConfig, analyze, sqrt_hann_window,
                           synthesize)


class TestWindow:
    def test_sqrt_hann_squares_to_hann(self):
        w = sqrt_hann_window(512)
        hann = 0.5 * (1 - np.cos(2 * np.pi * np.arange(512) / 512))
        np.testing.assert_allclose(w ** 2, hann, atol=1e-12)

    def test_overlap_add_of_squares_is_constant(self):
        # sin^2 + cos^2: the squared window at 50% overlap sums to one,
        # which is what makes the round trip exact away from the edges.
        w2 = sqrt_hann_window(512) ** 2
        np.testing.assert_allclose(w2[:256] + w2[256:], 1.0, atol=1e-12)


class TestStftConfig:
    def test_defaults_are_32ms_16ms_at_16k(self):
        cfg = StftConfig()
        assert cfg.win_len_samples == 512
        assert cfg.hop_samples == 256
        assert cfg.bins == 257

    def test_hop_must_divide_window(self):
        with pytest.raises(ConfigError):
            StftConfig(512, 300)

    @pytest.mark.parametrize("win", [2, 8, 512])
    def test_hop_equal_to_window_rejected(self, win):
        # Without overlap the sqrt-Hann window is 0 at every frame start.
        with pytest.raises(ConfigError, match="and be smaller"):
            StftConfig(win, win)

    def test_nonpositive_sizes_rejected(self):
        with pytest.raises(ConfigError):
            StftConfig(0, 256)

    def test_frame_count_examples(self):
        cfg = StftConfig()
        assert cfg.frame_count(512) == 1
        assert cfg.frame_count(767) == 1
        assert cfg.frame_count(768) == 2
        assert cfg.frame_count(16000) == 61

    def test_frame_count_too_short_raises(self):
        with pytest.raises(ShapeError):
            StftConfig().frame_count(511)


class TestAnalyze:
    def test_output_shape(self, rng):
        sig = TimeSignal(rng.standard_normal((4, 4000)))
        spec = analyze(sig)
        assert spec.values.shape == (4, 14, 257)
        assert spec.channels == 4
        assert spec.frames == 14
        assert spec.bins == 257

    def test_matches_direct_frame_loop(self, rng):
        # Independent re-slicing: frame t covers [t*hop, t*hop + win).
        sig = TimeSignal(rng.standard_normal(3000))
        cfg = StftConfig()
        spec = analyze(sig, cfg)
        w = cfg.window
        for t in range(spec.frames):
            seg = sig.samples[0, t * 256 : t * 256 + 512] * w
            np.testing.assert_allclose(spec.values[0, t], np.fft.rfft(seg),
                                       rtol=1e-12, atol=1e-12)

    def test_matches_scipy_stft(self, rng):
        x = rng.standard_normal(4000)
        cfg = StftConfig()
        ours = analyze(TimeSignal(x), cfg).values[0]
        w = cfg.window
        _, _, z = scipy.signal.stft(x, fs=16000, window=w, nperseg=512,
                                    noverlap=256, boundary=None, padded=False)
        np.testing.assert_allclose(ours, z.T * w.sum(), rtol=1e-9, atol=1e-9)

    def test_sine_concentrates_at_its_bin(self):
        # Bin 10 center frequency is 10 * 16000 / 512 = 312.5 Hz.
        t = np.arange(4096) / 16000
        sig = TimeSignal(np.cos(2 * np.pi * 312.5 * t))
        spec = analyze(sig)
        mags = np.abs(spec.values[0])
        assert np.all(np.argmax(mags, axis=1) == 10)

    def test_too_short_signal_raises(self):
        with pytest.raises(ShapeError):
            analyze(TimeSignal(np.zeros(100)))


class TestRoundTrip:
    def test_interior_reconstruction(self, rng):
        n = 8000
        sig = TimeSignal(rng.standard_normal((2, n)))
        out = synthesize(analyze(sig))
        lo, hi = 512, out.length - 512
        err = np.linalg.norm(out.samples[:, lo:hi] - sig.samples[:, lo:hi])
        ref = np.linalg.norm(sig.samples[:, lo:hi])
        assert err / ref <= 1e-6

    @settings(max_examples=60, deadline=None)
    @given(hop=st.integers(1, 64), ratio=st.integers(2, 8),
           channels=st.integers(1, 3), extra=st.integers(0, 300),
           seed=st.integers(0, 2**32 - 1))
    def test_interior_exact_for_any_overlap(self, hop, ratio, channels, extra,
                                            seed):
        # Any hop = win / R with R >= 2 reconstructs [hop, L - hop) of the
        # framed length L; only the first sample has a zero envelope.
        win = hop * ratio
        x = np.random.default_rng(seed).standard_normal((channels, win + extra))
        out = synthesize(analyze(TimeSignal(x), StftConfig(win, hop)))
        n = out.length
        np.testing.assert_allclose(out.samples[:, hop:n - hop],
                                   x[:, hop:n - hop], rtol=0, atol=1e-12)

    def test_output_length(self, rng):
        spec = analyze(TimeSignal(rng.standard_normal(3000)))
        out = synthesize(spec)
        assert out.length == (spec.frames - 1) * 256 + 512

    def test_config_mismatch_raises(self):
        # 129 bins belong to a 256-sample window, not the spectrogram's 512.
        spec = Spectrogram(np.zeros((1, 4, 129)), StftConfig(512, 256))
        with pytest.raises(ConfigError, match="129 bins"):
            synthesize(spec)

    def test_linearity(self, rng):
        a = analyze(TimeSignal(rng.standard_normal(2048)))
        b = Spectrogram(2.0 * a.values, a.config, a.sample_rate_hz)
        np.testing.assert_allclose(synthesize(b).samples,
                                   2.0 * synthesize(a).samples, atol=1e-12)


class TestSpectrogram:
    def test_rejects_2d(self):
        with pytest.raises(ShapeError):
            Spectrogram(np.zeros((10, 257)))

    def test_channel_view(self, rng):
        spec = analyze(TimeSignal(rng.standard_normal((3, 1024))))
        sub = spec.channel(2)
        assert sub.channels == 1
        np.testing.assert_array_equal(sub.values[0], spec.values[2])
