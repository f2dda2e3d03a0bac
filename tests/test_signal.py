"""Waveform container and WAV round-trip tests."""

import struct

import numpy as np
import pytest

from maskgrid.errors import (DegenerateInputError, FormatError, ShapeError,
                             UnsupportedFormatError)
from maskgrid.signal import TimeSignal, load_wav, peak_normalize, save_wav


class TestTimeSignal:
    def test_mono_promoted_to_2d(self):
        sig = TimeSignal(np.zeros(100))
        assert sig.samples.shape == (1, 100)
        assert sig.channels == 1

    def test_multichannel_shape(self):
        sig = TimeSignal(np.zeros((4, 256)), 16000)
        assert sig.channels == 4
        assert sig.length == 256
        assert sig.duration_s == 256 / 16000

    def test_rejects_3d(self):
        with pytest.raises(ShapeError):
            TimeSignal(np.zeros((2, 3, 4)))

    def test_rejects_zero_channels(self):
        with pytest.raises(ShapeError):
            TimeSignal(np.zeros((0, 10)))

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            TimeSignal(np.zeros(10), 0)

    def test_channel_selects_one_row(self):
        sig = TimeSignal(np.arange(12.0).reshape(3, 4))
        sub = sig.channel(1)
        assert sub.channels == 1
        np.testing.assert_array_equal(sub.samples[0], [4.0, 5.0, 6.0, 7.0])


class TestWavRoundTrip:
    def test_float32_round_trip_exact(self, rng, tmp_path):
        # Quantize to 2^-10 so every sample is exactly representable in f4.
        samples = np.round(rng.uniform(-1, 1, (3, 500)) * 1024) / 1024
        path = tmp_path / "f32.wav"
        save_wav(TimeSignal(samples, 8000), path)
        loaded = load_wav(path)
        assert loaded.sample_rate_hz == 8000
        assert loaded.channels == 3
        np.testing.assert_array_equal(loaded.samples, samples)

    def test_pcm16_round_trip_error_bound(self, rng, tmp_path):
        samples = rng.uniform(-0.99, 0.99, (2, 400))
        path = tmp_path / "pcm.wav"
        save_wav(TimeSignal(samples), path, encoding="pcm16")
        loaded = load_wav(path)
        assert np.abs(loaded.samples - samples).max() <= 2.0 ** -15

    def test_unknown_encoding_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_wav(TimeSignal(np.zeros(10)), tmp_path / "x.wav", encoding="mu-law")

    def test_not_riff_raises_format_error(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"OggS" + b"\x00" * 100)
        with pytest.raises(FormatError):
            load_wav(path)

    def test_truncated_data_chunk_raises(self, tmp_path):
        path = tmp_path / "trunc.wav"
        save_wav(TimeSignal(np.zeros((1, 100))), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 50])
        with pytest.raises(FormatError):
            load_wav(path)

    def test_unsupported_bit_depth_raises(self, tmp_path):
        # Valid RIFF header advertising 24-bit PCM, which we do not read.
        frames = b"\x00" * 24
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(frames), b"WAVE",
            b"fmt ", 16, 1, 1, 16000, 16000 * 3, 3, 24,
            b"data", len(frames))
        path = tmp_path / "deep.wav"
        path.write_bytes(header + frames)
        with pytest.raises(UnsupportedFormatError):
            load_wav(path)


class TestPeakNormalize:
    def test_peak_becomes_one(self):
        out = peak_normalize(TimeSignal(np.array([[0.1, -0.4, 0.2]])))
        assert np.abs(out.samples).max() == 1.0

    def test_preserves_channel_ratio(self):
        sig = TimeSignal(np.array([[0.5, 0.0], [0.25, 0.0]]))
        out = peak_normalize(sig)
        np.testing.assert_allclose(out.samples, [[1.0, 0.0], [0.5, 0.0]])

    def test_idempotent(self, rng):
        sig = TimeSignal(rng.standard_normal((2, 64)))
        once = peak_normalize(sig)
        twice = peak_normalize(once)
        np.testing.assert_array_equal(once.samples, twice.samples)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            peak_normalize(TimeSignal(np.zeros(16)))

