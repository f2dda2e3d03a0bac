"""Waveform container and WAV round-trip tests."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


    def test_truncated_fmt_chunk_raises(self, tmp_path):
        # The chunk declares 16 bytes but the file ends 4 bytes into it.
        path = tmp_path / "short_fmt.wav"
        path.write_bytes(struct.pack("<4sI4s4sI", b"RIFF", 28, b"WAVE",
                                     b"fmt ", 16) + b"\x01\x00\x01\x00")
        with pytest.raises(FormatError, match="fmt chunk too short"):
            load_wav(path)


def _valid_wavs():
    """One small valid file's bytes per encoding, one and two channels."""
    signal = TimeSignal(np.linspace(-0.5, 0.5, 16).reshape(2, 8), 8000)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, sig, encoding in (("float32", signal, "float32"),
                                    ("pcm16", signal.channel(1), "pcm16")):
            path = Path(tmp) / f"{name}.wav"
            save_wav(sig, path, encoding)
            out[name] = path.read_bytes()
    return out


VALID_WAVS = _valid_wavs()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("wav")


def _assert_returns_or_raises_format_error(path, blob):
    path.write_bytes(blob)
    try:
        load_wav(path)
    except FormatError:
        pass


class TestFuzzedWavs:
    """load_wav returns or raises FormatError on any bytes, never more."""

    def test_valid_files_load(self, scratch):
        for name, blob in VALID_WAVS.items():
            (scratch / "valid.wav").write_bytes(blob)
            assert load_wav(scratch / "valid.wav").length == 8, name

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=80),
                     st.binary(max_size=80).map(lambda b: b"RIFF" + b),
                     st.binary(max_size=60).map(
                         lambda b: VALID_WAVS["pcm16"][:12] + b)))
    def test_any_byte_string(self, scratch, blob):
        _assert_returns_or_raises_format_error(scratch / "any.wav", blob)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(VALID_WAVS)), st.data())
    def test_truncated_or_extended(self, scratch, name, data):
        blob = VALID_WAVS[name]
        cut = data.draw(st.integers(0, len(blob)), label="cut")
        tail = data.draw(st.binary(max_size=40), label="tail")
        _assert_returns_or_raises_format_error(scratch / "cut.wav",
                                               blob[:cut] + tail)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(VALID_WAVS)), st.data())
    def test_overwritten_bytes(self, scratch, name, data):
        # Chunk ids and sizes, format fields and samples alike.
        blob = VALID_WAVS[name]
        start = data.draw(st.integers(0, len(blob) - 1), label="start")
        patch = data.draw(st.binary(min_size=1, max_size=8), label="patch")
        patched = (blob[:start] + patch + blob[start + len(patch):])[:len(blob)]
        _assert_returns_or_raises_format_error(scratch / "patched.wav",
                                               patched)


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

