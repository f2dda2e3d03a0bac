"""Multichannel waveform container, WAV file I/O, and peak normalization.

WAV support is deliberately narrow: little-endian RIFF with 16-bit PCM or
32-bit IEEE float samples, interleaved channels. Anything else is rejected
up front so experiments never run on silently misread audio.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DegenerateInputError, FormatError,
                     ShapeError, UnsupportedFormatError)

DEFAULT_SAMPLE_RATE = 16000

# Symmetric 16-bit scale: +1.0 clips to 32767, so the round-trip error is
# bounded by 2^-15 at the positive rail and 2^-16 elsewhere.
_PCM16_SCALE = 32768.0
_F32_EXPONENT = 0x7F800000


@dataclass(frozen=True)
class TimeSignal:
    """Sampled multichannel waveform.

    samples: float64 array of shape (channels, length), nominal range [-1, 1].
    sample_rate_hz: sampling rate, > 0.
    """

    samples: np.ndarray
    sample_rate_hz: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2:
            raise ShapeError(f"samples must be 1-D or 2-D, got ndim={arr.ndim}")
        if arr.shape[0] < 1:
            raise ShapeError("need at least one channel")
        if self.sample_rate_hz <= 0:
            raise ConfigError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        object.__setattr__(self, "samples", arr)

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def length(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.length / self.sample_rate_hz

    def channel(self, c: int) -> "TimeSignal":
        """Single-channel view of channel `c`."""
        return TimeSignal(self.samples[c : c + 1], self.sample_rate_hz)


def load_wav(path) -> TimeSignal:
    """Read a RIFF WAV file into a TimeSignal.

    Accepts 16-bit PCM and 32-bit IEEE float encodings. PCM samples are
    scaled by 1/32768 into [-1, 1); float samples pass through unchanged.

    Raises:
        FormatError: malformed or truncated file, or a non-finite float
            sample.
        UnsupportedFormatError: valid WAV with an encoding we do not read.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            if len(body) < 16:
                raise FormatError(f"{path}: fmt chunk too short ({len(body)} bytes)")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            if len(body) < size:
                raise FormatError(f"{path}: data chunk truncated "
                                  f"({len(body)} of {size} bytes)")
            payload = body
        pos += 8 + size + (size & 1)

    if fmt is None or payload is None:
        raise FormatError(f"{path}: missing fmt or data chunk")
    audio_format, n_channels, rate, _, block_align, bits = fmt
    if n_channels < 1 or rate <= 0:
        raise FormatError(f"{path}: invalid header (channels={n_channels}, rate={rate})")

    if audio_format == 1 and bits == 16:
        raw = np.frombuffer(payload[: len(payload) - len(payload) % 2], dtype="<i2")
        samples = raw.astype(np.float64) / _PCM16_SCALE
    elif audio_format == 3 and bits == 32:
        raw = np.frombuffer(payload[: len(payload) - len(payload) % 4], dtype="<f4")
        # All exponent bits set is inf or NaN. Testing the bits, not the
        # floats, keeps a signaling NaN from raising an invalid-value warning.
        if np.any((raw.view("<u4") & _F32_EXPONENT) == _F32_EXPONENT):
            raise FormatError(f"{path}: non-finite float sample")
        samples = raw.astype(np.float64)
    else:
        raise UnsupportedFormatError(
            f"{path}: unsupported encoding (format={audio_format}, bits={bits}); "
            "only 16-bit PCM and 32-bit float are read")

    if samples.size % n_channels != 0:
        raise FormatError(f"{path}: payload size not a multiple of the frame size")
    if block_align not in (0, n_channels * bits // 8):
        raise FormatError(f"{path}: block alignment {block_align} inconsistent with header")
    frames = samples.reshape(-1, n_channels).T
    return TimeSignal(np.ascontiguousarray(frames), sample_rate_hz=rate)


def save_wav(signal: TimeSignal, path, encoding: str = "float32") -> None:
    """Write a TimeSignal as a little-endian WAV file.

    encoding: "float32" (lossless round trip) or "pcm16" (error <= 2^-15).
    """
    if encoding == "float32":
        audio_format, bits = 3, 32
        frames = signal.samples.T.astype("<f4").tobytes()
    elif encoding == "pcm16":
        audio_format, bits = 1, 16
        scaled = np.round(signal.samples.T * _PCM16_SCALE)
        frames = np.clip(scaled, -32768, 32767).astype("<i2").tobytes()
    else:
        raise ConfigError(f"unknown encoding {encoding!r}; use 'float32' or 'pcm16'")

    n_channels = signal.channels
    byte_rate = signal.sample_rate_hz * n_channels * bits // 8
    block_align = n_channels * bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(frames), b"WAVE",
        b"fmt ", 16, audio_format, n_channels, signal.sample_rate_hz,
        byte_rate, block_align, bits,
        b"data", len(frames),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(frames)


def peak_normalize(signal: TimeSignal) -> TimeSignal:
    """Scale so the largest absolute sample over all channels is exactly 1.

    Relative channel gains are preserved. Idempotent.

    Raises:
        DegenerateInputError: all-zero input.
    """
    peak = np.max(np.abs(signal.samples))
    if peak == 0.0:
        raise DegenerateInputError("cannot peak-normalize an all-zero signal")
    return TimeSignal(signal.samples / peak, signal.sample_rate_hz)

