"""Analysis/synthesis between time domain and the complex time-frequency plane.

Square-root Hann windows are applied on both sides, so the effective window
is Hann and the pair is perfectly reconstructing at any overlap where the
hop is win / R for an integer R >= 2 (COLA). Overlap is required: without
it the window is 0 at every frame start, where synthesis cannot recover
the signal. Defaults correspond to 32 ms windows with 16 ms hop at 16 kHz.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .signal import TimeSignal


def sqrt_hann_window(n: int) -> np.ndarray:
    """Periodic square-root Hann window: sin(pi k / n), k = 0..n-1."""
    return np.sin(np.pi * np.arange(n) / n)


@dataclass(frozen=True)
class StftConfig:
    """Framing parameters. hop must divide win_len and be smaller than it,
    so frames overlap (by 50% by default)."""

    win_len_samples: int = 512
    hop_samples: int = 256

    def __post_init__(self):
        if self.win_len_samples <= 0 or self.hop_samples <= 0:
            raise ConfigError("window and hop must be positive")
        win, hop = self.win_len_samples, self.hop_samples
        if win % hop != 0 or hop == win:
            raise ConfigError(f"hop {hop} must divide window {win} and be "
                              "smaller, so that frames overlap")

    @property
    def bins(self) -> int:
        return self.win_len_samples // 2 + 1

    @property
    def window(self) -> np.ndarray:
        return sqrt_hann_window(self.win_len_samples)

    def frame_count(self, n_samples: int) -> int:
        if n_samples < self.win_len_samples:
            raise ShapeError(
                f"signal of {n_samples} samples is shorter than one "
                f"{self.win_len_samples}-sample window")
        return (n_samples - self.win_len_samples) // self.hop_samples + 1


@dataclass(frozen=True)
class Spectrogram:
    """Complex STFT tensor of shape (channels, frames, bins)."""

    values: np.ndarray
    config: StftConfig = field(default_factory=StftConfig)
    sample_rate_hz: int = 16000

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.ndim != 3:
            raise ShapeError(f"spectrogram must be 3-D (C, T, K), got ndim={arr.ndim}")
        object.__setattr__(self, "values", arr.astype(np.complex128, copy=False))

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def frames(self) -> int:
        return self.values.shape[1]

    @property
    def bins(self) -> int:
        return self.values.shape[2]

    def channel(self, c: int) -> "Spectrogram":
        return Spectrogram(self.values[c : c + 1], self.config, self.sample_rate_hz)


def analyze(signal: TimeSignal, cfg: StftConfig | None = None) -> Spectrogram:
    """Forward STFT with a sqrt-Hann window and one-sided spectra.

    Frames are fully in-bounds: T = (len - win) // hop + 1. Trailing samples
    beyond the last full window (at most hop - 1 of them) are not framed.

    Raises:
        ShapeError: signal shorter than one window.
    """
    cfg = cfg or StftConfig()
    n = signal.length
    frames = cfg.frame_count(n)
    win = cfg.win_len_samples
    hop = cfg.hop_samples
    strided = np.lib.stride_tricks.sliding_window_view(signal.samples, win, axis=1)
    windowed = strided[:, : (frames - 1) * hop + 1 : hop, :] * cfg.window
    values = np.fft.rfft(windowed, axis=-1)
    return Spectrogram(values, cfg, signal.sample_rate_hz)


def synthesize(spec: Spectrogram) -> TimeSignal:
    """Inverse STFT by weighted overlap-add with the same sqrt-Hann window.

    Uses the spectrogram's own framing. Output length is (T - 1) * hop + win.
    Boundary samples are compensated by the accumulated window-square
    envelope where it is nonzero; with the overlap StftConfig requires, that
    is everywhere but the first sample, which stays 0.

    Raises:
        ConfigError: the spectrogram's bin count does not match its config.
    """
    cfg = spec.config
    if spec.bins != cfg.bins:
        raise ConfigError(
            f"spectrogram has {spec.bins} bins but config implies {cfg.bins}")

    win, hop = cfg.win_len_samples, cfg.hop_samples
    c, t = spec.channels, spec.frames
    frames = np.fft.irfft(spec.values, n=win, axis=-1) * cfg.window
    out_len = (t - 1) * hop + win
    out = np.zeros((c, out_len))
    envelope = np.zeros(out_len)
    w_sq = cfg.window ** 2
    for i in range(t):
        out[:, i * hop : i * hop + win] += frames[:, i, :]
        envelope[i * hop : i * hop + win] += w_sq
    nonzero = envelope > 1e-12
    out[:, nonzero] /= envelope[nonzero]
    return TimeSignal(out, spec.sample_rate_hz)
