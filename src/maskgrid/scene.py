"""Synthetic multichannel scene construction.

Sources are placed on a circle around the reference microphone and rendered
either free-field or inside a shoebox room via the image-source method.
Every propagation path is realized as a fractional-delay windowed-sinc
filter with 1/distance attenuation, so the anechoic renderer is exactly the
order-zero special case of the reverberant one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .coding import DoaSet, wrapped_distance
from .errors import ConfigError
from .signal import TimeSignal, peak_normalize
from .stft import StftConfig

SPEED_OF_SOUND = 343.0

# Fractional-delay filter: 33-tap Hann-windowed sinc, cutoff at 0.9 Nyquist.
_DELAY_TAPS = 33
_DELAY_HALF = _DELAY_TAPS // 2
_DELAY_CUTOFF = 0.9
_DELAY_TAP_INDEX = np.arange(_DELAY_TAPS) - _DELAY_HALF
_DELAY_WINDOW = np.hanning(_DELAY_TAPS)


def linear_array(channels: int = 4, spacing_m: float = 0.05) -> np.ndarray:
    """Mic positions of a linear array along x, first mic at the origin."""
    pos = np.zeros((channels, 3))
    pos[:, 0] = np.arange(channels) * spacing_m
    return pos


@dataclass(frozen=True)
class ArrayGeometry:
    """Microphone coordinates in meters, with a designated reference mic."""

    mic_positions: np.ndarray = field(default_factory=linear_array)
    reference_mic: int = 0
    speed_of_sound: float = SPEED_OF_SOUND

    def __post_init__(self):
        pos = np.asarray(self.mic_positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 2:
            raise ConfigError("mic_positions must be (C >= 2, 3)")
        if len({tuple(p) for p in pos}) != pos.shape[0]:
            raise ConfigError("mic positions must be distinct")
        if not 0 <= self.reference_mic < pos.shape[0]:
            raise ConfigError(f"reference mic {self.reference_mic} out of range")
        object.__setattr__(self, "mic_positions", pos)

    @property
    def channels(self) -> int:
        return self.mic_positions.shape[0]


@dataclass(frozen=True)
class SourceSpec:
    """One source: azimuth in degrees, distance in meters, and its dry signal."""

    doa_deg: float
    distance_m: float
    signal: TimeSignal

    def __post_init__(self):
        if self.distance_m <= 0:
            raise ConfigError(f"distance must be positive, got {self.distance_m}")
        if self.signal.channels != 1:
            raise ConfigError("source signals must be mono")


@dataclass(frozen=True)
class RoomSpec:
    """Shoebox room: dimensions in meters, uniform wall absorption, max order.

    array_origin places the array's coordinate origin inside the room;
    default is the room center.
    """

    dimensions_m: tuple = (6.0, 5.0, 3.0)
    absorption: float = 0.5
    max_order: int = 2
    array_origin_m: tuple | None = None

    def __post_init__(self):
        dims = tuple(float(d) for d in self.dimensions_m)
        if len(dims) != 3 or not all(0 < d < math.inf for d in dims):
            raise ConfigError(f"room dimensions must be 3 finite positive "
                              f"values, got {dims}")
        if not 0.0 <= self.absorption <= 1.0:
            raise ConfigError(f"absorption must be in [0, 1], got {self.absorption}")
        if self.max_order < 0:
            raise ConfigError("max_order must be >= 0")
        object.__setattr__(self, "dimensions_m", dims)

    @property
    def origin(self) -> np.ndarray:
        if self.array_origin_m is not None:
            return np.asarray(self.array_origin_m, dtype=np.float64)
        return np.asarray(self.dimensions_m) / 2.0


@dataclass(frozen=True)
class SceneSpec:
    """Scene description: sources, optional room, angular span, seed."""

    sources: tuple
    room: RoomSpec | None = None
    span_deg: float = 360.0
    min_gap_deg: float = 15.0
    seed: int = 0
    truth: DoaSet = field(init=False, compare=False)

    def __post_init__(self):
        sources = tuple(self.sources)
        object.__setattr__(self, "sources", sources)
        # DoaSet checks the angles: non-empty, in [0, span) and distinct.
        truth = DoaSet(np.array([s.doa_deg for s in sources]), self.span_deg)
        close = truth.pairs_closer_than(self.min_gap_deg)
        if close.size:
            a, b = truth.angles_deg[close[0]].tolist()
            gap = wrapped_distance(a, b, self.span_deg)
            raise ConfigError(f"sources at {a} and {b} deg are {gap:.2f} deg "
                              f"apart; minimum is {self.min_gap_deg}")
        object.__setattr__(self, "truth", truth)


@dataclass(frozen=True)
class RenderedScene:
    """Rendered mixture, per-source microphone images, and ground truth."""

    mixture: TimeSignal
    source_images: tuple
    dry_sources: tuple
    truth: DoaSet


def unit_vector(doa_deg: float) -> np.ndarray:
    """Horizontal-plane unit vector pointing toward the source."""
    rad = math.radians(doa_deg)
    return np.array([math.cos(rad), math.sin(rad), 0.0])


def steering_matrix(geometry: ArrayGeometry, doa_deg: float, cfg: StftConfig,
                    sample_rate_hz: int = 16000) -> np.ndarray:
    """Far-field plane-wave array response, shape (bins, channels).

    Row k, component c is exp(-j 2 pi f_k tau_c) with
    tau_c = -(p_c - p_ref) . u / v, so the reference component is exactly 1
    and all components have unit modulus. A mic closer to the source leads
    the reference (positive phase).
    """
    u = unit_vector(doa_deg)
    rel = geometry.mic_positions - geometry.mic_positions[geometry.reference_mic]
    tau = -(rel @ u) / geometry.speed_of_sound
    freqs = np.arange(cfg.bins) * sample_rate_hz / cfg.win_len_samples
    return np.exp(-2j * np.pi * freqs[:, None] * tau[None, :])


def _delay_kernel(frac: float) -> np.ndarray:
    """Windowed-sinc interpolation kernel delaying by frac in [-0.5, 0.5]."""
    return _DELAY_CUTOFF * np.sinc(_DELAY_CUTOFF * (_DELAY_TAP_INDEX - frac)) * _DELAY_WINDOW


def _image_sources(src: np.ndarray, room: RoomSpec | None) -> list:
    """(position, gain) of each image of a source at src, in array
    coordinates: the direct path (src itself, so an order-0 room renders
    bit-identically to no room) and, in a room, every nonzero-gain image up
    to room.max_order."""
    if room is None:
        return [(src, 1.0)]
    lo = -room.origin
    hi = np.asarray(room.dimensions_m) - room.origin
    dims = hi - lo
    beta = math.sqrt(1.0 - room.absorption)
    images = []
    span = range(-room.max_order, room.max_order + 1)
    for p in itertools.product((0, 1), repeat=3):
        for r in itertools.product(span, repeat=3):
            hits = sum(abs(r[a] - p[a]) + abs(r[a]) for a in range(3))
            gain = beta ** hits  # 1.0 for the direct path (hits == 0)
            if hits > room.max_order or gain == 0.0:
                continue
            pos = src if hits == 0 else np.array([
                (1 - 2 * p[a]) * (src[a] - lo[a]) + 2 * r[a] * dims[a] + lo[a]
                for a in range(3)])
            images.append((pos, gain))
    return images


def _render(spec: SceneSpec, geometry: ArrayGeometry,
            room: RoomSpec | None) -> RenderedScene:
    """Sum of fractional-delay filtered copies of each source per mic, one
    per (image, mic) path with gain / distance; the output holds the
    longest source plus the longest path delay."""
    mics = geometry.mic_positions
    ref = mics[geometry.reference_mic]
    positions = [ref + s.distance_m * unit_vector(s.doa_deg)
                 for s in spec.sources]
    if room is not None:
        lo = -room.origin
        hi = np.asarray(room.dimensions_m) - room.origin
        for mic in mics:
            if np.any(mic <= lo) or np.any(mic >= hi):
                raise ConfigError(f"mic at {mic} lies outside the room")
        for s, pos in zip(spec.sources, positions):
            if np.any(pos <= lo) or np.any(pos >= hi):
                raise ConfigError(f"source at {s.doa_deg} deg / "
                                  f"{s.distance_m} m lies outside the room")
    rates = {s.signal.sample_rate_hz for s in spec.sources}
    if len(rates) != 1:
        raise ConfigError(f"sources have mixed sample rates: {sorted(rates)}")
    fs = rates.pop()
    paths = []  # per source: (mic, delay in samples, gain / r) of each path
    for src in positions:
        paths.append([])
        for pos, gain in _image_sources(src, room):
            for mic in range(geometry.channels):
                r = float(np.linalg.norm(pos - mics[mic]))
                paths[-1].append((mic, r / geometry.speed_of_sound * fs, gain / r))
    max_delay = max(delay for per in paths for _, delay, _ in per)
    out_len = (max(s.signal.length for s in spec.sources) + 2 * _DELAY_TAPS
               + int(math.ceil(max_delay)))
    rendered = []
    for s, per in zip(spec.sources, paths):
        out = np.zeros((geometry.channels, out_len))
        for mic, delay, scale in per:
            n0 = int(round(delay))
            seg = np.convolve(s.signal.samples[0], _delay_kernel(delay - n0) * scale)
            start = _DELAY_TAPS + n0 - _DELAY_HALF  # a filter length of lead
            out[mic, start : start + seg.size] += seg
        rendered.append(out)
    return RenderedScene(TimeSignal(np.sum(rendered, axis=0), fs),
                         tuple(TimeSignal(r, fs) for r in rendered),
                         tuple(s.signal for s in spec.sources), spec.truth)


def simulate_anechoic(spec: SceneSpec, geometry: ArrayGeometry) -> RenderedScene:
    """Free-field render: direct path only, spherical 1/r attenuation."""
    return _render(spec, geometry, None)


def simulate_shoebox(spec: SceneSpec, geometry: ArrayGeometry) -> RenderedScene:
    """Image-source render up to the room's configured reflection order.

    Positions are validated against the walls; amplitude reflection factor is
    sqrt(1 - absorption) per wall hit.

    Raises:
        ConfigError: no room in the spec, or a source/mic outside the room.
    """
    if spec.room is None:
        raise ConfigError("simulate_shoebox needs a room in the scene spec")
    return _render(spec, geometry, spec.room)


def synth_source(kind: str, duration_s: float, pitch_hz: float = 200.0,
                 seed: int = 0, sample_rate_hz: int = 16000) -> TimeSignal:
    """Deterministic speech-like mono test signal.

    kind "harmonic-complex": partials at pitch multiples (up to 0.9 Nyquist)
    with 1/p amplitude rolloff, random phases, and a slow random envelope
    that introduces near-silent stretches. kind "modulated-noise": white
    noise under the same kind of envelope. Peak-normalized.
    """
    if duration_s <= 0:
        raise ConfigError(f"duration must be positive, got {duration_s}")
    n = int(round(duration_s * sample_rate_hz))
    rng = np.random.default_rng(seed)
    t = np.arange(n) / sample_rate_hz

    # Slow (~8 Hz control rate) half-wave-rectified envelope; redraw in the
    # unlikely case it is zero at every sample. A positive control point is
    # not enough: between the last sample and a positive end point the
    # interpolation can stay below zero.
    n_ctrl = max(4, int(round(duration_s * 8)) + 1)
    ctrl_t = np.linspace(0.0, duration_s, n_ctrl)
    for _ in range(100):
        ctrl = rng.normal(0.5, 0.8, n_ctrl)
        envelope = np.maximum(np.interp(t, ctrl_t, ctrl), 0.0)
        if np.any(envelope > 0):
            break

    if kind == "harmonic-complex":
        if pitch_hz * duration_s < 1.0:
            raise ConfigError(f"pitch {pitch_hz} Hz completes no period in {duration_s} s")
        n_partials = int(0.45 * sample_rate_hz / pitch_hz)
        if n_partials < 1:
            raise ConfigError(f"pitch {pitch_hz} Hz leaves no partial below Nyquist")
        x = np.zeros(n)
        for p in range(1, n_partials + 1):
            phase = rng.uniform(0, 2 * np.pi)
            gain = (0.5 + rng.uniform()) / p
            x += gain * np.sin(2 * np.pi * p * pitch_hz * t + phase)
        x *= envelope
    elif kind == "modulated-noise":
        x = rng.standard_normal(n) * envelope
    else:
        raise ConfigError(f"unknown source kind {kind!r}")
    return peak_normalize(TimeSignal(x[np.newaxis, :], sample_rate_hz))
