"""Configuration for the pipeline runner.

A flat INI file with one section per concern; every key has a default, and
unknown sections or keys are hard errors so typos cannot silently fall
back. The effective configuration (defaults, then file, then command-line
overrides) is hashed so reports can state exactly what produced them.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass
from pathlib import Path

from .coding import ENCODERS, SpatialGrid
from .errors import ConfigError
from .estimator import TrainConfig
from .scene import ArrayGeometry, RoomSpec, linear_array
from .stft import StftConfig

DEFAULTS = {
    "scene": {
        "sample_rate_hz": "16000",
        "duration_s": "1.0",
        "doas_deg": "50,120",
        "distances_m": "2.0,2.2",
        "source_kinds": "harmonic-complex,modulated-noise",
        "pitches_hz": "210,140",
        "channels": "4",
        "spacing_m": "0.05",
        "min_gap_deg": "15",
        "room": "none",
        "room_dims_m": "6,5,3",
        "absorption": "0.5",
        "max_order": "2",
    },
    "stft": {
        "win_ms": "32",
        "hop_ms": "16",
    },
    "grid": {
        "theta_count": "720",
        "span_deg": "360",
    },
    "coding": {
        "sigma_deg": "6",
        "eps_m_db": "-35",
        "kind": "mwslc",
    },
    "conditioning": {
        "theta_counts": "90,180,360,720,1440",
    },
    "decode": {
        "eps_theta": "0.1",
        "delta_theta_deg": "6",
        "min_support_frac": "0.05",
        "eps_theta_candidates": "0.05,0.1,0.15,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
        "calibration_scene_count": "10",
    },
    "beamform": {
        # The solver default keeps the light 1e-6 loading; the pipeline
        # default is heavier because plane-wave steering at desk distances
        # self-cancels the target under near-field mismatch otherwise.
        "loading_eps": "1e-2",
    },
    "metrics": {
        "tolerance_deg": "10",
    },
    "train": {
        "learning_rate": "0.001",
        "decay_factor": "0.63",
        "decay_every_epochs": "10",
        "epochs": "100",
        "batch_size": "5",
        "patience": "10",
        "hidden_dim": "64",
        "target_kind": "mwslc",
        "scene_count": "8",
        "val_scene_count": "2",
    },
    "estimate": {
        "mode": "oracle",
        "noise_std": "0.0",
        "blur_cells": "0",
        "params_path": "",
    },
    "run": {
        "seed": "0",
    },
}


def _parse_float(section, key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: expected a number, got {raw!r}") from None


def _parse_int(section, key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: expected an integer, got {raw!r}") from None


def _parse_list(raw, conv):
    items = [s.strip() for s in raw.split(",") if s.strip()]
    return tuple(conv(s) for s in items)


@dataclass(frozen=True)
class RunConfig:
    """Typed view of one effective configuration."""

    raw: dict

    def _get(self, section: str, key: str) -> str:
        return self.raw[section][key]

    def float_of(self, section, key):
        return _parse_float(section, key, self._get(section, key))

    def int_of(self, section, key):
        return _parse_int(section, key, self._get(section, key))

    # scene
    @property
    def sample_rate_hz(self) -> int:
        return self.int_of("scene", "sample_rate_hz")

    @property
    def duration_s(self) -> float:
        return self.float_of("scene", "duration_s")

    @property
    def doas_deg(self) -> tuple:
        try:
            return _parse_list(self._get("scene", "doas_deg"), float)
        except ValueError:
            raise ConfigError("scene.doas_deg: expected comma-separated "
                              "numbers") from None

    @property
    def distances_m(self) -> tuple:
        return _parse_list(self._get("scene", "distances_m"), float)

    @property
    def source_kinds(self) -> tuple:
        return _parse_list(self._get("scene", "source_kinds"), str)

    @property
    def pitches_hz(self) -> tuple:
        return _parse_list(self._get("scene", "pitches_hz"), float)

    @property
    def channels(self) -> int:
        return self.int_of("scene", "channels")

    @property
    def spacing_m(self) -> float:
        return self.float_of("scene", "spacing_m")

    @property
    def min_gap_deg(self) -> float:
        return self.float_of("scene", "min_gap_deg")

    @property
    def room_kind(self) -> str:
        value = self._get("scene", "room")
        if value not in ("none", "shoebox"):
            raise ConfigError(f"scene.room: expected none or shoebox, got {value!r}")
        return value

    def room_spec(self) -> RoomSpec | None:
        if self.room_kind == "none":
            return None
        dims = _parse_list(self._get("scene", "room_dims_m"), float)
        return RoomSpec(dims, self.float_of("scene", "absorption"),
                        self.int_of("scene", "max_order"))

    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry(linear_array(self.channels, self.spacing_m))

    # stft
    def stft_config(self) -> StftConfig:
        fs = self.sample_rate_hz
        win = int(round(self.float_of("stft", "win_ms") * fs / 1000.0))
        hop = int(round(self.float_of("stft", "hop_ms") * fs / 1000.0))
        return StftConfig(win, hop)

    # grid / coding
    @property
    def theta_count(self) -> int:
        return self.int_of("grid", "theta_count")

    @property
    def span_deg(self) -> float:
        return self.float_of("grid", "span_deg")

    def grid(self) -> SpatialGrid:
        return SpatialGrid(self.theta_count, self.span_deg)

    @property
    def sigma_deg(self) -> float:
        return self.float_of("coding", "sigma_deg")

    @property
    def eps_m_db(self) -> float:
        return self.float_of("coding", "eps_m_db")

    @property
    def coding_kind(self) -> str:
        value = self._get("coding", "kind")
        if value not in ENCODERS:
            raise ConfigError(f"coding.kind: expected mwsbc, mwslc or "
                              f"mwslc_sum, got {value!r}")
        return value

    @property
    def conditioning_theta_counts(self) -> tuple:
        return _parse_list(self._get("conditioning", "theta_counts"), int)

    # decode
    @property
    def eps_theta(self) -> float:
        return self.float_of("decode", "eps_theta")

    @property
    def delta_theta_deg(self) -> float:
        return self.float_of("decode", "delta_theta_deg")

    @property
    def min_support_frac(self) -> float:
        return self.float_of("decode", "min_support_frac")

    @property
    def eps_theta_candidates(self) -> tuple:
        section, key = "decode", "eps_theta_candidates"
        values = _parse_list(self._get(section, key),
                             lambda raw: _parse_float(section, key, raw))
        if not values:
            raise ConfigError(f"{section}.{key}: expected at least one threshold")
        for value in values:
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{section}.{key}: thresholds must lie in "
                                  f"(0, 1), got {value!r}")
        return values

    @property
    def calibration_scene_count(self) -> int:
        count = self.int_of("decode", "calibration_scene_count")
        if count < 1:
            raise ConfigError(f"decode.calibration_scene_count: expected at "
                              f"least 1, got {count}")
        return count

    # beamform / metrics
    @property
    def loading_eps(self) -> float:
        return self.float_of("beamform", "loading_eps")

    @property
    def tolerance_deg(self) -> float:
        return self.float_of("metrics", "tolerance_deg")

    # train / estimate
    def train_config(self) -> TrainConfig:
        target_kind = self._get("train", "target_kind")
        if target_kind not in ("mwsbc", "mwslc"):
            raise ConfigError(f"train.target_kind: expected mwsbc or mwslc, "
                              f"got {target_kind!r}")
        return TrainConfig(
            learning_rate=self.float_of("train", "learning_rate"),
            decay_factor=self.float_of("train", "decay_factor"),
            decay_every_epochs=self.int_of("train", "decay_every_epochs"),
            epochs=self.int_of("train", "epochs"),
            batch_size=self.int_of("train", "batch_size"),
            target_kind=target_kind,
            patience=self.int_of("train", "patience"),
            seed=self.seed,
        )

    @property
    def hidden_dim(self) -> int:
        return self.int_of("train", "hidden_dim")

    @property
    def train_scene_count(self) -> int:
        return self.int_of("train", "scene_count")

    @property
    def val_scene_count(self) -> int:
        return self.int_of("train", "val_scene_count")

    @property
    def estimate_mode(self) -> str:
        value = self._get("estimate", "mode")
        if value not in ("oracle", "corrupt", "model"):
            raise ConfigError(f"estimate.mode: expected oracle, corrupt or "
                              f"model, got {value!r}")
        return value

    @property
    def noise_std(self) -> float:
        return self.float_of("estimate", "noise_std")

    @property
    def blur_cells(self) -> int:
        return self.int_of("estimate", "blur_cells")

    @property
    def params_path(self) -> str:
        return self._get("estimate", "params_path")

    @property
    def seed(self) -> int:
        return self.int_of("run", "seed")

    def lines(self) -> list:
        """Canonical section.key=value lines, sorted."""
        out = []
        for section in sorted(self.raw):
            for key in sorted(self.raw[section]):
                out.append(f"{section}.{key}={self.raw[section][key]}")
        return out

    @property
    def hash(self) -> str:
        digest = hashlib.sha256("\n".join(self.lines()).encode()).hexdigest()
        return digest[:12]


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Defaults, optionally updated from an INI file and override pairs.

    Args:
        path: INI file; missing file is an error, no file means defaults.
        overrides: {(section, key): value-string} applied last.

    Raises:
        ConfigError: unknown section or key, or unreadable file.
    """
    raw = {section: dict(keys) for section, keys in DEFAULTS.items()}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        text = Path(path).read_text()
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as err:
            raise ConfigError(f"{path}: {err}") from None
        for section in parser.sections():
            if section not in raw:
                raise ConfigError(f"{path}: unknown section [{section}]")
            for key, value in parser.items(section):
                if key not in raw[section]:
                    raise ConfigError(f"{path}: unknown key {section}.{key}")
                raw[section][key] = value
    for (section, key), value in (overrides or {}).items():
        if section not in raw or key not in raw[section]:
            raise ConfigError(f"unknown override {section}.{key}")
        raw[section][key] = str(value)
    return RunConfig(raw)
