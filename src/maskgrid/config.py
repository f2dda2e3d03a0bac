"""Configuration for the pipeline runner.

A flat INI file with one section per concern; every key has a default, and
unknown sections or keys are hard errors so typos cannot silently fall
back. The effective configuration (defaults, then file, then command-line
overrides) is hashed so reports can state exactly what produced them.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from .coding import ENCODERS, SpatialGrid
from .errors import ConfigError
from .estimator import TrainConfig
from .scene import ArrayGeometry, RoomSpec, linear_array
from .stft import StftConfig

_EXPECTED = {float: "a number", int: "an integer"}
_OPEN_UNIT = (lambda value: 0.0 < value < 1.0, "a value in (0, 1)")
_POSITIVE = (lambda value: value > 0.0, "a positive number")


def _parse(section, key, raw, conv):
    try:
        value = conv(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: expected {_EXPECTED[conv]}, "
                          f"got {raw!r}") from None
    if conv is float and not math.isfinite(value):
        raise ConfigError(f"{section}.{key}: expected a finite number, "
                          f"got {raw!r}")
    return value


def _one_of(*choices):
    return (lambda value: value in choices,
            f"{', '.join(choices[:-1])} or {choices[-1]}")


def _at_least(low):
    return (lambda value: value >= low, f"at least {low}")


class _Key:
    """One config key: its default string, item type, and accepted values.

    Each read parses raw[section][key] afresh, so a bad value fails only
    where it is read. items=True reads a comma-separated list; ok is
    (predicate, "what it expects"), applied to the value or each item.
    """

    def __init__(self, section, key, default, conv=float, items=False,
                 ok=None):
        self.section, self.key, self.default = section, key, default
        self.conv, self.items, self.ok = conv, items, ok

    def __get__(self, cfg, owner=None):
        if cfg is None:
            return self
        section, key = self.section, self.key
        if self.items:
            values = cfg.list_of(section, key, self.conv)
        else:
            values = (_parse(section, key, cfg.raw[section][key], self.conv),)
        if self.ok is not None:
            accepts, expected = self.ok
            for value in values:
                if not accepts(value):
                    raise ConfigError(f"{section}.{key}: expected {expected}, "
                                      f"got {value!r}")
        return values if self.items else values[0]


@dataclass(frozen=True)
class RunConfig:
    """Typed view of one effective configuration.

    Every key is one _Key below; keys read only by a builder have a
    leading underscore.
    """

    raw: dict

    sample_rate_hz = _Key("scene", "sample_rate_hz", "16000", int,
                          ok=_at_least(1))
    duration_s = _Key("scene", "duration_s", "1.0")
    doas_deg = _Key("scene", "doas_deg", "50,120", items=True)
    distances_m = _Key("scene", "distances_m", "2.0,2.2", items=True)
    source_kinds = _Key("scene", "source_kinds",
                        "harmonic-complex,modulated-noise", str, items=True)
    pitches_hz = _Key("scene", "pitches_hz", "210,140", items=True)
    channels = _Key("scene", "channels", "4", int, ok=_at_least(2))
    spacing_m = _Key("scene", "spacing_m", "0.05")
    min_gap_deg = _Key("scene", "min_gap_deg", "15")
    room_kind = _Key("scene", "room", "none", str,
                     ok=_one_of("none", "shoebox"))
    _room_dims_m = _Key("scene", "room_dims_m", "6,5,3", items=True)
    _absorption = _Key("scene", "absorption", "0.5",
                       ok=(lambda a: 0.0 <= a <= 1.0, "a value in [0, 1]"))
    _max_order = _Key("scene", "max_order", "2", int, ok=_at_least(0))
    _win_ms = _Key("stft", "win_ms", "32")
    _hop_ms = _Key("stft", "hop_ms", "16")
    theta_count = _Key("grid", "theta_count", "720", int, ok=_at_least(2))
    span_deg = _Key("grid", "span_deg", "360",
                    ok=(lambda s: 0.0 < s <= 360.0, "a value in (0, 360]"))
    sigma_deg = _Key("coding", "sigma_deg", "6", ok=_POSITIVE)
    eps_m_db = _Key("coding", "eps_m_db", "-35")
    coding_kind = _Key("coding", "kind", "mwslc", str, ok=_one_of(*ENCODERS))
    conditioning_theta_counts = _Key("conditioning", "theta_counts",
                                     "90,180,360,720,1440", int, items=True)
    eps_theta = _Key("decode", "eps_theta", "0.1", ok=_OPEN_UNIT)
    delta_theta_deg = _Key("decode", "delta_theta_deg", "6", ok=_POSITIVE)
    min_support_frac = _Key("decode", "min_support_frac", "0.05",
                            ok=(lambda f: 0.0 <= f <= 1.0,
                                "a value in [0, 1]"))
    eps_theta_candidates = _Key(
        "decode", "eps_theta_candidates",
        "0.05,0.1,0.15,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9", items=True,
        ok=_OPEN_UNIT)
    calibration_scene_count = _Key("decode", "calibration_scene_count", "10",
                                   int, ok=_at_least(1))
    # The solver default keeps the light 1e-6 loading; the pipeline default
    # is heavier because plane-wave steering at desk distances self-cancels
    # the target under near-field mismatch otherwise.
    loading_eps = _Key("beamform", "loading_eps", "1e-2", ok=_at_least(0))
    tolerance_deg = _Key("metrics", "tolerance_deg", "10", ok=_at_least(0))
    _learning_rate = _Key("train", "learning_rate", "0.001", ok=_POSITIVE)
    _decay_factor = _Key("train", "decay_factor", "0.63", ok=_OPEN_UNIT)
    _decay_every_epochs = _Key("train", "decay_every_epochs", "10", int,
                               ok=_at_least(1))
    _epochs = _Key("train", "epochs", "100", int, ok=_at_least(1))
    _batch_size = _Key("train", "batch_size", "5", int, ok=_at_least(1))
    _patience = _Key("train", "patience", "10", int, ok=_at_least(1))
    hidden_dim = _Key("train", "hidden_dim", "64", int, ok=_at_least(1))
    _target_kind = _Key("train", "target_kind", "mwslc", str,
                        ok=_one_of("mwsbc", "mwslc"))
    train_scene_count = _Key("train", "scene_count", "8", int, ok=_at_least(1))
    val_scene_count = _Key("train", "val_scene_count", "2", int,
                           ok=_at_least(1))
    estimate_mode = _Key("estimate", "mode", "oracle", str,
                         ok=_one_of("oracle", "corrupt", "model"))
    noise_std = _Key("estimate", "noise_std", "0.0", ok=_at_least(0))
    blur_cells = _Key("estimate", "blur_cells", "0", int, ok=_at_least(0))
    params_path = _Key("estimate", "params_path", "", str)
    # The MGT1 container header stores the seed as a uint32.
    seed = _Key("run", "seed", "0", int,
                ok=(lambda n: 0 <= n <= 0xFFFFFFFF,
                    "an integer in [0, 4294967295]"))

    def list_of(self, section, key, conv=float) -> tuple:
        """Non-empty comma-separated items, each parsed under section.key."""
        items = (s.strip() for s in self.raw[section][key].split(","))
        values = tuple(_parse(section, key, s, conv) for s in items if s)
        if not values:
            raise ConfigError(f"{section}.{key}: expected at least one value")
        return values

    def room_spec(self) -> RoomSpec | None:
        if self.room_kind == "none":
            return None
        dims = self._room_dims_m
        if len(dims) != 3 or not all(d > 0 for d in dims):
            raise ConfigError(f"scene.room_dims_m: expected 3 finite positive "
                              f"values, got {dims}")
        return RoomSpec(dims, self._absorption, self._max_order)

    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry(linear_array(self.channels, self.spacing_m))

    def stft_config(self) -> StftConfig:
        fs = self.sample_rate_hz
        win = int(round(self._win_ms * fs / 1000.0))
        hop = int(round(self._hop_ms * fs / 1000.0))
        try:
            return StftConfig(win, hop)
        except ConfigError as err:
            raise ConfigError(f"stft.win_ms/stft.hop_ms: {err}") from None

    def grid(self) -> SpatialGrid:
        return SpatialGrid(self.theta_count, self.span_deg)

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            target_kind=self._target_kind,
            learning_rate=self._learning_rate,
            decay_factor=self._decay_factor,
            decay_every_epochs=self._decay_every_epochs,
            epochs=self._epochs,
            batch_size=self._batch_size,
            patience=self._patience,
            seed=self.seed,
        )

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


# Built from the declarations above, in their order: {section: {key: default}}.
DEFAULTS: dict = {}
for _key in vars(RunConfig).values():
    if isinstance(_key, _Key):
        DEFAULTS.setdefault(_key.section, {})[_key.key] = _key.default


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Defaults, optionally updated from an INI file and override pairs.

    Args:
        path: INI file; missing file is an error, no file means defaults.
        overrides: {(section, key): value-string} applied last.

    Raises:
        ConfigError: unknown section or key, or a file that is not UTF-8 INI.
    """
    raw = {section: dict(keys) for section, keys in DEFAULTS.items()}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(Path(path).read_text(), source=str(path))
        except (configparser.Error, UnicodeDecodeError) as err:
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
