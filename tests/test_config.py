"""Configuration loading, overrides, validation, and hashing."""

import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maskgrid.coding import ENCODERS, SpatialGrid
from maskgrid.config import DEFAULTS, RunConfig, _Key, load_config
from maskgrid.errors import ConfigError
from maskgrid.estimator import TrainConfig
from maskgrid.scene import ArrayGeometry, RoomSpec, linear_array
from maskgrid.stft import StftConfig


class TestDefaults:
    def test_pipeline_constants(self):
        cfg = load_config()
        assert cfg.sigma_deg == 6.0
        assert cfg.delta_theta_deg == 6.0
        assert cfg.eps_m_db == -35.0
        assert cfg.theta_count == 720
        assert cfg.span_deg == 360.0
        assert cfg.loading_eps == pytest.approx(1e-2)
        assert cfg.tolerance_deg == 10.0
        assert cfg.distances_m == (2.0, 2.2)
        assert cfg.doas_deg == (50.0, 120.0)
        assert cfg.seed == 0

    def test_stft_defaults_at_16k(self):
        stft = load_config().stft_config()
        assert stft.win_len_samples == 512
        assert stft.hop_samples == 256

    def test_train_defaults(self):
        cfg = load_config()
        tc = cfg.train_config()
        assert tc.learning_rate == 0.001
        assert tc.decay_factor == 0.63
        assert tc.decay_every_epochs == 10
        assert tc.epochs == 100
        assert tc.batch_size == 5
        assert tc.patience == 10
        assert cfg.hidden_dim == 64

    def test_grid_and_geometry_builders(self):
        cfg = load_config()
        assert cfg.grid().theta_count == 720
        assert cfg.geometry().mic_positions.shape == (4, 3)
        assert cfg.room_spec() is None


class TestFileLoading:
    def test_file_overrides_defaults(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[grid]\ntheta_count = 360\n\n[run]\nseed = 9\n")
        cfg = load_config(ini)
        assert cfg.theta_count == 360
        assert cfg.seed == 9
        # Untouched keys keep their defaults.
        assert cfg.sigma_deg == 6.0

    def test_missing_file_is_error(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "absent.ini")

    def test_unknown_section_named_in_error(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[gird]\ntheta_count = 360\n")
        with pytest.raises(ConfigError, match="gird"):
            load_config(ini)

    def test_unknown_key_named_in_error(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[grid]\ntheta_cnt = 360\n")
        with pytest.raises(ConfigError, match="theta_cnt"):
            load_config(ini)

    def test_malformed_ini_is_config_error(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("theta_count = 360\n")
        with pytest.raises(ConfigError):
            load_config(ini)


class TestOverrides:
    def test_override_wins_over_file(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[grid]\ntheta_count = 360\n")
        cfg = load_config(ini, overrides={("grid", "theta_count"): 180})
        assert cfg.theta_count == 180

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="grid.theta"):
            load_config(overrides={("grid", "theta"): "1"})

    def test_values_coerced_to_strings(self):
        cfg = load_config(overrides={("run", "seed"): 7})
        assert cfg.seed == 7


class TestValidation:
    def test_bad_number_names_key(self):
        cfg = load_config(overrides={("coding", "sigma_deg"): "wide"})
        with pytest.raises(ConfigError, match="sigma_deg"):
            cfg.sigma_deg

    def test_bad_integer_names_key(self):
        cfg = load_config(overrides={("grid", "theta_count"): "many"})
        with pytest.raises(ConfigError, match="theta_count"):
            cfg.theta_count

    def test_coding_kind_restricted(self):
        cfg = load_config(overrides={("coding", "kind"): "slc"})
        with pytest.raises(ConfigError, match="coding.kind"):
            cfg.coding_kind

    @pytest.mark.parametrize("kind", ["mwslc_sum", "slc", "MWSBC", ""])
    def test_train_target_kind_restricted(self, kind):
        cfg = load_config(overrides={("train", "target_kind"): kind})
        with pytest.raises(ConfigError, match="train.target_kind"):
            cfg.train_config()

    @pytest.mark.parametrize("kind", ["mwsbc", "mwslc"])
    def test_train_target_kind_accepted(self, kind):
        cfg = load_config(overrides={("train", "target_kind"): kind})
        assert cfg.train_config().target_kind == kind

    def test_room_kind_restricted(self):
        cfg = load_config(overrides={("scene", "room"): "cave"})
        with pytest.raises(ConfigError, match="scene.room"):
            cfg.room_kind

    def test_estimate_mode_restricted(self):
        cfg = load_config(overrides={("estimate", "mode"): "psychic"})
        with pytest.raises(ConfigError, match="estimate.mode"):
            cfg.estimate_mode

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_calibration_scene_count_at_least_one(self, count):
        cfg = load_config(overrides={("decode", "calibration_scene_count"): count})
        with pytest.raises(ConfigError, match="decode.calibration_scene_count"):
            cfg.calibration_scene_count

    @pytest.mark.parametrize("raw", ["", " , ", "0.1,high", "0.1,0", "1.0",
                                     "-0.2,0.5", "0.5,nan", "inf"])
    def test_eps_theta_candidates_restricted(self, raw):
        cfg = load_config(overrides={("decode", "eps_theta_candidates"): raw})
        with pytest.raises(ConfigError, match="decode.eps_theta_candidates"):
            cfg.eps_theta_candidates

    def test_eps_theta_candidates_accepted(self):
        cfg = load_config(overrides={("decode", "eps_theta_candidates"):
                                     "0.9, 0.05,1e-3"})
        assert cfg.eps_theta_candidates == (0.9, 0.05, 0.001)
        assert load_config().calibration_scene_count == 10

    @pytest.mark.parametrize("section, key, value", [
        ("run", "seed", "-1"), ("run", "seed", "4294967296"),
        ("scene", "duration_s", "nan"), ("scene", "spacing_m", "nan"),
        ("coding", "sigma_deg", "nan"), ("coding", "sigma_deg", "-inf"),
        ("train", "hidden_dim", "0"), ("train", "hidden_dim", "-1"),
        ("train", "val_scene_count", "0"), ("scene", "sample_rate_hz", "0"),
        ("beamform", "loading_eps", "-1"),
    ])
    def test_out_of_range_number_names_key(self, section, key, value):
        cfg = load_config(overrides={(section, key): value})
        with pytest.raises(ConfigError, match=f"^{section}.{key}: expected "):
            getattr(cfg, key)

    def test_seed_bounds_accepted(self):
        for seed in (0, 4294967295):
            assert load_config(overrides={("run", "seed"): seed}).seed == seed

    def test_shoebox_room_spec(self):
        cfg = load_config(overrides={("scene", "room"): "shoebox"})
        room = cfg.room_spec()
        assert tuple(room.dimensions_m) == (6.0, 5.0, 3.0)
        assert room.max_order == 2


class TestHash:
    def test_stable_across_loads(self):
        assert load_config().hash == load_config().hash

    def test_sensitive_to_any_value(self):
        base = load_config()
        changed = load_config(overrides={("run", "seed"): 1})
        assert base.hash != changed.hash
        assert len(base.hash) == 12

    def test_lines_sorted_and_complete(self):
        cfg = load_config()
        lines = cfg.lines()
        assert lines == sorted(lines)
        assert "grid.theta_count=720" in lines
        total_keys = sum(len(v) for v in cfg.raw.values())
        assert len(lines) == total_keys


# (section, key, item type) of every comma-separated config value.
LIST_KEYS = [("scene", "doas_deg", float), ("scene", "distances_m", float),
             ("scene", "source_kinds", str), ("scene", "pitches_hz", float),
             ("scene", "room_dims_m", float),
             ("conditioning", "theta_counts", int),
             ("decode", "eps_theta_candidates", float)]


class TestListKeys:
    @pytest.mark.parametrize("read, key", [
        (lambda cfg: cfg.doas_deg, "scene.doas_deg"),
        (lambda cfg: cfg.distances_m, "scene.distances_m"),
        (lambda cfg: cfg.pitches_hz, "scene.pitches_hz"),
        (lambda cfg: cfg.room_spec(), "scene.room_dims_m"),
        (lambda cfg: cfg.conditioning_theta_counts, "conditioning.theta_counts"),
    ], ids=["doas_deg", "distances_m", "pitches_hz", "room_dims_m",
            "theta_counts"])
    def test_bad_item_names_key(self, read, key):
        section, name = key.split(".")
        cfg = load_config(overrides={(section, name): "1, oops",
                                     ("scene", "room"): "shoebox"})
        with pytest.raises(ConfigError, match=f"{key}: expected .* 'oops'"):
            read(cfg)

    @pytest.mark.parametrize("section, key, conv", LIST_KEYS)
    def test_empty_list_names_key(self, section, key, conv):
        cfg = load_config(overrides={(section, key): " , "})
        with pytest.raises(ConfigError, match=f"{section}.{key}: expected at "
                                              "least one value"):
            cfg.list_of(section, key, conv)

    def test_items_stripped_and_blanks_dropped(self):
        cfg = load_config(overrides={("conditioning", "theta_counts"):
                                     " 90, ,180 ,"})
        assert cfg.conditioning_theta_counts == (90, 180)
        assert load_config().source_kinds == ("harmonic-complex",
                                              "modulated-noise")

    @settings(max_examples=150, deadline=None)
    @given(key=st.sampled_from(LIST_KEYS),
           items=st.lists(st.one_of(st.text(max_size=6),
                                    st.integers().map(str),
                                    st.floats().map(repr)), max_size=4))
    def test_any_value_parses_or_names_key(self, key, items):
        section, name, conv = key
        raw = ",".join(items)
        cfg = load_config(overrides={(section, name): raw})
        try:
            values = cfg.list_of(section, name, conv)
        except ConfigError as err:
            assert str(err).startswith(f"{section}.{name}: ")
        else:
            assert len(values) == sum(1 for s in raw.split(",") if s.strip())
            assert all(type(v) is conv for v in values)


class TestRoomKeys:
    @pytest.mark.parametrize("key, value", [
        ("room_dims_m", "6,5"), ("room_dims_m", "6,0,3"),
        ("room_dims_m", "6,nan,3"), ("room_dims_m", "inf,5,3"),
        ("absorption", "1.5"), ("absorption", "-0.1"), ("absorption", "nan"),
        ("max_order", "-1"),
    ])
    def test_out_of_range_names_key(self, key, value):
        cfg = load_config(overrides={("scene", "room"): "shoebox",
                                     ("scene", key): value})
        with pytest.raises(ConfigError) as info:
            cfg.room_spec()
        assert str(info.value).startswith(f"scene.{key}: expected ")

    def test_no_room_skips_room_keys(self):
        cfg = load_config(overrides={("scene", "absorption"): "1.5"})
        assert cfg.room_spec() is None

    def test_room_spec_keeps_its_own_checks(self):
        for kwargs in ({"dimensions_m": (6.0, 5.0)}, {"absorption": 1.5},
                       {"max_order": -1}):
            with pytest.raises(ConfigError):
                RoomSpec(**kwargs)


class TestDeclarations:
    def test_one_declaration_per_key(self):
        keys = [(k.section, k.key) for k in vars(RunConfig).values()
                if isinstance(k, _Key)]
        assert len(keys) == len(set(keys)) == 43
        assert [(s, k) for s in DEFAULTS for k in DEFAULTS[s]] == keys

    def test_readme_table_lists_every_key(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        table = readme.read_text().split("\n## Configuration\n")[1]
        table = table.split("\n## ")[0]
        listed = {f"{section}.{key}" for section, keys
                  in re.findall(r"^\| `\[(\w+)\]` \|(.*)$", table, re.M)
                  for key in re.findall(r"`(\w+)=", keys)}
        assert listed == {f"{s}.{k}" for s in DEFAULTS for k in DEFAULTS[s]}


# The former DEFAULTS table and RunConfig, verbatim but for their names:
# the oracle for one declaration per key.

_EXPECTED = {float: "a number", int: "an integer"}


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


OLD_DEFAULTS = {
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


@dataclass(frozen=True)
class OldRunConfig:
    """Typed view of one effective configuration."""

    raw: dict

    def _get(self, section: str, key: str) -> str:
        return self.raw[section][key]

    def float_of(self, section, key):
        return _parse(section, key, self._get(section, key), float)

    def int_of(self, section, key):
        return _parse(section, key, self._get(section, key), int)

    def list_of(self, section, key, conv=float) -> tuple:
        """Non-empty comma-separated items, each parsed under section.key."""
        items = (s.strip() for s in self._get(section, key).split(","))
        values = tuple(_parse(section, key, s, conv) for s in items if s)
        if not values:
            raise ConfigError(f"{section}.{key}: expected at least one value")
        return values

    # scene
    @property
    def sample_rate_hz(self) -> int:
        return self.int_of("scene", "sample_rate_hz")

    @property
    def duration_s(self) -> float:
        return self.float_of("scene", "duration_s")

    @property
    def doas_deg(self) -> tuple:
        return self.list_of("scene", "doas_deg")

    @property
    def distances_m(self) -> tuple:
        return self.list_of("scene", "distances_m")

    @property
    def source_kinds(self) -> tuple:
        return self.list_of("scene", "source_kinds", str)

    @property
    def pitches_hz(self) -> tuple:
        return self.list_of("scene", "pitches_hz")

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
        dims = self.list_of("scene", "room_dims_m")
        absorption = self.float_of("scene", "absorption")
        max_order = self.int_of("scene", "max_order")
        if len(dims) != 3 or not all(0 < d < math.inf for d in dims):
            raise ConfigError(f"scene.room_dims_m: expected 3 finite positive "
                              f"values, got {dims}")
        if not 0.0 <= absorption <= 1.0:
            raise ConfigError(f"scene.absorption: expected a value in [0, 1], "
                              f"got {absorption}")
        if max_order < 0:
            raise ConfigError(f"scene.max_order: expected at least 0, got "
                              f"{max_order}")
        return RoomSpec(dims, absorption, max_order)

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
        return self.list_of("conditioning", "theta_counts", int)

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
        values = self.list_of(section, key)
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
        # The MGT1 container header stores the seed as a uint32.
        seed = self.int_of("run", "seed")
        if not 0 <= seed <= 0xFFFFFFFF:
            raise ConfigError(f"run.seed: expected an integer in "
                              f"[0, 4294967295], got {seed}")
        return seed

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


OLD_KEYS = [(section, key) for section in OLD_DEFAULTS
            for key in OLD_DEFAULTS[section]]
# Keys that now stop values below 1 by name; the former config passed them
# on to a later failure that named no key, or to none at all.
AT_LEAST_1 = {("scene", "sample_rate_hz"), ("train", "hidden_dim"),
              ("train", "scene_count"), ("train", "val_scene_count")}
# Keys whose range is now checked by name; the former config rejected the
# same values only in the builder that reads them, naming no key.
NAMED_BY_BUILDER = {
    ("scene", "channels"): "geometry", ("grid", "theta_count"): "grid",
    ("grid", "span_deg"): "grid",
    **{("train", name): "train_config" for name in (
        "learning_rate", "decay_factor", "decay_every_epochs", "epochs",
        "batch_size", "patience")}}
# Keys whose range is now checked by name when read; the former config
# passed bad values on to the encoders, the decoder or the corrupter, which
# rejected them naming no key and only after pipeline had written its first
# artifacts, or ran on with them (a negative tolerance, a support fraction
# above 1).
RANGED = {("coding", "sigma_deg"): (lambda v: v > 0.0, "a positive number"),
          ("decode", "eps_theta"): (lambda v: 0.0 < v < 1.0,
                                    "a value in (0, 1)"),
          ("decode", "delta_theta_deg"): (lambda v: v > 0.0,
                                          "a positive number"),
          ("decode", "min_support_frac"): (lambda v: 0.0 <= v <= 1.0,
                                           "a value in [0, 1]"),
          ("metrics", "tolerance_deg"): (lambda v: v >= 0, "at least 0"),
          ("estimate", "noise_std"): (lambda v: v >= 0, "at least 0"),
          ("estimate", "blur_cells"): (lambda v: v >= 0, "at least 0")}
# Keys that stft_config() turns into samples; its errors now name the keys.
STFT_KEYS = {("scene", "sample_rate_hz"), ("stft", "win_ms"),
             ("stft", "hop_ms")}
_SMALL_INT = st.integers(-10**4, 10**4).map(str)
_NEAR_0 = st.integers(-2, 2).map(str)  # the bounds checks sit at 0 and 1
_SMALL_FLOAT = st.floats(-1e4, 1e4).map(repr)


def _small(text):
    """No draw may size an array (channels, cells) past 10**4."""
    try:
        return abs(int(text)) <= 10**4
    except ValueError:
        return True


_WORDS = st.sampled_from(["", " , ", "nan", "-inf", "1e400", "wide", "none",
                          "shoebox", "cave", "mwsbc", "mwslc", "mwslc_sum",
                          "oracle", "corrupt", "model"])
VALUES = st.one_of(
    _NEAR_0, _SMALL_INT, _SMALL_FLOAT, _WORDS,
    _WORDS.map(lambda word: f" {word} "),
    st.lists(_NEAR_0 | _SMALL_INT | _SMALL_FLOAT, min_size=1,
             max_size=4).map(",".join),
    st.text(max_size=6).filter(_small))


def _public(cfg):
    return {name for name in dir(cfg) if not name.startswith("_")}


def _outcome(cfg, name):
    try:
        value = getattr(cfg, name)
        if callable(value):
            value = value()
    except Exception as err:  # any raise must match, type and message
        return "raises", type(err), str(err)
    if isinstance(value, ArrayGeometry):
        value = (value.mic_positions.tolist(), value.reference_mic,
                 value.speed_of_sound)
    return "value", value


def _allowed(key, value, old, new):
    """The intended differences from the former config."""
    section, name = key
    if key in STFT_KEYS and old[:2] == ("raises", ConfigError):
        if new == ("raises", ConfigError, "stft.win_ms/stft.hop_ms: " + old[2]):
            return True
    if key in NAMED_BY_BUILDER:
        raw = {s: dict(keys) for s, keys in OLD_DEFAULTS.items()}
        raw[section][name] = value
        rejected = _outcome(OldRunConfig(raw), NAMED_BY_BUILDER[key])
        return (rejected[0] == "raises" and new[:2] == ("raises", ConfigError)
                and new[2].startswith(f"{section}.{name}: "))
    if key == ("decode", "eps_theta_candidates"):
        prefix = "decode.eps_theta_candidates: "
        return (old[:2] == new[:2] == ("raises", ConfigError)
                and old[2].startswith(prefix) and new[2].startswith(prefix))
    if key == ("beamform", "loading_eps"):
        return old[0] == "value" and old[1] < 0.0 and new == (
            "raises", ConfigError,
            f"beamform.loading_eps: expected at least 0, got {old[1]!r}")
    if key in RANGED:
        accepts, expected = RANGED[key]
        return old[0] == "value" and not accepts(old[1]) and new == (
            "raises", ConfigError,
            f"{section}.{name}: expected {expected}, got {old[1]!r}")
    if key in AT_LEAST_1:
        try:
            count = int(value)
        except ValueError:
            return False
        return count < 1 and new == (
            "raises", ConfigError,
            f"{section}.{name}: expected at least 1, got {count}")
    return False


class TestMatchesFormerConfig:
    def test_defaults_table(self):
        assert DEFAULTS == OLD_DEFAULTS
        assert OLD_KEYS == [(s, k) for s in DEFAULTS for k in DEFAULTS[s]]
        assert load_config().hash == OldRunConfig(OLD_DEFAULTS).hash

    def test_public_surface(self):
        assert _public(load_config()) == (_public(OldRunConfig(OLD_DEFAULTS))
                                          - {"float_of", "int_of"})

    @pytest.mark.parametrize("key", OLD_KEYS, ids=".".join)
    @settings(max_examples=60, deadline=None)
    @given(value=VALUES, shoebox=st.booleans())
    @example("-1", True)
    @example("0", True)
    @example("1.0", True)
    @example("6,0,3", True)
    @example("0.5,1", False)
    def test_any_one_override_reads_the_same(self, key, value, shoebox):
        overrides = {("scene", "room"): "shoebox"} if shoebox else {}
        overrides[key] = value
        raw = {section: dict(keys) for section, keys in OLD_DEFAULTS.items()}
        for (section, name), text in overrides.items():
            raw[section][name] = text
        old, new = OldRunConfig(raw), load_config(overrides=overrides)
        assert new.raw == raw
        for name in sorted(_public(old) - {"float_of", "int_of", "list_of"}):
            before, after = _outcome(old, name), _outcome(new, name)
            assert before == after or _allowed(key, value, before, after), name
