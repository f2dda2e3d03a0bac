"""Configuration loading, overrides, validation, and hashing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskgrid.config import load_config
from maskgrid.errors import ConfigError
from maskgrid.scene import RoomSpec


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
