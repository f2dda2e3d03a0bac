"""End-to-end command-line runner tests, in process via main()."""

import csv
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskgrid import cli, coding, decode
from maskgrid.cli import main
from maskgrid.config import DEFAULTS, load_config
from maskgrid.container import load_coding, load_params
from maskgrid.signal import TimeSignal, save_wav


def _fast_ini(tmp_path, extra=""):
    """Small scene and grid so every subcommand stays quick."""
    path = tmp_path / "fast.ini"
    path.write_text(
        "[scene]\n"
        "duration_s = 0.5\n"
        "[grid]\n"
        "theta_count = 360\n"
        "[decode]\n"
        "eps_theta = 0.1\n"
        "eps_theta_candidates = 0.05,0.1,0.3\n"
        "calibration_scene_count = 2\n"
        "[conditioning]\n"
        "theta_counts = 90,180\n"
        "[train]\n"
        "epochs = 2\n"
        "batch_size = 1\n"
        "hidden_dim = 8\n"
        "scene_count = 1\n"
        "val_scene_count = 1\n"
        + extra)
    return str(path)


def _read_report(path):
    meta = {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows_start = 0
    for i, line in enumerate(lines):
        if line.startswith("# "):
            key, value = line[2:].split(": ", 1)
            meta[key] = value
        else:
            rows_start = i
            break
    rows = list(csv.DictReader(lines[rows_start:]))
    return meta, rows


class TestSimulate:
    def test_artifacts_and_determinism(self, tmp_path):
        ini = _fast_ini(tmp_path)
        out_a = tmp_path / "a" / "run"
        out_b = tmp_path / "b" / "run"
        assert main(["simulate", "--config", ini, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", ini, "--out", str(out_b)]) == 0
        for name in ("mixture.wav", "src01_image.wav", "src01_dry.wav",
                     "src02_image.wav", "src02_dry.wav", "truth.json"):
            assert (out_a / name).exists()
        assert (out_a / "mixture.wav").read_bytes() == \
            (out_b / "mixture.wav").read_bytes()

    def test_truth_payload(self, tmp_path):
        ini = _fast_ini(tmp_path)
        out = tmp_path / "run"
        main(["simulate", "--config", ini, "--out", str(out)])
        data = json.loads((out / "truth.json").read_text())
        assert data["doas_deg"] == [50.0, 120.0]
        assert data["channels"] == 4
        assert set(data["meta"]) == {"version", "config_hash", "seed"}

    def test_seed_changes_output(self, tmp_path):
        ini = _fast_ini(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", ini, "--out", str(out_a)])
        main(["simulate", "--config", ini, "--seed", "1", "--out", str(out_b)])
        assert (out_a / "mixture.wav").read_bytes() != \
            (out_b / "mixture.wav").read_bytes()


class TestEncodeDecodeChain:
    def test_full_chain_and_report(self, tmp_path):
        ini = _fast_ini(tmp_path)
        out = tmp_path / "run"
        for command in ("simulate", "encode", "decode", "beamform", "eval"):
            assert main([command, "--config", ini, "--out", str(out)]) == 0
        for name in ("masks.bin", "coding.bin", "encode.json", "doas.json",
                     "sampled_masks.bin", "sep01.wav", "sep02.wav",
                     "report.csv"):
            assert (out / name).exists()
        meta, rows = _read_report(out / "report.csv")
        assert set(meta) == {"version", "config_hash", "seed"}
        assert len(rows) == 1
        assert float(rows[0]["doa_mae_deg"]) <= 2.0
        assert float(rows[0]["f1"]) == 1.0

    def test_theta_count_override(self, tmp_path):
        ini = _fast_ini(tmp_path)
        out = tmp_path / "run"
        main(["simulate", "--config", ini, "--out", str(out)])
        assert main(["encode", "--config", ini, "--theta-count", "180",
                     "--out", str(out)]) == 0
        tensor = load_coding(out / "coding.bin")
        assert tensor.grid.theta_count == 180
        data = json.loads((out / "encode.json").read_text())
        assert data["theta_count"] == 180

    def test_decoded_doas_near_truth(self, tmp_path):
        ini = _fast_ini(tmp_path)
        out = tmp_path / "run"
        main(["simulate", "--config", ini, "--out", str(out)])
        main(["encode", "--config", ini, "--out", str(out)])
        main(["decode", "--config", ini, "--out", str(out)])
        data = json.loads((out / "doas.json").read_text())
        centers = sorted(c["center_deg"] for c in data["clusters"])
        assert len(centers) == 2
        assert centers[0] == pytest.approx(50.0, abs=1.0)
        assert centers[1] == pytest.approx(120.0, abs=1.0)

    def test_eps_theta_override_starves_decoder(self, tmp_path):
        # A near-1 threshold filters every frequency-averaged value.
        ini = _fast_ini(tmp_path)
        out = tmp_path / "run"
        main(["simulate", "--config", ini, "--out", str(out)])
        main(["encode", "--config", ini, "--out", str(out)])
        assert main(["decode", "--config", ini, "--eps-theta", "0.95",
                     "--out", str(out)]) == 0
        data = json.loads((out / "doas.json").read_text())
        assert data["clusters"] == []


class TestPipeline:
    def test_single_command_end_to_end(self, tmp_path):
        ini = _fast_ini(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", ini, "--out", str(out)]) == 0
        meta, rows = _read_report(out / "report.csv")
        assert float(rows[0]["doa_mae_deg"]) <= 2.0
        assert float(rows[0]["recall"]) == 1.0

    def test_report_bytes_reproducible(self, tmp_path):
        ini = _fast_ini(tmp_path)
        out_a = tmp_path / "a" / "run"
        out_b = tmp_path / "b" / "run"
        assert main(["pipeline", "--config", ini, "--out", str(out_a)]) == 0
        assert main(["pipeline", "--config", ini, "--out", str(out_b)]) == 0
        assert (out_a / "report.csv").read_bytes() == \
            (out_b / "report.csv").read_bytes()

    def test_json_format(self, tmp_path):
        ini = _fast_ini(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", ini, "--format", "json",
                     "--out", str(out)]) == 0
        data = json.loads((out / "report.json").read_text())
        assert set(data["meta"]) == {"version", "config_hash", "seed"}
        assert len(data["rows"]) == 1

    def test_starved_decoder_is_numeric_error(self, tmp_path):
        ini = _fast_ini(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", ini, "--eps-theta", "0.95",
                     "--out", str(out)]) == 3

    @pytest.mark.parametrize("flags, extra", [
        (["--theta-count", "1"], ""), ([], "[stft]\nwin_ms = 31\n"),
        ([], "[estimate]\nmode = model\n")],
        ids=["theta_count", "win_ms", "model_without_params_path"])
    def test_bad_grid_or_stft_exit_2_before_any_write(self, tmp_path, flags,
                                                       extra):
        out = tmp_path / "run"
        assert main(["pipeline", "--config", _fast_ini(tmp_path, extra),
                     "--out", str(out), *flags]) == 2
        assert not out.exists() or not any(out.iterdir())

    def test_missing_params_file_exit_4_before_any_write(self, tmp_path):
        missing = tmp_path / "missing.bin"
        out = tmp_path / "run"
        ini = _fast_ini(tmp_path, "[estimate]\nmode = model\n"
                                  f"params_path = {missing}\n")
        assert main(["pipeline", "--config", ini, "--out", str(out)]) == 4
        assert not out.exists()

    @pytest.mark.parametrize("doa", ["90", "0", "1e-9"])
    def test_one_speaker_separates(self, tmp_path, doa):
        # The lone speaker's mask fills whole bins, whose interference
        # covariance is 0; those bins fall back to delay-and-sum.
        ini = tmp_path / "one.ini"
        ini.write_text(f"[scene]\nduration_s = 0.5\ndoas_deg = {doa}\n"
                       "[grid]\ntheta_count = 360\n")
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(ini), "--out", str(out)]) == 0
        _, rows = _read_report(out / "report.csv")
        assert float(rows[0]["doa_mae_deg"]) <= 1.0
        assert float(rows[0]["recall"]) == 1.0

    def test_corrupt_mode(self, tmp_path):
        ini = _fast_ini(tmp_path, "[estimate]\nmode = corrupt\n"
                                  "noise_std = 0.02\n")
        out = tmp_path / "run"
        assert main(["pipeline", "--config", ini, "--out", str(out)]) == 0
        _, rows = _read_report(out / "report.csv")
        assert float(rows[0]["recall"]) == 1.0


class TestConditioning:
    def test_rows_and_halving(self, tmp_path):
        ini = _fast_ini(tmp_path)
        out = tmp_path / "run"
        assert main(["conditioning", "--config", ini, "--out", str(out)]) == 0
        meta, rows = _read_report(out / "conditioning.csv")
        assert [r["theta_count"] for r in rows] == ["90", "180"]
        ratio = float(rows[1]["mean_mwsbc"]) / float(rows[0]["mean_mwsbc"])
        assert ratio == pytest.approx(0.5, rel=1e-9)

    def test_json_format(self, tmp_path):
        ini = _fast_ini(tmp_path)
        out = tmp_path / "run"
        assert main(["conditioning", "--config", ini, "--format", "json",
                     "--out", str(out)]) == 0
        data = json.loads((out / "conditioning.json").read_text())
        assert len(data["rows"]) == 2


class TestCalibrate:
    def test_candidate_rows_and_best(self, tmp_path):
        ini = _fast_ini(tmp_path)
        out = tmp_path / "run"
        assert main(["calibrate", "--config", ini, "--out", str(out)]) == 0
        _, rows = _read_report(out / "calibration.csv")
        assert [r["eps_theta"] for r in rows] == ["0.05", "0.1", "0.3"]
        best = json.loads((out / "calibration_best.json").read_text())
        assert best["best_eps_theta"] in (0.05, 0.1, 0.3)
        assert 0.0 <= best["best_f1"] <= 1.0

    @pytest.mark.parametrize("kind", sorted(coding.ENCODERS))
    def test_scene_likelihood_equals_the_full_tensors(self, tmp_path, kind):
        # calibrate encodes blocks of frames; the full tensor's frequency
        # average is the reference, bit for bit.
        cfg = load_config(_fast_ini(tmp_path, f"[coding]\nkind = {kind}\n"))
        likelihood, truth = cli._calibration_scene(cfg, 1)
        _, rendered = cli._varied_scene(cfg, 1)
        _, masks = cli._source_masks(cfg, rendered.source_images)
        full = decode.freq_average(cli._encode(cfg, kind, masks, rendered.truth))
        assert likelihood.grid == full.grid
        assert likelihood.values.tobytes() == full.values.tobytes()
        assert truth.angles_deg.tobytes() == rendered.truth.angles_deg.tobytes()


class TestTrain:
    def test_writes_params_and_history(self, tmp_path):
        ini = _fast_ini(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", ini, "--out", str(out)]) == 0
        params = load_params(out / "params.bin")
        assert params.input_dim == 9
        assert params.hidden_dim == 8
        assert params.output_dim == 360
        _, rows = _read_report(out / "history.csv")
        assert len(rows) == 2
        assert rows[0]["epoch"] == "0"

    def test_weights_beyond_float32_exit_3_before_any_write(self, tmp_path,
                                                            capsys):
        # The float64 weights stay finite, but params.bin would hold inf.
        ini = _fast_ini(tmp_path, "learning_rate = 1e300\n")
        out = tmp_path / "run"
        assert main(["train", "--config", ini, "--theta-count", "90",
                     "--out", str(out)]) == 3
        assert "float32" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_model_mode_uses_trained_params(self, tmp_path):
        ini = _fast_ini(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", ini, "--out", str(out)]) == 0
        cfg_dir = tmp_path / "model_cfg"
        cfg_dir.mkdir()
        model_ini = _fast_ini(
            cfg_dir,
            f"[estimate]\nmode = model\nparams_path = {out / 'params.bin'}\n")
        model_out = tmp_path / "model_run"
        code = main(["pipeline", "--config", model_ini, "--out",
                     str(model_out)])
        # Two epochs of training cannot localize reliably; the run must
        # either complete or fail the no-speakers check, never crash.
        assert code in (0, 3)
        assert load_coding(model_out / "coding.bin").kind == "estimated"

    def test_model_mode_never_encodes(self, tmp_path, monkeypatch):
        ini = _fast_ini(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", ini, "--out", str(out)]) == 0
        cfg_dir = tmp_path / "model_cfg"
        cfg_dir.mkdir()
        model_ini = _fast_ini(
            cfg_dir,
            f"[estimate]\nmode = model\nparams_path = {out / 'params.bin'}\n")

        def no_encoding(*args, **kwargs):
            raise AssertionError("model mode built an oracle coding")

        for kind in list(coding.ENCODERS):
            monkeypatch.setitem(coding.ENCODERS, kind, no_encoding)
        model_out = tmp_path / "model_run"
        code = main(["pipeline", "--config", model_ini, "--out",
                     str(model_out)])
        assert code in (0, 3)
        assert load_coding(model_out / "coding.bin").kind == "estimated"


class TestErrorPaths:
    def test_unknown_config_key_exit_2(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[grid]\ntheta_cnt = 10\n")
        assert main(["simulate", "--config", str(ini),
                     "--out", str(tmp_path / "x")]) == 2

    def test_collision_grid_exit_2(self, tmp_path):
        # 50 and 120 deg collide on a 4-cell grid; the one-hot encoding
        # treats that as an error rather than merging the speakers.
        ini = _fast_ini(tmp_path, "[coding]\nkind = mwsbc\n")
        out = tmp_path / "run"
        main(["simulate", "--config", ini, "--out", str(out)])
        assert main(["encode", "--config", ini, "--theta-count", "4",
                     "--out", str(out)]) == 2

    def test_missing_inputs_exit_4(self, tmp_path):
        ini = _fast_ini(tmp_path)
        assert main(["encode", "--config", ini,
                     "--out", str(tmp_path / "empty")]) == 4

    def test_malformed_coding_header_exit_4(self, tmp_path, capsys):
        # A NaN span in coding.bin is a file fault, not a config error.
        ini = _fast_ini(tmp_path)
        out = tmp_path / "run"
        for command in ("simulate", "encode"):
            assert main([command, "--config", ini, "--out", str(out)]) == 0
        blob = bytearray((out / "coding.bin").read_bytes())
        blob[36:44] = struct.pack("<d", float("nan"))  # after 3 dims
        (out / "coding.bin").write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["decode", "--config", ini, "--out", str(out)]) == 4
        assert "span must be in" in capsys.readouterr().err

    def test_missing_config_file_exit_4(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "absent.ini"),
                     "--out", str(tmp_path / "x")]) == 4

    def test_unknown_train_target_kind_exit_2(self, tmp_path, capsys):
        ini = _fast_ini(tmp_path, "target_kind = slc\n")
        out = tmp_path / "x"
        assert main(["train", "--config", ini, "--out", str(out)]) == 2
        assert "train.target_kind" in capsys.readouterr().err
        assert not (out / "params.bin").exists()

    @pytest.mark.parametrize("count", [0, -3])
    def test_no_calibration_scenes_exit_2(self, tmp_path, capsys, count):
        ini = tmp_path / "none.ini"
        ini.write_text(f"[decode]\ncalibration_scene_count = {count}\n")
        out = tmp_path / "x"
        assert main(["calibrate", "--config", str(ini), "--out", str(out)]) == 2
        assert "decode.calibration_scene_count" in capsys.readouterr().err
        assert not (out / "calibration_best.json").exists()

    @pytest.mark.parametrize("candidates", ["0.1,1.5", "0.1,abc", ","])
    def test_bad_threshold_candidates_exit_2_before_any_scene(
            self, tmp_path, capsys, monkeypatch, candidates):
        import maskgrid.cli as cli

        def no_scenes(*args, **kwargs):
            raise AssertionError("a scene was built before validation")

        monkeypatch.setattr(cli, "_varied_scene", no_scenes)
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[decode]\neps_theta_candidates = {candidates}\n")
        assert main(["calibrate", "--config", str(ini),
                     "--out", str(tmp_path / "x")]) == 2
        assert "decode.eps_theta_candidates" in capsys.readouterr().err

    def test_model_mode_without_params_exit_2(self, tmp_path):
        ini = _fast_ini(tmp_path, "[estimate]\nmode = model\n")
        assert main(["pipeline", "--config", ini,
                     "--out", str(tmp_path / "x")]) == 2


class TestStagedCommandsShareStages:
    def test_beamform_after_starved_decode_exit_3(self, tmp_path, capsys):
        ini = _fast_ini(tmp_path)
        out = tmp_path / "run"
        for command in ("simulate", "encode"):
            assert main([command, "--config", ini, "--out", str(out)]) == 0
        assert main(["decode", "--config", ini, "--eps-theta", "0.95",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["beamform", "--config", ini, "--out", str(out)]) == 3
        assert "numeric error" in capsys.readouterr().err
        assert not list(out.glob("sep*.wav"))

    def test_decode_rewrites_pipeline_artifacts(self, tmp_path):
        ini = _fast_ini(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", ini, "--out", str(out)]) == 0
        names = ("doas.json", "sampled_masks.bin")
        before = {name: (out / name).read_bytes() for name in names}
        _, pipeline_rows = _read_report(out / "report.csv")
        assert main(["decode", "--config", ini, "--out", str(out)]) == 0
        for name in names:
            assert (out / name).read_bytes() == before[name], name
        for command in ("beamform", "eval"):
            assert main([command, "--config", ini, "--out", str(out)]) == 0
        _, eval_rows = _read_report(out / "report.csv")
        # Same DoAs and truth; only the separation scores may differ, since
        # eval reads the float32 WAVs.
        for column in ("doa_mae_deg", "precision", "recall", "f1"):
            assert eval_rows[0][column] == pipeline_rows[0][column]

    def test_eval_ignores_stale_separated_file(self, tmp_path):
        # A sep03.wav left by an earlier 3-speaker run must not enter the
        # permutation search or the common-length cut of a 2-speaker eval.
        ini = _fast_ini(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", ini, "--out", str(out)]) == 0
        assert main(["eval", "--config", ini, "--out", str(out)]) == 0
        clean = (out / "report.csv").read_bytes()
        save_wav(TimeSignal(np.full((1, 400), 0.1), 16000), out / "sep03.wav")
        assert main(["eval", "--config", ini, "--out", str(out)]) == 0
        assert (out / "report.csv").read_bytes() == clean

    def test_beamform_removes_stale_separated_file(self, tmp_path):
        # A 2-speaker beamform over a directory holding sep03.wav from an
        # earlier 3-speaker run leaves only the files its report describes.
        ini = _fast_ini(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", ini, "--out", str(out)]) == 0
        assert main(["beamform", "--config", ini, "--out", str(out)]) == 0
        names = ("sep01.wav", "sep02.wav")
        clean = {name: (out / name).read_bytes() for name in names}
        save_wav(TimeSignal(np.full((1, 400), 0.1), 16000), out / "sep03.wav")
        assert main(["beamform", "--config", ini, "--out", str(out)]) == 0
        assert not (out / "sep03.wav").exists()
        for name in names:
            assert (out / name).read_bytes() == clean[name], name

    def test_eval_missing_separated_file_exit_4(self, tmp_path):
        ini = _fast_ini(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", ini, "--out", str(out)]) == 0
        (out / "sep02.wav").unlink()
        assert main(["eval", "--config", ini, "--out", str(out)]) == 4


# A 90-cell, 1-epoch, 0.5 s training config; the [train] section stays open.
_TRAIN_INI = ("[scene]\nduration_s = 0.5\n[grid]\ntheta_count = 90\n"
              "[train]\nepochs = 1\n")


class TestListConfigKeys:
    @pytest.mark.parametrize("command, text, key", [
        ("simulate", "[scene]\ndistances_m = 2.0,far\n", "scene.distances_m"),
        ("simulate", "[scene]\npitches_hz = 210,low\n", "scene.pitches_hz"),
        ("simulate", "[scene]\nroom = shoebox\nroom_dims_m = 6,wide,3\n",
         "scene.room_dims_m"),
        ("conditioning", "[conditioning]\ntheta_counts = 90,abc\n",
         "conditioning.theta_counts"),
        # Empty cycled lists used to end in a ZeroDivisionError traceback.
        ("simulate", "[scene]\ndistances_m =\n", "scene.distances_m"),
        ("simulate", "[scene]\nsource_kinds = ,\n", "scene.source_kinds"),
        # Room settings that parse but that RoomSpec rejects.
        ("simulate", "[scene]\nroom = shoebox\nroom_dims_m = 6,5\n",
         "scene.room_dims_m"),
        ("simulate", "[scene]\nroom = shoebox\nabsorption = 1.5\n",
         "scene.absorption"),
        ("simulate", "[scene]\nroom = shoebox\nmax_order = -1\n",
         "scene.max_order"),
        # Numbers that numpy, int() or the MGT1 header used to reject.
        ("simulate", "[run]\nseed = -1\n", "run.seed"),
        ("train", "[scene]\nduration_s = 0.5\n[grid]\ntheta_count = 90\n"
         "[train]\nepochs = 1\nhidden_dim = 4\nscene_count = 1\n"
         "val_scene_count = 1\n[run]\nseed = 4294967296\n", "run.seed"),
        ("simulate", "[scene]\nduration_s = nan\n", "scene.duration_s"),
        ("simulate", "[scene]\nspacing_m = nan\n", "scene.spacing_m"),
        ("pipeline", "[coding]\nsigma_deg = nan\n", "coding.sigma_deg"),
        # Counts below 1 that used to train an empty model, end in numpy's
        # or the splitter's message, or fail in the source synthesizer.
        ("train", _TRAIN_INI + "hidden_dim = 0\nscene_count = 1\n"
         "val_scene_count = 1\n", "train.hidden_dim"),
        ("train", _TRAIN_INI + "hidden_dim = -1\nscene_count = 1\n"
         "val_scene_count = 1\n", "train.hidden_dim"),
        ("train", _TRAIN_INI + "hidden_dim = 4\nscene_count = 0\n"
         "val_scene_count = 1\n", "train.scene_count"),
        ("train", _TRAIN_INI + "hidden_dim = 4\nscene_count = 1\n"
         "val_scene_count = 0\n", "train.val_scene_count"),
        ("simulate", "[scene]\nsample_rate_hz = 0\n", "scene.sample_rate_hz"),
        # Ranges that the grid, the STFT framing, TrainConfig or numpy used
        # to reject without naming the key.
        ("pipeline", "[grid]\ntheta_count = 1\n", "grid.theta_count"),
        ("pipeline", "[grid]\nspan_deg = 400\n", "grid.span_deg"),
        ("pipeline", "[stft]\nwin_ms = 31\n", "stft.win_ms"),
        ("pipeline", "[stft]\nhop_ms = 0\n", "stft.hop_ms"),
        ("train", _TRAIN_INI + "learning_rate = 0\n", "train.learning_rate"),
        ("train", _TRAIN_INI + "decay_factor = 1\n", "train.decay_factor"),
        ("train", _TRAIN_INI + "decay_every_epochs = 0\n",
         "train.decay_every_epochs"),
        ("train", _TRAIN_INI.replace("epochs = 1", "epochs = 0"),
         "train.epochs"),
        ("train", _TRAIN_INI + "batch_size = 0\n", "train.batch_size"),
        ("train", _TRAIN_INI + "patience = -1\n", "train.patience"),
        ("simulate", "[scene]\nchannels = -1\n", "scene.channels"),
        ("simulate", "[scene]\nduration_s = 1e-9\n", "scene.duration_s"),
    ], ids=["distances_m", "pitches_hz", "room_dims_m", "theta_counts",
            "empty_distances_m", "empty_source_kinds", "room_dims_m_count",
            "absorption_range", "max_order_negative", "seed_negative",
            "seed_above_uint32", "duration_nan", "spacing_nan", "sigma_nan",
            "hidden_dim_zero", "hidden_dim_negative", "scene_count_zero",
            "val_scene_count_zero", "sample_rate_zero", "theta_count_one",
            "span_above_360", "win_not_divided_by_hop", "hop_zero",
            "learning_rate_zero", "decay_factor_one",
            "decay_every_epochs_zero", "epochs_zero", "batch_size_zero",
            "patience_negative", "channels_negative", "duration_no_sample"])
    def test_bad_list_exit_2_names_key(self, tmp_path, capsys, command,
                                       text, key):
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        assert main([command, "--config", str(ini),
                     "--out", str(tmp_path / "x")]) == 2
        assert key in capsys.readouterr().err


def _simulated(tmp_path):
    """A simulated 0.5 s scene's artifact directory and its config."""
    ini = _fast_ini(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", ini, "--out", str(out)]) == 0
    return ini, out


class TestMalformedInputs:
    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        ini = tmp_path / "latin1.ini"
        ini.write_bytes("[scene]\n# Schätzung\nduration_s = 0.5\n"
                        .encode("latin-1"))
        assert main(["simulate", "--config", str(ini),
                     "--out", str(tmp_path / "x")]) == 2
        assert "latin1.ini" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "{not json", "[]", '{"doas_deg": [400.0], "span_deg": 360}',
        '{"doas_deg": [50.0], "span_deg": "360"}', '{"doas_deg": []}',
        '{"doas_deg": [50.0, NaN], "span_deg": 360}',
        '{"doas_deg": [true], "span_deg": 360}', "\xff\xfe", "[" * 100000],
        ids=["not_json", "list", "angle_outside_span", "span_string",
             "missing_span", "nan_angle", "bool_angle", "not_utf8",
             "deep_nesting"])
    def test_malformed_truth_exit_4(self, tmp_path, capsys, text):
        ini, out = _simulated(tmp_path)
        (out / "truth.json").write_bytes(text.encode("latin-1"))
        capsys.readouterr()
        for command in ("encode", "eval"):
            assert main([command, "--config", ini, "--out", str(out)]) == 4
            assert "truth.json" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "[]", "{not json", '{"clusters": {}, "span_deg": 360}',
        '{"clusters": [{"center_deg": 50.0}], "span_deg": 360}',
        '{"clusters": [{"center_deg": 50.0, "support": 2.5}], '
        '"span_deg": 360}',
        '{"clusters": [{"center_deg": 1e400, "support": 3}], "span_deg": 360}',
        "[" * 100000],
        ids=["list", "not_json", "clusters_object", "missing_support",
             "float_support", "infinite_center", "deep_nesting"])
    def test_malformed_doas_exit_4(self, tmp_path, capsys, text):
        ini = _fast_ini(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", ini, "--out", str(out)]) == 0
        (out / "doas.json").write_text(text)
        capsys.readouterr()
        for command in ("beamform", "eval"):
            assert main([command, "--config", ini, "--out", str(out)]) == 4
            assert "doas.json" in capsys.readouterr().err

    def test_truncated_wav_fmt_chunk_exit_4(self, tmp_path, capsys):
        ini, out = _simulated(tmp_path)
        path = out / "src01_image.wav"
        path.write_bytes(path.read_bytes()[:24])  # 4 of the 16 fmt bytes
        capsys.readouterr()
        assert main(["encode", "--config", ini, "--out", str(out)]) == 4
        assert "fmt chunk too short" in capsys.readouterr().err


# Each key is read by the command below; the others only pass it through.
_KEY_COMMANDS = {("decode", "eps_theta_candidates"): "calibrate",
                 ("decode", "calibration_scene_count"): "calibrate",
                 ("conditioning", "theta_counts"): "conditioning"}
_EDGE_VALUES = ("-1", "0", "1", "2", "0.5", "1e-9", "wide", "none",
                "shoebox", "mwsbc", "corrupt", "model")
# A 0.3 s scene at 90 cells, one calibration scene, a 1-epoch train.
_TINY = {"scene": {"duration_s": "0.3"}, "grid": {"theta_count": "90"},
         "conditioning": {"theta_counts": "90,180"},
         "decode": {"calibration_scene_count": "1",
                    "eps_theta_candidates": "0.1,0.3"},
         "train": {"epochs": "1", "hidden_dim": "4", "scene_count": "1",
                   "val_scene_count": "1", "batch_size": "1"}}


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sweep")


class TestExitCodeContract:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(key=st.sampled_from([(s, k) for s in DEFAULTS for k in DEFAULTS[s]]),
           value=st.sampled_from(_EDGE_VALUES))
    def test_any_edge_value_ends_in_a_documented_exit_code(
            self, sweep_dir, key, value):
        # No exception may escape main: bad input ends in exit 2, 3 or 4.
        section, name = key
        raw = {s: dict(keys) for s, keys in _TINY.items()}
        raw.setdefault(section, {})[name] = value
        ini = sweep_dir / "edge.ini"
        ini.write_text("".join(
            f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for s, keys in raw.items()))
        command = ("train" if section == "train"
                   else _KEY_COMMANDS.get(key, "pipeline"))
        assert main([command, "--config", str(ini),
                     "--out", str(sweep_dir / "out")]) in (0, 2, 3, 4)
