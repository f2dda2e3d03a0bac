"""End-to-end command-line runner tests, in process via main()."""

import csv
import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskgrid import cli, coding, container, decode, estimator, stft
from maskgrid.cli import main
from maskgrid.config import DEFAULTS, load_config
from maskgrid.container import (CodingFile, load_params, read_array,
                                save_params, write_array)
from maskgrid.signal import TimeSignal, load_wav, save_wav
from maskgrid.stft import analyze


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
        assert CodingFile(out / "coding.bin").grid.theta_count == 180
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
        ([], "[stft]\nhop_ms = 32\n"), ([], "[estimate]\nmode = model\n"),
        ([], "[coding]\neps_m_db = abc\n")],
        ids=["theta_count", "win_ms", "hop_equal_to_win",
             "model_without_params_path", "eps_m_db"])
    def test_bad_grid_or_stft_exit_2_before_any_write(self, tmp_path, flags,
                                                       extra):
        out = tmp_path / "run"
        assert main(["pipeline", "--config", _fast_ini(tmp_path, extra),
                     "--out", str(out), *flags]) == 2
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("key, value", [
        ("stft.hop_ms", "32"), ("decode.eps_theta", "1.0"),
        ("decode.eps_theta", "0"), ("decode.delta_theta_deg", "0"),
        ("coding.sigma_deg", "0"), ("coding.sigma_deg", "-6"),
        ("coding.kind", "mwsbcx"), ("estimate.noise_std", "-0.1"),
        ("estimate.blur_cells", "-1"), ("decode.min_support_frac", "-0.1"),
        ("decode.min_support_frac", "2"), ("beamform.loading_eps", "-1"),
        ("metrics.tolerance_deg", "-1")])
    def test_bad_range_exit_2_names_key_before_any_write(self, tmp_path,
                                                         capsys, key, value):
        # These used to be caught by the encoder, the decoder, the corrupter
        # or the beamformer, some naming no key, after pipeline had written
        # the scene and coding.bin; a hop equal to the window used to run
        # and score the broken output, and a negative tolerance or a
        # support fraction above 1 used to run to the end or exit 3.
        section, name = key.split(".")
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[scene]\nduration_s = 0.5\n[{section}]\n"
                       f"{name} = {value}\n")
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(ini), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dims, message", [
        ((9, 8, 720), "output dim"), ((7, 8, 360), "feature dim")],
        ids=["output_dim", "input_dim"])
    def test_params_shape_mismatch_exit_2_before_any_write(
            self, tmp_path, capsys, dims, message):
        # The grid has 360 cells and the 4-mic array 2 * 4 + 1 features.
        params = tmp_path / "params.bin"
        save_params(params, estimator.init_params(*dims))
        out = tmp_path / "run"
        ini = _fast_ini(tmp_path, "[estimate]\nmode = model\n"
                                  f"params_path = {params}\n")
        assert main(["pipeline", "--config", ini, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

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


class TestOneEncodeStage:
    """Staged encode and pipeline run the same encode stage."""

    @pytest.mark.parametrize("extra", [
        "", "[estimate]\nmode = corrupt\nnoise_std = 0.15\n",
        "[coding]\nkind = mwsbc\n"], ids=["oracle", "corrupt", "mwsbc"])
    def test_pipeline_encode_json_equals_staged(self, tmp_path, extra):
        ini = _fast_ini(tmp_path, extra)
        staged, piped = tmp_path / "staged", tmp_path / "piped"
        for command in ("simulate", "encode"):
            assert main([command, "--config", ini, "--out", str(staged)]) == 0
        assert main(["pipeline", "--config", ini, "--out", str(piped)]) == 0
        assert (piped / "encode.json").read_bytes() == \
            (staged / "encode.json").read_bytes()

    def test_staged_corrupt_is_corrupt_oracle_of_the_wavs(self, tmp_path):
        ini = _fast_ini(tmp_path, "[estimate]\nmode = corrupt\n"
                                  "noise_std = 0.15\nblur_cells = 2\n")
        out = tmp_path / "run"
        for command in ("simulate", "encode"):
            assert main([command, "--config", ini, "--out", str(out)]) == 0
        cfg = load_config(ini)
        images = [analyze(load_wav(out / f"src{i:02d}_image.wav").channel(0),
                          cfg.stft_config()) for i in (1, 2)]
        masks = coding.compute_irm(images, cfg.eps_m_db)
        truth = coding.DoaSet(np.array([50.0, 120.0]))
        want = estimator.corrupt_oracle(
            coding.encode_mwslc(masks, truth, cfg.grid(), cfg.sigma_deg),
            0.15, 2, cfg.seed)
        kind, got, _, _, _ = read_array(out / "coding.bin")
        assert kind == "coding:mwslc"
        assert got.tobytes() == \
            want.values.astype(np.float32).astype(np.float64).tobytes()

    def test_staged_model_mode_never_encodes(self, tmp_path, monkeypatch):
        params = tmp_path / "params.bin"  # untrained, 8 hidden units
        save_params(params, estimator.init_params(9, 8, 360, seed=3,
                                                  output_bias=-1.0))
        ini = _fast_ini(tmp_path, "[estimate]\nmode = model\n"
                                  f"params_path = {params}\n")
        out = tmp_path / "run"
        assert main(["simulate", "--config", ini, "--out", str(out)]) == 0

        def no_encoding(*args, **kwargs):
            raise AssertionError("model mode built an oracle coding")

        # Every oracle coding, a full encode or a FrameBlocks frame, is
        # a coding.fold.
        monkeypatch.setattr(coding, "fold", no_encoding)
        assert main(["encode", "--config", ini, "--out", str(out)]) == 0
        cfg = load_config(ini)
        want = estimator.forward(
            load_params(params),
            estimator.features(analyze(load_wav(out / "mixture.wav"),
                                       cfg.stft_config())), cfg.grid())
        kind, got, _, _, _ = read_array(out / "coding.bin")
        assert kind == "coding:estimated"
        assert got.tobytes() == \
            want.values.astype(np.float32).astype(np.float64).tobytes()
        assert json.loads((out / "encode.json").read_text())["kind"] == \
            "estimated"

    @pytest.mark.parametrize("params_line, code", [
        ("", 2), ("params_path = {missing}\n", 4)],
        ids=["no_params_path", "missing_params_file"])
    def test_staged_model_mode_bad_params_writes_nothing(
            self, tmp_path, params_line, code):
        ini = _fast_ini(tmp_path, "[estimate]\nmode = model\n" +
                        params_line.format(missing=tmp_path / "missing.bin"))
        out = tmp_path / "run"
        assert main(["simulate", "--config", ini, "--out", str(out)]) == 0
        assert main(["encode", "--config", ini, "--out", str(out)]) == code
        for name in ("masks.bin", "coding.bin", "encode.json"):
            assert not (out / name).exists(), name


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
        # calibrate averages the coding over frequency in closed form; the
        # full tensor's frequency average is the reference, bit for bit for
        # mwsbc and to 1e-12 relative for the Gaussian kinds.
        cfg = load_config(_fast_ini(tmp_path, f"[coding]\nkind = {kind}\n"))
        likelihood, truth = cli._calibration_scene(cfg, 1)
        _, rendered = cli._varied_scene(cfg, 1)
        _, masks = cli._source_masks(cfg, rendered.source_images)
        full = decode.freq_average(cli._encode(cfg, kind, masks, rendered.truth))
        assert likelihood.grid == full.grid
        if kind == "mwsbc":
            assert likelihood.values.tobytes() == full.values.tobytes()
        else:
            np.testing.assert_allclose(likelihood.values, full.values,
                                       rtol=1e-12, atol=1e-300)
        assert truth.angles_deg.tobytes() == rendered.truth.angles_deg.tobytes()

    def test_never_encodes(self, tmp_path, monkeypatch):
        def no_encoding(*args, **kwargs):
            raise AssertionError("calibrate encoded an oracle coding")

        # Every oracle coding, a full encode or a FrameBlocks frame, is
        # a coding.fold.
        monkeypatch.setattr(coding, "fold", no_encoding)
        assert main(["calibrate", "--config", _fast_ini(tmp_path), "--out",
                     str(tmp_path / "run")]) == 0

    @pytest.mark.parametrize("kind", sorted(coding.ENCODERS))
    def test_outputs_equal_those_of_the_encoded_blocks(self, tmp_path,
                                                       monkeypatch, kind):
        ini = _fast_ini(tmp_path, f"[coding]\nkind = {kind}\n")
        assert main(["calibrate", "--config", ini, "--out",
                     str(tmp_path / "closed")]) == 0
        monkeypatch.setattr(coding.FrameBlocks, "mean_over_bins",
                            lambda blocks: decode.freq_average(blocks).values)
        assert main(["calibrate", "--config", ini, "--out",
                     str(tmp_path / "blocks")]) == 0
        for name in ("calibration.csv", "calibration_best.json"):
            assert (tmp_path / "closed" / name).read_bytes() == \
                (tmp_path / "blocks" / name).read_bytes()


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
        assert CodingFile(model_out / "coding.bin").kind == "estimated"

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

        # Every oracle coding, a full encode or a FrameBlocks frame, is
        # a coding.fold.
        monkeypatch.setattr(coding, "fold", no_encoding)
        model_out = tmp_path / "model_run"
        code = main(["pipeline", "--config", model_ini, "--out",
                     str(model_out)])
        assert code in (0, 3)
        assert CodingFile(model_out / "coding.bin").kind == "estimated"


def _former_cmd_train(cfg, args) -> int:
    """cmd_train as it was when it held every scene's full target tensor,
    kept verbatim as the oracle of the block-encoded targets."""
    train_cfg, hidden_dim = cfg.train_config(), cfg.hidden_dim
    pairs = []
    total = cfg.train_scene_count + cfg.val_scene_count
    for i in range(total):
        _, rendered = cli._varied_scene(cfg, i)
        _, masks = cli._source_masks(cfg, rendered.source_images)
        target = cli._encode(cfg, train_cfg.target_kind, masks, rendered.truth)
        mixture_spec = stft.analyze(rendered.mixture, cfg.stft_config())
        pairs.append((estimator.features(mixture_spec), target))
    split = cfg.train_scene_count
    params, history = estimator.train(pairs[:split], pairs[split:], train_cfg,
                                      hidden_dim=hidden_dim)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    container.save_params(out_dir / "params.bin", params)
    cli._write_csv(out_dir / "history.csv", history.as_table(),
                   estimator.TrainHistory.HISTORY_COLUMNS, cli._meta(cfg))
    print(f"{len(history.epochs)} epochs (best {history.best_epoch}, "
          f"early stop {history.stopped_early}) -> {out_dir}")
    return 0


def _short_train_ini(tmp_path, train_scenes, val_scenes, extra="",
                     epochs=1):
    """0.3 s scenes at the default 720 cells, 19 frames each."""
    path = tmp_path / f"train_{train_scenes}_{val_scenes}.ini"
    path.write_text(f"[scene]\nduration_s = 0.3\n[train]\nepochs = {epochs}\n"
                    f"hidden_dim = 4\nbatch_size = 2\nscene_count = "
                    f"{train_scenes}\nval_scene_count = {val_scenes}\n"
                    + extra)
    return str(path)


class TestTrainTargetsByBlock:
    """cmd_train keeps each scene's masks and truth, never its target."""

    @pytest.mark.parametrize("kind", ["mwslc", "mwsbc"])
    @pytest.mark.parametrize("seed", ["11", "12345"])
    def test_outputs_match_the_former_full_targets(self, tmp_path, monkeypatch,
                                                   kind, seed):
        ini = _short_train_ini(tmp_path, 2, 1, f"target_kind = {kind}\n"
                               "[grid]\ntheta_count = 90\n", epochs=2)
        new, old = tmp_path / "new", tmp_path / "old"
        assert main(["train", "--config", ini, "--seed", seed,
                     "--out", str(new)]) == 0
        monkeypatch.setitem(cli.COMMANDS, "train", _former_cmd_train)
        assert main(["train", "--config", ini, "--seed", seed,
                     "--out", str(old)]) == 0
        for name in ("params.bin", "history.csv"):
            assert (new / name).read_bytes() == (old / name).read_bytes(), name

    def test_peak_memory_does_not_grow_with_the_scene_count(self, tmp_path):
        # One 19 x 257 x 720 float64 tensor is 28 MiB: the former code held
        # one per scene, so 3 more scenes added 84 MiB to a ~60 MiB peak.
        # The peak is about 10 MB, and 3 more scenes' features and masks
        # add about 1.3 MB to it: the bound is well under one tensor.
        peaks = []
        for scenes in ((2, 1), (4, 2)):
            tracemalloc.start()
            try:
                assert main(["train", "--config",
                             _short_train_ini(tmp_path, *scenes),
                             "--out", str(tmp_path / "run")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 4 * 2**20, peaks

    def test_mwsbc_collision_exits_2_before_any_training(self, tmp_path,
                                                          monkeypatch, capsys):
        # Two cells, 180 deg wide: the varied scenes' speakers collide.
        def no_training(*args, **kwargs):
            raise AssertionError("trained despite a colliding target")

        monkeypatch.setattr(estimator, "train", no_training)
        ini = _short_train_ini(tmp_path, 2, 1, "target_kind = mwsbc\n"
                               "[grid]\ntheta_count = 2\n")
        out = tmp_path / "run"
        assert main(["train", "--config", ini, "--out", str(out)]) == 2
        assert "share a cell" in capsys.readouterr().err
        assert not out.exists()


def _former_encode_stage(cfg, mixture, images, truth, params, out_dir,
                         average=False):
    """_encode_stage as it was when every mode built the full tensor, kept
    verbatim, but for the former save_coding (write_array of the whole
    tensor) written out, as the oracle of the streamed stage. It returns
    no likelihood, so pipeline's `average` is ignored."""
    mixture_spec = stft.analyze(mixture, cfg.stft_config())
    _, masks = cli._source_masks(cfg, images)
    if params is not None:
        tensor = estimator.forward(params, estimator.features(mixture_spec),
                                   cfg.grid())
    else:
        tensor = cli._encode(cfg, cfg.coding_kind, masks, truth)
        if cfg.estimate_mode == "corrupt":
            tensor = estimator.corrupt_oracle(tensor, cfg.noise_std,
                                              cfg.blur_cells, cfg.seed)
    record = {"kind": tensor.kind, "theta_count": tensor.grid.theta_count,
              "span_deg": tensor.grid.span_deg, "sigma_deg": cfg.sigma_deg,
              "eps_m_db": cfg.eps_m_db}
    container.save_masks(out_dir / "masks.bin", masks, truth.span_deg)
    container.write_array(out_dir / "coding.bin", f"coding:{tensor.kind}",
                          tensor.values, span_deg=tensor.grid.span_deg,
                          theta_count=tensor.grid.theta_count)
    cli._write_json(out_dir / "encode.json", record, cli._meta(cfg))
    return mixture_spec, tensor, None


def _former_decode(cfg, tensor, _likelihood, out_dir):
    """_decode as it was, with the former full-tensor freq_average and
    sample_masks written out."""
    fl = decode.FrameLikelihood(tensor.values.mean(axis=1), tensor.grid)
    detections = decode.peak_search(fl, cfg.eps_theta, cfg.delta_theta_deg)
    estimates = decode.cluster_doas(detections, cfg.sigma_deg,
                                    tensor.grid.span_deg, cfg.min_support_frac)
    cells = [tensor.grid.index_of(c.center_deg) for c in estimates.clusters]
    sampled = coding.MaskSet(
        np.stack([tensor.values[:, :, g] for g in cells]) if cells
        else np.zeros((0, tensor.frames, tensor.bins)))
    cli._write_json(out_dir / "doas.json", {
        "clusters": [{"center_deg": float(c.center_deg),
                      "support": int(c.support)} for c in estimates.clusters],
        "span_deg": estimates.span_deg,
    }, cli._meta(cfg))
    container.save_masks(out_dir / "sampled_masks.bin", sampled,
                         estimates.span_deg)
    return estimates, sampled


def _former_cmd_decode(cfg, args) -> int:
    """cmd_decode as it was, with the former whole-file load_coding."""
    out_dir = Path(args.out)
    kind, arr, span, theta, _ = container.read_array(out_dir / "coding.bin")
    tensor = coding.CodingTensor(arr, coding.SpatialGrid(theta, span),
                                 kind[7:])
    estimates, _ = _former_decode(cfg, tensor, None, out_dir)
    angles = ", ".join(f"{c.center_deg:.1f}" for c in estimates.clusters)
    print(f"{estimates.count} speakers at [{angles}] deg -> {out_dir}")
    return 0


def _three_pass_encode_stage(cfg, mixture, images, truth, params, out_dir,
                             average=False):
    """_encode_stage as it was when coding.bin was written in a pass of its
    own, kept verbatim: decoding then encoded each frame twice more. It
    returns no likelihood, so pipeline's `average` is ignored."""
    mixture_spec = stft.analyze(mixture, cfg.stft_config())
    _, masks = cli._source_masks(cfg, images)
    if params is not None:
        coded = estimator.forward(params, estimator.features(mixture_spec),
                                  cfg.grid())
    elif cfg.estimate_mode == "corrupt":
        coded = estimator.corrupt_oracle(
            cli._encode(cfg, cfg.coding_kind, masks, truth), cfg.noise_std,
            cfg.blur_cells, cfg.seed)
    else:
        coded = coding.FrameBlocks(cfg.coding_kind, masks, truth, cfg.grid(),
                                   cfg.sigma_deg)
    record = {"kind": coded.kind, "theta_count": coded.grid.theta_count,
              "span_deg": coded.grid.span_deg, "sigma_deg": cfg.sigma_deg,
              "eps_m_db": cfg.eps_m_db}
    container.save_coding(out_dir / "coding.bin", coded)
    container.save_masks(out_dir / "masks.bin", masks, truth.span_deg)
    cli._write_json(out_dir / "encode.json", record, cli._meta(cfg))
    return mixture_spec, coded, None


def _three_pass_decode(cfg, coded, _likelihood, out_dir):
    """_decode as it was, averaging in one pass over the frames and, with
    the former sample_masks written out, gathering columns in another."""
    fl = decode.freq_average(coded)
    detections = decode.peak_search(fl, cfg.eps_theta, cfg.delta_theta_deg)
    estimates = decode.cluster_doas(detections, cfg.sigma_deg,
                                    coded.grid.span_deg, cfg.min_support_frac)
    cells = [coded.grid.index_of(c.center_deg) for c in estimates.clusters]
    values = np.empty((len(cells), coded.frames, coded.bins))
    if cells:
        for t, frame in enumerate(coded):
            for i, g in enumerate(cells):
                values[i, t] = frame[:, g]
    sampled = coding.MaskSet(values)
    cli._write_json(out_dir / "doas.json", {
        "clusters": [{"center_deg": float(c.center_deg),
                      "support": int(c.support)} for c in estimates.clusters],
        "span_deg": estimates.span_deg,
    }, cli._meta(cfg))
    container.save_masks(out_dir / "sampled_masks.bin", sampled,
                         estimates.span_deg)
    return estimates, sampled


def _three_pass_cmd_decode(cfg, args) -> int:
    """cmd_decode as it was, with the likelihood averaged inside _decode."""
    out_dir = Path(args.out)
    estimates, _ = _three_pass_decode(
        cfg, container.CodingFile(out_dir / "coding.bin"), None, out_dir)
    angles = ", ".join(f"{c.center_deg:.1f}" for c in estimates.clusters)
    print(f"{estimates.count} speakers at [{angles}] deg -> {out_dir}")
    return 0


# The former stages each test runs the CLI with, as (_encode_stage,
# _decode, cmd_decode).
_FORMER_STAGES = {
    "full_tensor": (_former_encode_stage, _former_decode, _former_cmd_decode),
    "three_pass": (_three_pass_encode_stage, _three_pass_decode,
                   _three_pass_cmd_decode),
}


# Configurations of the streamed-stage tests, each after an open [scene]
# section of 0.2 s (12 frames, written and decoded one frame at a time), on
# a 180-cell grid.
_STREAM_CASES = {
    "oracle": "",
    "shoebox_3sp": "room = shoebox\ndoas_deg = 40,150,260\n"
                   "distances_m = 2.0,2.2,2.4\npitches_hz = 210,140,170\n",
    "mwsbc": "[coding]\nkind = mwsbc\n",
    "mwslc_sum": "[coding]\nkind = mwslc_sum\n",
    "corrupt": "[estimate]\nmode = corrupt\nnoise_std = 0.15\n"
               "blur_cells = 1\n",
    "model": "[estimate]\nmode = model\nparams_path = {params}\n",
}


@pytest.fixture(scope="module")
def untrained_params(tmp_path_factory):
    path = tmp_path_factory.mktemp("params") / "params.bin"
    save_params(path, estimator.init_params(9, 8, 180, seed=3,
                                            output_bias=-1.0))
    return path


def _artifacts(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _assert_same_artifacts(a: Path, b: Path) -> None:
    """The same file names under a and b, each with the same bytes."""
    a, b = _artifacts(a), _artifacts(b)
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], name


def _case_ini(tmp_path, case, params) -> Path:
    ini = tmp_path / "case.ini"
    ini.write_text("[grid]\ntheta_count = 180\n[scene]\nduration_s = 0.2\n"
                   + _STREAM_CASES[case].format(params=params))
    return ini


def _staged(ini, seed, out) -> list:
    """Exit codes of simulate, encode, decode, beamform and eval into out."""
    return [main([command, "--config", str(ini), "--seed", seed,
                  "--out", str(out)])
            for command in ("simulate", "encode", "decode", "beamform",
                            "eval")]


def _assert_artifacts_equal_former(tmp_path, monkeypatch, params, case,
                                   seed, former, pipeline=True):
    """pipeline, if `pipeline`, then simulate, encode, decode, beamform and
    eval, leave the same exit codes and artifact bytes as with the former
    stages."""
    ini = _case_ini(tmp_path, case, params)

    def run(root):
        codes = [main(["pipeline", "--config", str(ini), "--seed", seed,
                       "--out", str(root / "run")])] if pipeline else []
        return codes + _staged(ini, seed, root / "staged")

    codes = run(tmp_path / "new")
    encode_stage, decode_stage, cmd_decode = _FORMER_STAGES[former]
    monkeypatch.setattr(cli, "_encode_stage", encode_stage)
    monkeypatch.setattr(cli, "_decode", decode_stage)
    monkeypatch.setitem(cli.COMMANDS, "decode", cmd_decode)
    assert run(tmp_path / "old") == codes
    assert codes[:3 + pipeline] == [0] * (3 + pipeline)
    _assert_same_artifacts(tmp_path / "new", tmp_path / "old")


class TestStreamedCoding:
    """Encode, decode and pipeline stream coding.bin a frame at a time in
    every estimate mode and never hold the (frames, bins, cells) tensor."""

    @pytest.mark.parametrize("seed", ["11", "12345"])
    @pytest.mark.parametrize("case", sorted(_STREAM_CASES))
    def test_artifacts_equal_the_former_full_tensor_stages(
            self, tmp_path, monkeypatch, untrained_params, case, seed):
        # The staged chain only: the former pipeline kept each stage's
        # float64 output in memory, and its decode stage cannot read
        # coding.bin. test_pipeline_writes_the_staged_artifacts carries the
        # comparison over to pipeline.
        _assert_artifacts_equal_former(tmp_path, monkeypatch,
                                       untrained_params, case, seed,
                                       "full_tensor", pipeline=False)

    @pytest.mark.parametrize("seed", ["11", "12345"])
    @pytest.mark.parametrize("case", sorted(_STREAM_CASES))
    def test_artifacts_equal_the_three_pass_stages(
            self, tmp_path, monkeypatch, untrained_params, case, seed):
        # One encode per frame: coding.bin and the frame likelihood come
        # from one pass, the sampled masks from the decoded cells only.
        _assert_artifacts_equal_former(tmp_path, monkeypatch,
                                       untrained_params, case, seed,
                                       "three_pass")

    @pytest.mark.parametrize("seed", ["11", "12345"])
    @pytest.mark.parametrize("case", sorted(_STREAM_CASES))
    def test_pipeline_writes_the_staged_artifacts(self, tmp_path,
                                                  untrained_params, case,
                                                  seed):
        # One config and seed give one artifact set. report.csv names the
        # scene by the leaf directory, the same for both.
        ini = _case_ini(tmp_path, case, untrained_params)
        assert main(["pipeline", "--config", str(ini), "--seed", seed,
                     "--out", str(tmp_path / "a" / "run")]) == 0
        assert _staged(ini, seed, tmp_path / "b" / "run") == [0] * 5
        _assert_same_artifacts(tmp_path / "a", tmp_path / "b")

    def test_corrupt_pipeline_corrupts_each_frame_once(self, tmp_path,
                                                       monkeypatch):
        # Masks are sampled from coding.bin, so no frame is made again.
        frames = []
        corrupt = estimator.corrupt_oracle
        monkeypatch.setattr(estimator, "corrupt_oracle", lambda block, *args: (
            frames.append(block.frames), corrupt(block, *args))[1])
        out = tmp_path / "run"
        assert main(["pipeline", "--config",
                     str(_case_ini(tmp_path, "corrupt", None)),
                     "--out", str(out)]) == 0
        assert frames == [1] * CodingFile(out / "coding.bin").frames

    def test_pipeline_and_decode_hold_no_full_tensor(self, tmp_path):
        # At 1440 cells one (31, 257, 1440) float64 tensor of this 0.5 s
        # scene is 92 MB (183 MB for the default 1 s), and the former stages
        # held it beside a float32 copy.
        ini = tmp_path / "fine.ini"
        ini.write_text("[scene]\nduration_s = 0.5\n[grid]\n"
                       "theta_count = 1440\n")
        for command in ("pipeline", "decode"):
            tracemalloc.start()
            try:
                assert main([command, "--config", str(ini),
                             "--out", str(tmp_path / "run")]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 40 * 2**20, (command, peak)

    @pytest.mark.parametrize("mode", ["corrupt", "model"])
    def test_corrupt_and_model_pipelines_hold_no_full_tensor(self, tmp_path,
                                                             mode):
        # The same 92 MB tensor: the former corrupt mode held it beside its
        # noise draw, the former model mode beside its float32 copy.
        params = tmp_path / "params.bin"
        save_params(params, estimator.init_params(9, 8, 1440, seed=3,
                                                  output_bias=-1.0))
        ini = tmp_path / "fine.ini"
        ini.write_text("[scene]\nduration_s = 0.5\n[grid]\n"
                       "theta_count = 1440\n"
                       + _STREAM_CASES[mode].format(params=params))
        tracemalloc.start()
        try:
            assert main(["pipeline", "--config", str(ini),
                         "--out", str(tmp_path / "run")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20, peak

    @pytest.mark.parametrize("case", ["oracle", "corrupt", "model"])
    def test_staged_encode_never_averages(self, tmp_path, monkeypatch,
                                          untrained_params, case):
        # Only pipeline decodes the coding it writes; staged encode writes
        # the former full-tensor stage's bytes without a frame likelihood.
        ini = tmp_path / "case.ini"
        ini.write_text("[grid]\ntheta_count = 180\n[scene]\nduration_s = 0.2\n"
                       + _STREAM_CASES[case].format(params=untrained_params))
        new, old = tmp_path / "new", tmp_path / "old"
        for out in (new, old):
            assert main(["simulate", "--config", str(ini),
                         "--out", str(out)]) == 0
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_encode_stage", _former_encode_stage)
            assert main(["encode", "--config", str(ini),
                         "--out", str(old)]) == 0

        def no_average(*args, **kwargs):
            raise AssertionError("encode averaged the coding over frequency")

        monkeypatch.setattr(decode, "freq_average", no_average)
        assert main(["encode", "--config", str(ini), "--out", str(new)]) == 0
        assert _artifacts(new) == _artifacts(old)

    def test_rerun_encode_leaves_the_same_bytes(self, tmp_path):
        ini = _fast_ini(tmp_path)
        out = tmp_path / "run"
        for command in ("simulate", "encode"):
            assert main([command, "--config", ini, "--out", str(out)]) == 0
        first = _artifacts(out)
        assert main(["encode", "--config", ini, "--out", str(out)]) == 0
        assert _artifacts(out) == first
        assert not list(out.glob("*.tmp"))

    def test_truncated_coding_exit_4_before_doas_json(self, tmp_path, capsys):
        ini = _fast_ini(tmp_path)
        out = tmp_path / "run"
        for command in ("simulate", "encode"):
            assert main([command, "--config", ini, "--out", str(out)]) == 0
        path = out / "coding.bin"
        path.write_bytes(path.read_bytes()[:-8])
        capsys.readouterr()
        assert main(["decode", "--config", ini, "--out", str(out)]) == 4
        assert "payload holds" in capsys.readouterr().err
        assert not (out / "doas.json").exists()


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

    @pytest.mark.parametrize("frames", [0, 5])
    def test_coding_without_bins_exit_4_before_doas_json(self, tmp_path,
                                                          capsys, frames):
        # Its frequency average would be the mean of no values, NaN.
        out = tmp_path / "run"
        out.mkdir()
        write_array(out / "coding.bin", "coding:mwslc",
                    np.zeros((frames, 0, 8)), span_deg=360.0, theta_count=8)
        assert main(["decode", "--config", _fast_ini(tmp_path),
                     "--out", str(out)]) == 4
        assert "no frequency bin" in capsys.readouterr().err
        assert not (out / "doas.json").exists()

    def test_non_finite_coding_exit_4_before_doas_json(self, tmp_path,
                                                       capsys):
        # +inf and -inf in one (frame, cell) column average to NaN.
        out = tmp_path / "run"
        out.mkdir()
        values = np.zeros((3, 4, 8))
        values[1, :2, 5] = np.inf, -np.inf
        write_array(out / "coding.bin", "coding:mwslc", values,
                    span_deg=360.0, theta_count=8)
        assert main(["decode", "--config", _fast_ini(tmp_path),
                     "--out", str(out)]) == 4
        assert f"{out / 'coding.bin'}: frame 1 " in capsys.readouterr().err
        assert not (out / "doas.json").exists()

    def test_non_finite_sampled_masks_exit_4(self, tmp_path, capsys):
        ini = _fast_ini(tmp_path)
        out = tmp_path / "run"
        for command in ("simulate", "encode", "decode"):
            assert main([command, "--config", ini, "--out", str(out)]) == 0
        _, masks, span, _, _ = read_array(out / "sampled_masks.bin")
        masks[0, 2, 7] = np.nan
        write_array(out / "sampled_masks.bin", "maskset", masks,
                    span_deg=span)
        capsys.readouterr()
        assert main(["beamform", "--config", ini, "--out", str(out)]) == 4
        assert (f"{out / 'sampled_masks.bin'}: frame 2 "
                in capsys.readouterr().err)
        assert not list(out.glob("sep*.wav"))

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
        assert main(["decode", "--config", ini, "--out", str(out)]) == 0
        for name in names:
            assert (out / name).read_bytes() == before[name], name
        names = ("sep01.wav", "sep02.wav", "report.csv")
        before = {name: (out / name).read_bytes() for name in names}
        for command in ("beamform", "eval"):
            assert main([command, "--config", ini, "--out", str(out)]) == 0
        # pipeline scores the signals that eval reads back from the WAVs.
        for name in names:
            assert (out / name).read_bytes() == before[name], name

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
        # Ranges that the decoder or the encoders used to reject without
        # naming the key, after pipeline had written its first artifacts.
        ("pipeline", "[decode]\neps_theta = 1.0\n", "decode.eps_theta"),
        ("pipeline", "[decode]\ndelta_theta_deg = 0\n",
         "decode.delta_theta_deg"),
        ("pipeline", "[coding]\nsigma_deg = 0\n", "coding.sigma_deg"),
        ("calibrate", "[coding]\nsigma_deg = -1\n", "coding.sigma_deg"),
        # A span in (0, 360] so small that the sweep's 2 sigma / span
        # overflowed, which used to end in an inf/NaN limit.
        ("conditioning", "[grid]\nspan_deg = 2.2250738585072014e-308\n"
         "[scene]\nduration_s = 0.2\ndoas_deg = 0\ndistances_m = 2.0\n"
         "source_kinds = harmonic-complex\npitches_hz = 210\n",
         "grid.span_deg"),
    ], ids=["distances_m", "pitches_hz", "room_dims_m", "theta_counts",
            "empty_distances_m", "empty_source_kinds", "room_dims_m_count",
            "absorption_range", "max_order_negative", "seed_negative",
            "seed_above_uint32", "duration_nan", "spacing_nan", "sigma_nan",
            "hidden_dim_zero", "hidden_dim_negative", "scene_count_zero",
            "val_scene_count_zero", "sample_rate_zero", "theta_count_one",
            "span_above_360", "win_not_divided_by_hop", "hop_zero",
            "learning_rate_zero", "decay_factor_one",
            "decay_every_epochs_zero", "epochs_zero", "batch_size_zero",
            "patience_negative", "channels_negative", "duration_no_sample",
            "eps_theta_one", "delta_theta_zero", "sigma_zero",
            "calibrate_sigma_negative", "span_overflows_norm_limit"])
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
