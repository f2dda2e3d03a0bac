"""Command-line pipeline runner.

Subcommands cover the full flow: scene simulation, oracle or model
encoding, the conditioning sweep, threshold calibration, estimator
training, decoding, MVDR separation, and scoring. Each stage is one
function that writes its own artifacts (`_encode_stage`, `_decode`,
`_separate`, `_score`): the staged subcommands load its inputs from the
artifact directory, and `pipeline` chains the same functions on the values
the staged ones read back. Every report carries the config hash, seed, and
package version; identical configs and seeds yield identical output bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import beamform, coding, conditioning, container, decode, estimator
from . import metrics, scene, stft
from ._version import __version__
from .config import RunConfig, load_config
from .errors import ConfigError, FormatError, NumericError
from .signal import TimeSignal, load_wav, save_wav

# Command-line flags that each override one config key.
_OVERRIDES = {"seed": ("run", "seed"), "theta_count": ("grid", "theta_count"),
              "sigma_deg": ("coding", "sigma_deg"),
              "eps_theta": ("decode", "eps_theta")}


def _meta(cfg: RunConfig) -> dict:
    return {"version": __version__, "config_hash": cfg.hash, "seed": cfg.seed}


def _write_csv(path, rows, columns, meta: dict) -> None:
    with open(path, "w", newline="") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}: {value}\n")
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row[c] for c in columns})


def _write_json(path, payload: dict, meta: dict) -> None:
    with open(path, "w") as fh:
        json.dump({"meta": meta, **payload}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(out_dir: Path, name: str, rows, columns, meta, fmt: str):
    if fmt == "json":
        path = out_dir / f"{name}.json"
        _write_json(path, {"rows": rows}, meta)
    else:
        path = out_dir / f"{name}.csv"
        _write_csv(path, rows, columns, meta)
    return path


def _draw_doas(rng, count: int, min_gap_deg: float, span_deg: float) -> np.ndarray:
    for _ in range(1000):
        angles = rng.uniform(0.0, span_deg, count)
        gaps = [coding.wrapped_distance(angles[i], angles[j], span_deg)
                for i in range(count) for j in range(i + 1, count)]
        if not gaps or min(gaps) >= min_gap_deg:
            return np.sort(angles)
    raise ConfigError(f"cannot place {count} sources {min_gap_deg} deg apart "
                      f"in a {span_deg} deg span")


def _cycle(values, i):
    return values[i % len(values)]


def _build_scene(cfg: RunConfig, doas=None, seed: int | None = None):
    """Scene spec and render from the config; doas/seed may be overridden."""
    if round(cfg.duration_s * cfg.sample_rate_hz) < 1:
        raise ConfigError(f"scene.duration_s: {cfg.duration_s} s holds no sample")
    seed = cfg.seed if seed is None else seed
    doas = cfg.doas_deg if doas is None else tuple(doas)
    sources = []
    for i, doa in enumerate(doas):
        signal = scene.synth_source(
            _cycle(cfg.source_kinds, i), cfg.duration_s,
            pitch_hz=_cycle(cfg.pitches_hz, i), seed=seed + i,
            sample_rate_hz=cfg.sample_rate_hz)
        sources.append(scene.SourceSpec(doa, _cycle(cfg.distances_m, i), signal))
    spec = scene.SceneSpec(tuple(sources), room=cfg.room_spec(),
                           span_deg=cfg.span_deg, min_gap_deg=cfg.min_gap_deg,
                           seed=seed)
    geometry = cfg.geometry()
    if spec.room is None:
        rendered = scene.simulate_anechoic(spec, geometry)
    else:
        rendered = scene.simulate_shoebox(spec, geometry)
    return spec, rendered


def _varied_scene(cfg: RunConfig, index: int):
    """Scene with rotated DoAs for validation/training batches."""
    seed = cfg.seed + 1000 * (index + 1)
    rng = np.random.default_rng(seed)
    doas = _draw_doas(rng, len(cfg.doas_deg), cfg.min_gap_deg, cfg.span_deg)
    return _build_scene(cfg, doas=doas, seed=seed)


def _source_masks(cfg: RunConfig, images):
    """Reference-mic STFTs of the source images and their thresholded IRMs."""
    stft_cfg = cfg.stft_config()
    ref = cfg.geometry().reference_mic
    image_specs = [stft.analyze(img.channel(ref), stft_cfg) for img in images]
    return image_specs, coding.compute_irm(image_specs, cfg.eps_m_db)


def _encode(cfg: RunConfig, kind: str, masks, truth):
    return coding.ENCODERS[kind](masks, truth, cfg.grid(), cfg.sigma_deg)


def _oracle_parts(cfg: RunConfig, rendered):
    """Mixture STFT, image STFTs, masks and oracle coding (acceptance suite)."""
    image_specs, masks = _source_masks(cfg, rendered.source_images)
    mixture_spec = stft.analyze(rendered.mixture, cfg.stft_config())
    return (mixture_spec, image_specs, masks,
            _encode(cfg, cfg.coding_kind, masks, rendered.truth))


def _model_params(cfg: RunConfig):
    """The estimator parameters for estimate.mode = model, else None."""
    if cfg.estimate_mode != "model":
        return None
    if not cfg.params_path:
        raise ConfigError("estimate.params_path is required for mode=model")
    params = container.load_params(cfg.params_path)
    estimator.forward_blocks(params, np.empty((0, 0, 2 * cfg.channels + 1)),
                             cfg.grid())  # its shape checks
    return params


def _encode_stage(cfg: RunConfig, mixture, images, truth, params, out_dir,
                  average: bool = False):
    """Mixture STFT, the coding per estimate.mode (`params` is
    _model_params(cfg)) and, if `average`, its frame likelihood; writes
    coding.bin, masks.bin and encode.json.

    The coding is a source of frames: coding.FrameBlocks, passed through
    estimator.corrupt_blocks in corrupt mode, or estimator.forward_blocks
    in model mode. Making it runs the encoder's or the model's checks
    before the first write; each frame is then made once, written to
    coding.bin and, if `average`, averaged over frequency as written, in
    float32, in the same pass, so no full tensor is held.
    """
    mixture_spec = stft.analyze(mixture, cfg.stft_config())
    _, masks = _source_masks(cfg, images)
    if params is not None:
        coded = estimator.forward_blocks(
            params, estimator.features(mixture_spec), cfg.grid())
    else:
        coded = coding.FrameBlocks(cfg.coding_kind, masks, truth, cfg.grid(),
                                   cfg.sigma_deg)
        if cfg.estimate_mode == "corrupt":
            coded = estimator.corrupt_blocks(coded, cfg.noise_std,
                                             cfg.blur_cells, cfg.seed)
    record = {"kind": coded.kind, "theta_count": coded.grid.theta_count,
              "span_deg": coded.grid.span_deg, "sigma_deg": cfg.sigma_deg,
              "eps_m_db": cfg.eps_m_db}
    path, likelihood = out_dir / "coding.bin", None
    if average:
        likelihood = decode.freq_average(container.written(path, coded))
    else:
        container.save_coding(path, coded)
    container.save_masks(out_dir / "masks.bin", masks, truth.span_deg)
    _write_json(out_dir / "encode.json", record, _meta(cfg))
    return mixture_spec, coded, likelihood


def _decode(cfg: RunConfig, coded, likelihood, out_dir: Path):
    """DoAs decoded from `likelihood`, the frame likelihood of `coded` (a
    container.CodingFile), and masks sampled from `coded`; writes doas.json
    and sampled_masks.bin."""
    detections = decode.peak_search(likelihood, cfg.eps_theta,
                                    cfg.delta_theta_deg)
    estimates = decode.cluster_doas(detections, cfg.sigma_deg,
                                    coded.grid.span_deg, cfg.min_support_frac)
    sampled = decode.sample_masks(coded, estimates)
    _write_json(out_dir / "doas.json", {
        "clusters": [{"center_deg": float(c.center_deg),
                      "support": int(c.support)} for c in estimates.clusters],
        "span_deg": estimates.span_deg,
    }, _meta(cfg))
    container.save_masks(out_dir / "sampled_masks.bin", sampled,
                         estimates.span_deg)
    return estimates, sampled


def _separate(cfg: RunConfig, mixture_spec, masks, estimates, out_dir: Path):
    """MVDR at the decoded directions; writes and returns the sepNN signals
    and removes any higher-numbered sepNN.wav left in out_dir."""
    separated = [stft.synthesize(sep) for sep in beamform.separate(
        mixture_spec, masks, estimates.centers_deg, cfg.geometry(),
        cfg.loading_eps)]
    for i, signal in enumerate(separated):
        _save_rounded(signal, out_dir / f"sep{i + 1:02d}.wav")
    for path in out_dir.glob("sep[0-9][0-9].wav"):
        if int(path.name[3:5]) > len(separated):
            path.unlink()  # left by an earlier run with more speakers
    return separated


def _score(cfg: RunConfig, out_dir: Path, estimates, truth, separated,
           mixture, images, fmt: str):
    """Report of mono `separated` against the reference-mic channels of
    `mixture` and `images`, all cut to their common length."""
    ref = cfg.geometry().reference_mic
    signals = ([s.channel(0) for s in separated] + [mixture.channel(ref)]
               + [img.channel(ref) for img in images])
    length = min(s.length for s in signals)
    signals = [TimeSignal(s.samples[:, :length], s.sample_rate_hz)
               for s in signals]
    n = len(separated)
    report = metrics.evaluate_scene(out_dir.name, estimates, truth,
                                    signals[:n], signals[n], signals[n + 1:],
                                    cfg.tolerance_deg)
    path = _write_table(out_dir, "report", [report.as_row()],
                        metrics.EvalReport.COLUMNS, _meta(cfg), fmt)
    return report, path


def _save_rounded(signal: TimeSignal, path: Path) -> None:
    """save_wav, then `signal` rounded in place to the samples written."""
    save_wav(signal, path)
    signal.samples[...] = signal.samples.astype(np.float32)


def _save_scene(cfg: RunConfig, rendered, out_dir: Path) -> None:
    _save_rounded(rendered.mixture, out_dir / "mixture.wav")
    for i, img in enumerate(rendered.source_images):
        _save_rounded(img, out_dir / f"src{i + 1:02d}_image.wav")
        save_wav(rendered.dry_sources[i], out_dir / f"src{i + 1:02d}_dry.wav")
    _write_json(out_dir / "truth.json", {
        "doas_deg": [float(a) for a in rendered.truth.angles_deg],
        "span_deg": rendered.truth.span_deg,
        "sample_rate_hz": rendered.mixture.sample_rate_hz,
        "channels": rendered.mixture.channels,
    }, _meta(cfg))


def _load_truth(out_dir: Path) -> coding.DoaSet:
    return container.load_json(
        out_dir / "truth.json", {"doas_deg": [float], "span_deg": float},
        lambda d: coding.DoaSet(np.array(d["doas_deg"]), d["span_deg"]))


def _load_doas(out_dir: Path) -> decode.DoaEstimates:
    return container.load_json(
        out_dir / "doas.json",
        {"clusters": [{"center_deg": float, "support": int}], "span_deg": float},
        lambda d: decode.DoaEstimates(tuple(
            decode.DoaCluster(c["center_deg"], c["support"])
            for c in d["clusters"]), d["span_deg"]))


def cmd_simulate(cfg: RunConfig, args) -> int:
    _, rendered = _build_scene(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _save_scene(cfg, rendered, out_dir)
    print(f"scene with {rendered.truth.count} sources -> {out_dir}")
    return 0


def cmd_encode(cfg: RunConfig, args) -> int:
    params = _model_params(cfg)
    out_dir = Path(args.out)
    truth = _load_truth(out_dir)
    images = [load_wav(out_dir / f"src{i + 1:02d}_image.wav")
              for i in range(truth.count)]
    _, coded, _ = _encode_stage(cfg, load_wav(out_dir / "mixture.wav"),
                                images, truth, params, out_dir)
    print(f"{coded.kind} coding ({coded.frames} frames, {coded.bins} "
          f"bins, {coded.grid.theta_count} cells) -> {out_dir}")
    return 0


def cmd_conditioning(cfg: RunConfig, args) -> int:
    _, rendered = _build_scene(cfg)
    _, masks = _source_masks(cfg, rendered.source_images)
    report = conditioning.theta_sweep(
        masks, rendered.truth, cfg.sigma_deg, cfg.span_deg,
        cfg.conditioning_theta_counts)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = report.as_table()
    path = _write_table(out_dir, "conditioning", rows,
                        conditioning.SWEEP_COLUMNS, _meta(cfg), args.format)
    print(f"{len(rows)} sweep rows -> {path}")
    return 0


def _calibration_scene(cfg: RunConfig, index: int):
    """Frame likelihood of the oracle coding, and truth, of varied scene
    `index`; FrameBlocks.mean_over_bins averages the coding over frequency
    from the masks and rows, encoding no cell, after the coding's checks."""
    _, rendered = _varied_scene(cfg, index)
    _, masks = _source_masks(cfg, rendered.source_images)
    blocks = coding.FrameBlocks(cfg.coding_kind, masks, rendered.truth,
                                cfg.grid(), cfg.sigma_deg)
    return (decode.FrameLikelihood(blocks.mean_over_bins(), blocks.grid),
            rendered.truth)


def cmd_calibrate(cfg: RunConfig, args) -> int:
    # A generator, so each scene is rendered only when the previous one has
    # been reduced to its frame likelihood.
    scenes = (_calibration_scene(cfg, i)
              for i in range(cfg.calibration_scene_count))
    result = decode.calibrate_threshold(
        scenes, cfg.eps_theta_candidates, cfg.delta_theta_deg,
        cfg.sigma_deg, cfg.tolerance_deg, cfg.min_support_frac)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [{"eps_theta": r.eps_theta, "precision": r.precision,
             "recall": r.recall, "f1": r.f1} for r in result.rows]
    _write_table(out_dir, "calibration", rows,
                 ("eps_theta", "precision", "recall", "f1"),
                 _meta(cfg), args.format)
    _write_json(out_dir / "calibration_best.json", {
        "best_eps_theta": result.best_eps_theta,
        "best_f1": result.best_f1,
    }, _meta(cfg))
    print(f"best eps_theta {result.best_eps_theta:g} (F1 {result.best_f1:.3f}) "
          f"over {len(rows)} candidates -> {out_dir}")
    return 0


def cmd_train(cfg: RunConfig, args) -> int:
    train_cfg, hidden_dim = cfg.train_config(), cfg.hidden_dim
    pairs = []
    total = cfg.train_scene_count + cfg.val_scene_count
    for i in range(total):
        _, rendered = _varied_scene(cfg, i)
        _, masks = _source_masks(cfg, rendered.source_images)
        # Masks and truth only: each use of the target encodes it a frame
        # at a time, so no scene's (T, K, cells) tensor is held.
        target = coding.FrameBlocks(train_cfg.target_kind, masks,
                                    rendered.truth, cfg.grid(), cfg.sigma_deg)
        mixture_spec = stft.analyze(rendered.mixture, cfg.stft_config())
        pairs.append((estimator.features(mixture_spec), target))
    split = cfg.train_scene_count
    params, history = estimator.train(pairs[:split], pairs[split:], train_cfg,
                                      hidden_dim=hidden_dim)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    container.save_params(out_dir / "params.bin", params)
    _write_csv(out_dir / "history.csv", history.as_table(),
               estimator.TrainHistory.HISTORY_COLUMNS, _meta(cfg))
    print(f"{len(history.epochs)} epochs (best {history.best_epoch}, "
          f"early stop {history.stopped_early}) -> {out_dir}")
    return 0


def cmd_decode(cfg: RunConfig, args) -> int:
    out_dir = Path(args.out)
    source = container.CodingFile(out_dir / "coding.bin")
    estimates, _ = _decode(cfg, source, decode.freq_average(source), out_dir)
    angles = ", ".join(f"{c.center_deg:.1f}" for c in estimates.clusters)
    print(f"{estimates.count} speakers at [{angles}] deg -> {out_dir}")
    return 0


def cmd_beamform(cfg: RunConfig, args) -> int:
    out_dir = Path(args.out)
    mixture = load_wav(out_dir / "mixture.wav")
    estimates = _load_doas(out_dir)
    masks = container.load_masks(out_dir / "sampled_masks.bin")
    separated = _separate(cfg, stft.analyze(mixture, cfg.stft_config()),
                          masks, estimates, out_dir)
    print(f"{len(separated)} separated channels -> {out_dir}")
    return 0


def cmd_eval(cfg: RunConfig, args) -> int:
    out_dir = Path(args.out)
    truth = _load_truth(out_dir)
    estimates = _load_doas(out_dir)
    images = [load_wav(out_dir / f"src{i + 1:02d}_image.wav")
              for i in range(truth.count)]
    separated = [load_wav(out_dir / f"sep{i + 1:02d}.wav")
                 for i in range(estimates.count)]
    report, path = _score(cfg, out_dir, estimates, truth, separated,
                          load_wav(out_dir / "mixture.wav"), images,
                          args.format)
    print(f"MAE {report.doa_mae_deg:.2f} deg, F1 {report.f1:.2f}, "
          f"delta SI-SDR {report.delta_si_sdr_db:.2f} dB -> {path}")
    return 0


def cmd_pipeline(cfg: RunConfig, args) -> int:
    # A bad key that pipeline reads must exit before the first write.
    cfg.grid()
    cfg.stft_config()
    cfg.coding_kind, cfg.sigma_deg, cfg.eps_m_db, cfg.noise_std
    cfg.blur_cells, cfg.eps_theta, cfg.delta_theta_deg, cfg.min_support_frac
    cfg.loading_eps, cfg.tolerance_deg
    params = _model_params(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, rendered = _build_scene(cfg)
    _save_scene(cfg, rendered, out_dir)
    mixture_spec, _, likelihood = _encode_stage(
        cfg, rendered.mixture, rendered.source_images, rendered.truth, params,
        out_dir, average=True)
    estimates, sampled = _decode(
        cfg, container.CodingFile(out_dir / "coding.bin"), likelihood, out_dir)
    separated = _separate(cfg, mixture_spec, sampled, estimates, out_dir)
    report, path = _score(cfg, out_dir, estimates, rendered.truth, separated,
                          rendered.mixture, rendered.source_images,
                          args.format)
    print(f"MAE {report.doa_mae_deg:.2f} deg, precision {report.precision:.2f}, "
          f"recall {report.recall:.2f}, delta SI-SDR "
          f"{report.delta_si_sdr_db:.2f} dB -> {path}")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "encode": cmd_encode,
    "conditioning": cmd_conditioning,
    "calibrate": cmd_calibrate,
    "train": cmd_train,
    "decode": cmd_decode,
    "beamform": cmd_beamform,
    "eval": cmd_eval,
    "pipeline": cmd_pipeline,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maskgrid",
        description="Angular-grid mask coding: simulation, encoding, "
                    "decoding, beamforming, and evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="maskgrid_out",
                       help="artifact directory (default: maskgrid_out)")
        p.add_argument("--theta-count", type=int, default=None)
        p.add_argument("--sigma-deg", type=float, default=None)
        p.add_argument("--eps-theta", type=float, default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {key: getattr(args, flag) for flag, key in _OVERRIDES.items()
                 if getattr(args, flag) is not None}
    try:
        cfg = load_config(args.config, overrides)
        return COMMANDS[args.command](cfg, args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 3
    except (FormatError, OSError) as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
