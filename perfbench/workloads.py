"""Workload inputs, ops and per-op output checks.

Input generation (`make_input`) needs only the standard library, so the
runner can write a workload's INI before any maskgrid process starts. The
op functions run inside the worker process and call the package through
its command-line entry point `maskgrid.cli.main` and its public API.

Every op has three parts: `prepare` (untimed: write the INI, empty the
output directory), `execute` (timed: the program calls only) and `check`
(untimed: output invariants and quality figures).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("pipeline", "calibrate", "conditioning", "train")

# The config defaults the draws follow: grid.span_deg and scene.min_gap_deg.
SPAN_DEG = 360.0
MIN_GAP_DEG = 15.0
DISTANCES_M = (2.0, 2.2, 1.8)
SOURCE_KINDS = ("harmonic-complex", "modulated-noise", "harmonic-complex")

# pipeline cycles speaker count and room per op index.
PIPELINE_CYCLE = ((2, "none"), (2, "shoebox"), (3, "none"), (3, "shoebox"))
CALIBRATE_NOISE_STD = 0.15
# The noisy scene is shorter than the default 1 s: ~790 detections at
# eps 0.05 (against ~1650) keep clustering cubic and dominant while an op
# stays near 3.5 s, so a run holds enough ops for a steady median.
CALIBRATE_NOISY_DURATION_S = 0.5
CALIBRATE_CANDIDATES = "0.05,0.1,0.15,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"
TRAIN_SCHEDULE = {"epochs": 1, "scene_count": 2, "val_scene_count": 1,
                  "batch_size": 2}


@dataclass(frozen=True)
class OpInput:
    """Everything the program receives for one op."""

    workload: str
    index: int
    seed: int
    ini: str
    label: str


@dataclass
class OpOutcome:
    ok: bool
    reason: str = ""
    quality: dict = field(default_factory=dict)


def _wrapped(a: float, b: float, span: float) -> float:
    d = abs(a - b) % span
    return min(d, span - d)


def draw_doas(rng: random.Random, count: int, min_gap_deg: float = MIN_GAP_DEG,
              span_deg: float = SPAN_DEG) -> list:
    """Uniform DoAs over the whole span with a minimum wrapped gap.

    Rejection sampling as the CLI's varied scenes do it, so mirror pairs on
    a linear array (theta and span - theta) are drawn like any other pair.
    """
    for _ in range(1000):
        angles = [rng.uniform(0.0, span_deg) for _ in range(count)]
        gaps = [_wrapped(angles[i], angles[j], span_deg)
                for i in range(count) for j in range(i + 1, count)]
        if not gaps or min(gaps) >= min_gap_deg:
            return sorted(angles)
    raise ValueError(f"cannot place {count} sources {min_gap_deg} deg apart")


def _ini(sections: dict) -> str:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
        lines.append("")
    return "\n".join(lines)


def _join(values) -> str:
    return ",".join(f"{v:.6f}" if isinstance(v, float) else str(v)
                    for v in values)


def _scene_keys(rng: random.Random, speakers: int, room: str) -> dict:
    return {
        "doas_deg": _join(draw_doas(rng, speakers)),
        "distances_m": _join(DISTANCES_M[:speakers]),
        "source_kinds": _join(SOURCE_KINDS[:speakers]),
        "pitches_hz": _join([round(rng.uniform(100.0, 260.0), 1)
                             for _ in range(speakers)]),
        "room": room,
    }


def make_input(workload: str, seed: int, index: int) -> OpInput:
    """Inputs of op `index` of a run with workload seed `seed`.

    Deterministic: the same (workload, seed, index) gives the same input.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}/{index}")
    op_seed = rng.randrange(1, 2**31 - 1)
    if workload == "pipeline":
        speakers, room = PIPELINE_CYCLE[index % len(PIPELINE_CYCLE)]
        sections = {"scene": _scene_keys(rng, speakers, room),
                    "estimate": {"mode": "oracle"}}
        label = f"{speakers}sp-{'anechoic' if room == 'none' else room}"
    elif workload == "calibrate":
        # [scene] is the scene of the library-path noisy sweep; the CLI's
        # calibrate draws its own varied scenes from the seed.
        sections = {"scene": _scene_keys(rng, 2, "none"),
                    "decode": {"eps_theta_candidates": CALIBRATE_CANDIDATES,
                               "calibration_scene_count": 10},
                    "estimate": {"noise_std": CALIBRATE_NOISE_STD}}
        label = "10 oracle scenes + 1 noisy"
    elif workload == "conditioning":
        sections = {"scene": _scene_keys(rng, 2, "none"),
                    "conditioning": {"theta_counts": "90,180,360,720,1440"}}
        label = "2sp-anechoic"
    else:
        sections = {"train": dict(TRAIN_SCHEDULE)}
        label = (f"{TRAIN_SCHEDULE['epochs']} epoch, "
                 f"{TRAIN_SCHEDULE['scene_count']}+"
                 f"{TRAIN_SCHEDULE['val_scene_count']} scenes")
    return OpInput(workload, index, op_seed, _ini(sections), label)


# ---------------------------------------------------------------- ops


class Op:
    """One op of a workload, bound to its own artifact directory."""

    def __init__(self, inp: OpInput, work_dir: Path):
        self.inp = inp
        self.out = work_dir / "out"
        self.ini_path = work_dir / "op.ini"
        self.state: dict = {}

    def _argv(self, command: str) -> list:
        return [command, "--config", str(self.ini_path), "--seed",
                str(self.inp.seed), "--out", str(self.out)]

    def prepare(self) -> None:
        # A reused directory leaks stale sepNN.wav files into eval's glob.
        if self.out.exists():
            shutil.rmtree(self.out)
        self.out.mkdir(parents=True)
        self.ini_path.write_text(self.inp.ini)
        self.state = {}

    def execute(self, cli_main) -> None:
        """The timed part: program calls only. Raises on a nonzero exit."""
        with contextlib.redirect_stdout(io.StringIO()):
            getattr(self, f"_execute_{self.inp.workload}")(cli_main)

    def _run(self, cli_main, command: str) -> None:
        code = cli_main(self._argv(command))
        if code != 0:
            raise RuntimeError(f"maskgrid {command} exited {code}")

    def _execute_pipeline(self, cli_main) -> None:
        self._run(cli_main, "pipeline")
        self.state["doas_memory"] = (self.out / "doas.json").read_text()
        self.state["report"] = (self.out / "report.csv").read_text()
        for command in ("decode", "beamform", "eval"):
            self._run(cli_main, command)

    def _execute_calibrate(self, cli_main) -> None:
        import maskgrid as mg
        from maskgrid.config import load_config

        self._run(cli_main, "calibrate")
        cfg = load_config(self.ini_path, {("run", "seed"): self.inp.seed})
        seed = cfg.seed
        sources = tuple(
            mg.SourceSpec(doa, cfg.distances_m[i], mg.synth_source(
                cfg.source_kinds[i], CALIBRATE_NOISY_DURATION_S,
                pitch_hz=cfg.pitches_hz[i],
                seed=seed + i, sample_rate_hz=cfg.sample_rate_hz))
            for i, doa in enumerate(cfg.doas_deg))
        spec = mg.SceneSpec(sources, span_deg=cfg.span_deg,
                            min_gap_deg=cfg.min_gap_deg, seed=seed)
        geometry = cfg.geometry()
        rendered = mg.simulate_anechoic(spec, geometry)
        images = [mg.analyze(img.channel(geometry.reference_mic),
                             cfg.stft_config())
                  for img in rendered.source_images]
        masks = mg.compute_irm(images, cfg.eps_m_db)
        coding = mg.encode_mwslc(masks, rendered.truth, cfg.grid(),
                                 cfg.sigma_deg)
        noisy = mg.corrupt_oracle(coding, cfg.noise_std, 0, seed=seed)
        self.state["noisy"] = mg.calibrate_threshold(
            [(noisy, rendered.truth)], cfg.eps_theta_candidates,
            cfg.delta_theta_deg, cfg.sigma_deg, cfg.tolerance_deg,
            cfg.min_support_frac)
        self.state["candidates"] = len(cfg.eps_theta_candidates)

    def _execute_conditioning(self, cli_main) -> None:
        self._run(cli_main, "conditioning")

    def _execute_train(self, cli_main) -> None:
        self._run(cli_main, "train")

    def check(self) -> OpOutcome:
        """Output invariants; never raises."""
        try:
            return getattr(self, f"_check_{self.inp.workload}")()
        except Exception as err:  # a malformed artifact fails the op
            return OpOutcome(False, f"check raised {type(err).__name__}: {err}")

    def _check_pipeline(self) -> OpOutcome:
        from maskgrid.config import load_config

        meta, rows = read_table(self.state["report"])
        expected = load_config(self.ini_path, {("run", "seed"): self.inp.seed})
        if meta.get("config_hash") != expected.hash:
            return OpOutcome(False, f"report config_hash {meta.get('config_hash')}"
                                    f" != {expected.hash}")
        if meta.get("seed") != str(self.inp.seed):
            return OpOutcome(False, f"report seed {meta.get('seed')} != "
                                    f"{self.inp.seed}")
        memory = json.loads(self.state["doas_memory"])["clusters"]
        disk = json.loads((self.out / "doas.json").read_text())["clusters"]
        if memory != disk:
            return OpOutcome(False, f"re-decoded DoAs {disk} != in-memory "
                                    f"{memory}")
        row = rows[0]
        return OpOutcome(True, quality={
            "doa_f1": float(row["f1"]),
            "doa_mae_deg": float(row["doa_mae_deg"]),
            "delta_si_sdr_db": float(row["delta_si_sdr_db"])})

    def _check_calibrate(self) -> OpOutcome:
        best = json.loads((self.out / "calibration_best.json").read_text())
        if best["best_f1"] != 1.0:
            return OpOutcome(False, f"oracle sweep best F1 {best['best_f1']}")
        noisy = self.state["noisy"]
        if len(noisy.rows) != self.state["candidates"]:
            return OpOutcome(False, f"noisy sweep returned {len(noisy.rows)} "
                                    f"rows for {self.state['candidates']}")
        return OpOutcome(True, quality={
            "doa_f1": (best["best_f1"] + noisy.best_f1) / 2.0})

    def _check_conditioning(self) -> OpOutcome:
        _, rows = read_table((self.out / "conditioning.csv").read_text())
        sbc = [float(r["mean_mwsbc"]) for r in rows]
        for coarse, fine in zip(sbc, sbc[1:]):
            if not abs(2.0 * fine / coarse - 1.0) <= 1e-9:
                return OpOutcome(False, f"one-hot norm {coarse} -> {fine} "
                                        "does not halve")
        # Criterion 02: below 1% at the finest grid, never growing from
        # 360 cells on; gaps at the float noise floor count as converged.
        gaps = [0.0 if float(r["rel_gap"]) < 1e-12 else float(r["rel_gap"])
                for r in rows if int(r["theta_count"]) >= 360]
        if not gaps[-1] < 0.01:
            return OpOutcome(False, f"finest rel_gap {gaps[-1]}")
        if any(fine > coarse for coarse, fine in zip(gaps, gaps[1:])):
            return OpOutcome(False, f"rel_gap grows: {gaps}")
        return OpOutcome(True)

    def _check_train(self) -> OpOutcome:
        from maskgrid.container import load_params

        _, rows = read_table((self.out / "history.csv").read_text())
        losses = [float(r[k]) for r in rows for k in ("train_loss", "val_loss")]
        if not rows or not all(math.isfinite(x) for x in losses):
            return OpOutcome(False, f"non-finite or missing losses: {losses}")
        load_params(self.out / "params.bin")
        return OpOutcome(True, quality={
            "val_loss": min(float(r["val_loss"]) for r in rows)})


def read_table(text: str):
    """The CLI's CSV report: '# key: value' header lines, then rows."""
    lines = text.splitlines()
    meta = {}
    start = 0
    for start, line in enumerate(lines):
        if not line.startswith("# "):
            break
        key, value = line[2:].split(": ", 1)
        meta[key] = value
    return meta, list(csv.DictReader(lines[start:]))
