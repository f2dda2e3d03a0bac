"""Run each maskgrid command in a child process and check its peak RSS.

    python scripts/peak_rss.py

Each run is a child process whose own ru_maxrss os.wait4 returns. The
script exits non-zero if a run fails or exceeds its limit. Outputs go to
a temporary directory; the program is imported from this checkout's src/.
Linux reports ru_maxrss in KiB, as read here.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def runs(tmp: Path) -> list:
    """(label, maskgrid arguments, limit in MiB), run in this order.

    train is the benchmark's schedule, and its params.bin is the
    model-mode pipeline's model. The streaming rows' 64 MiB is below
    their ~40 MiB peak plus one float32 coding of the default scene
    (46 MB at 720 cells), so a path that holds a whole coding fails.
    train, at ~52 MiB, holds its scenes' float32 features and masks and
    a frame of the network at a time, and shares that limit. The model
    row, ~68 MiB, adds the one-epoch model's ~1700 detections: clustering
    holds one distance matrix per arc between gaps wider than 2 sigma, so
    96 MiB fails a path that builds the whole set's n x n matrix again
    (~108 MiB).
    """
    inis = {
        "train": "[train]\nepochs = 1\nscene_count = 2\n"
                 "val_scene_count = 1\nbatch_size = 2\n",
        "mwsbc": "[coding]\nkind = mwsbc\n",
        "mwslc_sum": "[coding]\nkind = mwslc_sum\n",
        "corrupt": "[estimate]\nmode = corrupt\nnoise_std = 0.15\n",
        "model": "[estimate]\nmode = model\n"
                 f"params_path = {tmp}/train/params.bin\n",
    }
    for name, text in inis.items():
        (tmp / f"{name}.ini").write_text(text)
    return [
        ("train", ["train", "--config", f"{tmp}/train.ini",
                   "--out", f"{tmp}/train"], 64),
        ("pipeline", ["pipeline", "--out", f"{tmp}/out"], 64),
        ("decode", ["decode", "--out", f"{tmp}/out"], 64),
        ("conditioning", ["conditioning", "--out", f"{tmp}/out"], 64),
        ("calibrate", ["calibrate", "--out", f"{tmp}/calibrate"], 64),
    ] + [(f"pipeline ({name})",
          ["pipeline", "--config", f"{tmp}/{name}.ini",
           "--out", f"{tmp}/{name}"], limit)
         for name, limit in (("mwsbc", 64), ("mwslc_sum", 64),
                             ("corrupt", 64), ("model", 96))]


def peak_rss_mib(argv) -> tuple:
    """(wait status, peak RSS in MiB) of `python -m maskgrid.cli argv`."""
    child = subprocess.Popen([sys.executable, "-m", "maskgrid.cli", *argv],
                             env=dict(os.environ, PYTHONPATH=str(SRC)))
    _, status, usage = os.wait4(child.pid, 0)
    return status, usage.ru_maxrss / 1024


def main() -> int:
    over = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv, limit in runs(Path(tmp)):
            status, peak = peak_rss_mib(argv)
            if status != 0:
                print(f"maskgrid {label} failed ({status})", file=sys.stderr)
                return 1
            print(f"maskgrid {label} peak RSS {peak:.0f} MiB "
                  f"(limit {limit} MiB)", flush=True)
            if peak > limit:
                over.append(label)
    if over:
        print(f"over the limit: {', '.join(over)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
