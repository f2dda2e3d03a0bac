"""maskgrid benchmark runner.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from that
checkout's src/. Workloads: pipeline, calibrate, conditioning, train (see
perfbench/README.md). --trace 0 measures the end-to-end metrics; --trace 1
is the separate traced run that reports the per-layer metrics. BLAS is
pinned to one thread; --blas default leaves it at the library default, as
an ungated diagnostic.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Every metric is also printed on its own line with its
unit, after an environment record. Scratch files go to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def tail(times) -> tuple:
    """(value, percentile, ops beyond): the highest op time with at least
    ten ops above it; the maximum when fewer than eleven ops ran."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(
        description="maskgrid benchmark: one workload, one fresh process.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas", choices=("pinned", "default"),
                        default="pinned",
                        help="BLAS threads: 1 (gated runs) or the library "
                             "default (diagnostic only)")
    args = parser.parse_args()

    if not (SRC / "maskgrid" / "__init__.py").is_file():
        return fail(f"no maskgrid package under {SRC}", 3)
    nproc = os.cpu_count() or 1
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if args.blas == "pinned":
        env.update({var: "1" for var in BLAS_VARS})
        threads = 1
    else:
        for var in BLAS_VARS:
            env.pop(var, None)
        threads = int(os.environ.get("OPENBLAS_NUM_THREADS") or nproc)
    if threads > nproc:
        return fail(f"would use {threads} threads on {nproc} processors", 2)

    suffix = "" if args.blas == "pinned" else "-default-blas"
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-trace{args.trace}{suffix}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work", str(work), "--src", str(SRC)]
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              text=True,
                              timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        return fail(f"worker did not finish within {DEADLINE_S:.0f} s", 1)
    shutil.rmtree(work / "out", ignore_errors=True)
    if done.returncode != 0:
        return fail(f"worker exited {done.returncode}", 1)
    result = json.loads(done.stdout.strip().splitlines()[-1])

    spec = load_spec()
    env_record = dict(result.pop("env"), nproc=nproc,
                      blas_threads={var: env.get(var) for var in BLAS_VARS},
                      platform=platform.platform(), git_commit=git_commit(),
                      src_lines=src_lines())
    if args.trace:
        wanted = spec["per_layer"]
        values = result["metrics"]
        attempted = len(result["traced_times"])
    else:
        wanted = spec["end_to_end"]
        times = result["times"]
        tail_s, tail_pct, tail_beyond = tail(times)
        values = {"setup_s": statistics.median(result["setup_samples"]),
                  "op_s_p50": statistics.median(times),
                  "op_s_tail": tail_s,
                  "peak_rss_mb": result["peak_rss_mb"]}
        attempted = len(times)
        result.update(op_s_tail_percentile=tail_pct,
                      op_s_tail_ops_beyond=tail_beyond)
    failed = result["failed"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    print("env " + json.dumps(env_record, sort_keys=True))
    for m in wanted:
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']} "
              f"({m['better']} is better)")
    if not args.trace:
        print(f"op_s_tail is p{tail_pct:.1f} of {attempted} ops "
              f"({tail_beyond} beyond)")
        for key, value in sorted(result["quality"].items()):
            print(f"quality {key} {value:.6g}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} ops)")

    records = ROOT / ".perfbench_work" / "results"
    records.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, blas=args.blas,
                  env=env_record, metrics=metrics)
    (records / f"{work.name}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
