"""Record checkouts' benchmark figures as BENCH_<short-commit>.json.

    python scripts/bench_record.py [ROOT ...] [--repeats 3] [--seed 7]
                                   [--seconds S] [--workload NAME] [--out DIR]

For each checkout ROOT (default: the one holding this script) and each
workload, perfbench/run.py runs --repeats times with --trace 0 and once
with --trace 1. Several roots alternate run by run, and which one goes
first alternates from repeat to repeat, so a parent and a change measured
in one call share the machine's drift. Each root's file goes to --out
(default: the current directory), named after `git rev-parse --short
HEAD` with a -dirty suffix when its tree has uncommitted changes. It
holds, per workload, the median and quartiles of the four gated
end-to-end metrics and of the quality figures, the failed and attempted
op counts, and each layer's self_s and peak_mb from the traced run; and
the src/ line count and the env record (nproc, BLAS threads, numpy
version).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
GATED = ("setup_s", "op_s_p50", "op_s_tail", "peak_rss_mb")


def run(root: Path, workload: str, args, trace: int) -> dict:
    """perfbench/run.py's last stdout line, with its env record and
    quality figures."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.splitlines()
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    quality = {key: float(value) for _, key, value
               in (l.split() for l in lines if l.startswith("quality "))}
    return dict(json.loads(lines[-1]), env=env, quality=quality)


def name_of(root: Path) -> str:
    git = ["git", "-C", str(root)]
    commit = subprocess.run(git + ["rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True, check=True)
    dirty = subprocess.run(git + ["status", "--porcelain"],
                           capture_output=True, text=True, check=True)
    return commit.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def summary(xs) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": xs}


def main() -> int:
    spec = json.loads((HERE / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs="*", type=Path, default=[HERE])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path, default=Path.cwd())
    args = parser.parse_args()
    if args.repeats < 3:
        parser.error("--repeats must be at least 3")
    roots = [root.resolve() for root in args.roots]
    names = {root: name_of(root) for root in roots}
    records = {root: {"commit": names[root], "seed": args.seed,
                      "seconds": args.seconds, "repeats": args.repeats,
                      "workloads": {}} for root in roots}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = {root: [] for root in roots}
        for i in range(args.repeats):
            for root in roots[::-1] if i % 2 else roots:
                runs[root].append(run(root, workload, args, 0))
        for root in roots:
            traced = run(root, workload, args, 1)["metrics"]
            done = runs[root]
            records[root]["env"] = done[0]["env"]
            records[root]["src_lines"] = done[0]["env"]["src_lines"]
            records[root]["workloads"][workload] = {
                "end_to_end": {m: summary([r["metrics"][m]["value"]
                                           for r in done]) for m in GATED},
                "quality": {k: summary([r["quality"][k] for r in done])
                            for k in done[0]["quality"]},
                "failed": [r["failed"] for r in done],
                "attempted": [r["attempted"] for r in done],
                "layers": {k: v["value"] for k, v in traced.items()
                           if k.endswith((".self_s", ".peak_mb"))}}
    for root in roots:
        path = args.out / f"BENCH_{names[root]}.json"
        path.write_text(json.dumps(records[root], indent=1, sort_keys=True)
                        + "\n")
        print(f"{root} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
