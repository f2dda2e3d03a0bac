"""One workload as a closed loop in one fresh process.

Started by run.py with PYTHONPATH pointing at the checkout's src/. Runs
ops back to back (one client) for about --seconds, checks each op's
outputs, and prints one JSON object as its last stdout line. With
--trace 1 each op runs three times on identical inputs (see `traced`).
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import COUNTERS, LAYERS, Tracer, per_op_layers  # noqa: E402
from workloads import WORKLOADS, Op, OpOutcome, make_input  # noqa: E402

# Ops a run always completes, whatever --seconds says: enough for a median.
MIN_OPS = 2
# Traced ops whose calls and counters are reported. Fixed per workload so
# two traced runs with the same seed give identical counts; pipeline needs
# a whole cycle of its four scene kinds, the rest two ops so that both
# orders of the untraced and traced passes are in the overhead figure.
TRACE_OPS = {"pipeline": 4, "calibrate": 2, "conditioning": 2, "train": 2}
MIB = 1024.0 * 1024.0
# setup_s: fresh interpreters that import maskgrid and load the op's INI.
# They are spread evenly over the run, so the median does not hang on the
# machine's state during one short window.
SETUP_PROBES = 15
SETUP_CODE = ("import sys, maskgrid\n"
              "from maskgrid.config import load_config\n"
              "load_config(sys.argv[1])\n")
PROBE_TIMEOUT_S = 30.0


def _cli_main(argv):
    # Looked up per call, so the tracer's wrapper is used while installed.
    import maskgrid.cli
    return maskgrid.cli.main(argv)


def run_op(op: Op, tracer: Tracer | None = None, memory: bool = False) -> tuple:
    """(wall seconds of the program calls, OpOutcome, tracer counts).

    The tracer, if given, is installed around the program calls only, not
    around the output checks.
    """
    op.prepare()
    counts = None
    if tracer is not None:
        tracer.install()
        tracer.begin_op(op.inp.index, memory)
    start = time.perf_counter()
    try:
        op.execute(_cli_main)
        error = None
    except (Exception, SystemExit) as err:  # SystemExit: argparse rejected argv
        error = err
    elapsed = time.perf_counter() - start
    if tracer is not None:
        counts = tracer.end_op()
        tracer.uninstall()
    if error is not None:
        traceback.print_exception(error, file=sys.stderr)
        return elapsed, OpOutcome(False, f"{type(error).__name__}: {error}"), counts
    return elapsed, op.check(), counts


def setup_probe(ini: Path) -> float:
    """Wall time of one fresh interpreter running SETUP_CODE on ini.

    Waits with a blocking wait and a kill timer: Popen.wait(timeout=...)
    polls with sleeps of up to 50 ms, which would quantise the samples.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(ini)])
    timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"setup probe exited {code}")
    return elapsed


def quality(workload: str, outcomes) -> dict:
    """Deterministic-per-seed result figures over the given ops."""
    values = {}
    for key in ("doa_f1", "doa_mae_deg", "delta_si_sdr_db", "val_loss"):
        xs = [o.quality[key] for o in outcomes if key in o.quality]
        if xs:
            # Median for delta SI-SDR: an unmatched reference scores -100 dB.
            agg = statistics.median if key == "delta_si_sdr_db" else statistics.fmean
            values[key] = agg(xs)
    return values


def _log(ops_log, index, label, seconds, outcome):
    ops_log.append({"op": index, "label": label, "seconds": seconds,
                    "ok": outcome.ok, "reason": outcome.reason})
    if not outcome.ok:
        print(f"op {index} ({label}) failed: {outcome.reason}", file=sys.stderr)


def gated(workload, seed, seconds, work) -> dict:
    ini = work / "setup.ini"
    ini.write_text(make_input(workload, seed, 0).ini)
    setup = [setup_probe(ini)]
    times, outcomes, ops_log = [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        op = Op(make_input(workload, seed, index), work)
        elapsed, outcome, _ = run_op(op)
        times.append(elapsed)
        outcomes.append(outcome)
        _log(ops_log, index, op.inp.label, elapsed, outcome)
        index += 1
        # The loop's own time, without the setup probes run in between.
        spent = time.perf_counter() - start - sum(setup[1:])
        done = index >= MIN_OPS and spent + statistics.median(times) > seconds
        due = SETUP_PROBES if done else math.ceil(SETUP_PROBES * spent / seconds)
        while len(setup) < min(due, SETUP_PROBES):
            setup.append(setup_probe(ini))
        if done:
            break
    return {"times": times, "ops": ops_log, "setup_samples": setup,
            "failed": sum(not o.ok for o in outcomes),
            "quality": quality(workload, outcomes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def traced(workload, seed, seconds, work) -> dict:
    """Each op three times on the same inputs: untraced, traced for time
    and counts, traced with tracemalloc for peak bytes. The first two
    alternate in order from op to op, since a repeat runs on warmer memory.
    """
    tracer = Tracer()
    keep = TRACE_OPS[workload]
    plain, timed, counts, outcomes, ops_log = [], [], [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        op = Op(make_input(workload, seed, index), work)
        runs = {}
        for kind in (("plain", "timed") if index % 2 == 0 else ("timed", "plain")):
            runs[kind] = run_op(op, None if kind == "plain" else tracer)
        runs["memory"] = run_op(op, tracer, memory=True)
        plain.append(runs["plain"][0])
        timed.append(runs["timed"][0])
        counts.append(runs["timed"][2])
        bad = [o for _, o, _ in runs.values() if not o.ok]
        outcome = bad[0] if bad else runs["timed"][1]
        outcomes.append(outcome)
        _log(ops_log, index, op.inp.label, timed[-1], outcome)
        index += 1
        spent = time.perf_counter() - start
        if index >= keep and spent + spent / index > seconds:
            break

    per_op = per_op_layers(tracer.spans)
    per_op_memory = per_op_layers(tracer.memory_spans)
    ops = sorted(per_op)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(
            per_op[op][layer]["self_s"] for op in ops)
        metrics[f"{layer}.calls"] = statistics.fmean(
            per_op[op][layer]["calls"] for op in ops[:keep])
        metrics[f"{layer}.peak_mb"] = statistics.median(
            per_op_memory[op][layer]["peak_bytes"] for op in ops) / MIB
    first = counts[:keep]
    for name, agg in COUNTERS.items():
        xs = [c.get(name, 0.0) for c in first]
        metrics[name] = max(xs) if agg == "max" else statistics.fmean(xs)
    clustered = sum(c.get("decode.clustered", 0.0) for c in first)
    kept = sum(c.get("decode.kept", 0.0) for c in first)
    metrics["decode.kept_frac"] = kept / clustered if clustered else 0.0
    metrics["trace.overhead_frac"] = (statistics.median(timed)
                                      / statistics.median(plain) - 1.0)
    found = quality(workload, outcomes[:keep])
    metrics["metrics.doa_f1"] = found.get("doa_f1", 0.0)
    metrics["metrics.doa_mae_deg"] = found.get("doa_mae_deg", 0.0)
    metrics["metrics.delta_si_sdr_db"] = found.get("delta_si_sdr_db", 0.0)
    metrics["estimator.val_loss"] = found.get("val_loss", 0.0)

    spans_path = work / f"spans-{workload}-{seed}.json"
    tracer.dump(spans_path)
    return {"metrics": metrics, "ops": ops_log, "plain_times": plain,
            "traced_times": timed, "failed": sum(not o.ok for o in outcomes),
            "traced_functions": tracer.functions(), "spans": str(spans_path)}


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory")
    parser.add_argument("--src", required=True, help="the checkout's src/")
    args = parser.parse_args()

    import maskgrid
    src = Path(args.src).resolve()
    if src not in Path(maskgrid.__file__).resolve().parents:
        print(f"maskgrid imported from {maskgrid.__file__}, not {src}",
              file=sys.stderr)
        return 3
    work = Path(args.work)
    run = traced if args.trace else gated
    result = run(args.workload, args.seed, args.seconds, work)
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
