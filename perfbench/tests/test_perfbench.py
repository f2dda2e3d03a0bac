"""Self-tests of the benchmark: inputs, spans and counters.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

The traced runs take about a minute and a half in total.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS, self_times  # noqa: E402
from workloads import WORKLOADS, make_input  # noqa: E402

SEED = 9101


def traced_run(workload: str, seed: int = SEED) -> dict:
    """One traced run of the shortest length; its record and spans."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"], done.stderr
    record_path = (ROOT / ".perfbench_work" / "results"
                   / f"{workload}-{seed}-trace1.json")
    record = json.loads(record_path.read_text())
    record["span_dump"] = json.loads(Path(record["spans"]).read_text())
    return record


@pytest.fixture(scope="module")
def traced():
    return {w: traced_run(w) for w in WORKLOADS}


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    for workload in WORKLOADS:
        for index in range(5):
            assert make_input(workload, 1, index) == make_input(workload, 1, index)
            assert make_input(workload, 1, index) != make_input(workload, 2, index)
        # Ops within a run differ too.
        assert make_input(workload, 1, 0) != make_input(workload, 1, 1)


def test_every_layer_is_called_on_some_workload(traced):
    for layer in LAYERS:
        calls = {w: traced[w]["metrics"][f"{layer}.calls"]["value"]
                 for w in WORKLOADS}
        assert max(calls.values()) > 0, f"{layer} never called: {calls}"


def test_self_times_are_non_negative_and_sum_to_op_time(traced):
    for workload, record in traced.items():
        spans = record["span_dump"]["spans"]
        selfs = self_times(spans)
        assert min(selfs.values()) >= -1e-9
        for op, wall in enumerate(record["traced_times"]):
            total = sum(selfs[s[1]] for s in spans if s[0] == op)
            # The rest is the benchmark's own glue between program calls.
            assert total <= wall
            assert total >= 0.95 * wall - 0.02, (workload, op, total, wall)


def test_counters_repeat_across_two_traced_runs(traced):
    again = traced_run("pipeline")
    first = traced["pipeline"]["metrics"]
    for name, entry in again["metrics"].items():
        if entry["unit"] not in ("s", "MiB") and name != "trace.overhead_frac":
            assert entry["value"] == first[name]["value"], name
