"""Span recorder that wraps the package's public functions from outside.

`install` replaces every public function of each layer module with a
wrapper, in every package namespace that holds it: the module itself (so
calls inside a module are caught, e.g. calibrate_threshold -> peak_search),
other modules that imported it by name (cli's save_wav, load_wav and
load_config, conditioning's encoders) and the package root. `uninstall`
puts the originals back, so untraced ops run the unmodified program.

Each span records its name, start, end, parent span, op id and the
tracemalloc peak above its entry level. Counters are taken at the same
boundaries from call arguments and results. Spans stay in memory until
`dump` writes them at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

PACKAGE = "maskgrid"
LAYERS = ("signal", "stft", "scene", "coding", "conditioning", "estimator",
          "decode", "beamform", "metrics", "container", "config", "cli")

# Per-op counters, named <layer>.<counter>. How each is aggregated over a
# run's ops: "mean" per op, or "max" over all ops.
COUNTERS = {
    "decode.detections": "mean",
    "decode.max_cluster_n": "max",
    "coding.mcells": "mean",
    "container.bytes_written": "mean",
    "container.bytes_read": "mean",
    "signal.bytes_written": "mean",
    "signal.bytes_read": "mean",
    "beamform.bins_solved": "mean",
    "estimator.rows": "mean",
    "metrics.si_sdr_calls": "mean",
    "scene.renders": "mean",
    "conditioning.grids": "mean",
}


def _path_arg(args) -> str | None:
    for a in args:
        if isinstance(a, (str, os.PathLike)):
            return os.fspath(a)
    return None


def _file_bytes(args) -> int:
    path = _path_arg(args)
    return os.path.getsize(path) if path and os.path.exists(path) else 0


class Tracer:
    def __init__(self):
        self.package = importlib.import_module(PACKAGE)
        self.modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
                        for name in LAYERS}
        self.wrappers = {}   # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = self.modules[layer]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    self.wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        # (dict, key, original): module namespaces, plus module-level
        # dispatch tables such as cli.COMMANDS.
        self.patches = []
        namespaces = [vars(m) for m in self.modules.values()]
        namespaces += [v for ns in namespaces for v in ns.values()
                       if isinstance(v, dict)]
        for namespace in namespaces + [vars(self.package)]:
            for attr, value in list(namespace.items()):
                entry = self.wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self.patches.append((namespace, attr, value))
        # Each span: [op, id, parent, layer, name, start, end, peak_bytes].
        # The timing pass records into spans with tracemalloc off; the
        # memory pass records into memory_spans with tracemalloc on, since
        # tracemalloc roughly doubles the time of allocation-heavy loops.
        self.spans = []
        self.memory_spans = []
        self.memory = False
        self.op = -1
        self.counts = defaultdict(float)
        self._stack = []     # [span id, layer, entry bytes, peak bytes]
        self._depth = defaultdict(int)

    def functions(self) -> list:
        return sorted(f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                      for fn, _ in self.wrappers.values())

    def install(self) -> None:
        for namespace, attr, original in self.patches:
            namespace[attr] = self.wrappers[id(original)][1]

    def uninstall(self) -> None:
        for namespace, attr, original in self.patches:
            namespace[attr] = original

    def begin_op(self, op: int, memory: bool = False) -> None:
        self.op = op
        self.memory = memory
        self.counts = defaultdict(float)
        if memory:
            tracemalloc.start()

    def end_op(self) -> dict:
        if self.memory:
            tracemalloc.stop()
        return dict(self.counts)

    def _wrap(self, layer, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(layer, name, fn, args, kwargs)
        return wrapper

    def _call(self, layer, name, fn, args, kwargs):
        spans = self.memory_spans if self.memory else self.spans
        parent = self._stack[-1] if self._stack else None
        current = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent[3] = max(parent[3], peak)
            tracemalloc.reset_peak()
        frame = [len(spans), layer, current, current]
        spans.append(None)
        self._stack.append(frame)
        outermost = self._depth[layer] == 0
        self._depth[layer] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._depth[layer] -= 1
            self._stack.pop()
            if self.memory:
                frame[3] = max(frame[3], tracemalloc.get_traced_memory()[1])
                if parent is not None:
                    parent[3] = max(parent[3], frame[3])
                tracemalloc.reset_peak()
            spans[frame[0]] = [self.op, frame[0],
                               None if parent is None else parent[0],
                               layer, name, start, end, frame[3] - frame[2]]
        try:
            self._count(layer, name, args, result, outermost)
        except (AttributeError, IndexError, TypeError) as err:
            # A changed signature loses a counter, never the program's result.
            print(f"tracer: no count for {layer}.{name}: {err!r}",
                  file=sys.stderr)
        return result

    def _count(self, layer, name, args, result, outermost) -> None:
        c = self.counts
        if layer == "decode":
            if name == "peak_search":
                c["decode.detections"] += len(result)
            elif name == "cluster_doas":
                n = len(args[0])
                c["decode.max_cluster_n"] = max(c["decode.max_cluster_n"], n)
                c["decode.clustered"] += n
                c["decode.kept"] += sum(cl.support for cl in result.clusters)
        elif layer == "coding" and outermost:
            values = getattr(result, "values", None)
            if getattr(values, "ndim", 0) == 3 and hasattr(result, "grid"):
                c["coding.mcells"] += values.size / 1e6
        elif layer in ("container", "signal") and outermost:
            if name.startswith(("save", "write")):
                c[f"{layer}.bytes_written"] += _file_bytes(args)
            elif name.startswith(("load", "read")):
                c[f"{layer}.bytes_read"] += _file_bytes(args)
        elif layer == "beamform" and outermost and isinstance(result, list):
            c["beamform.bins_solved"] += sum(s.values.shape[-1] for s in result)
        elif layer == "estimator" and name in ("forward", "backward"):
            c["estimator.rows"] += args[1].shape[0] * args[1].shape[1]
        elif layer == "metrics" and name == "si_sdr":
            c["metrics.si_sdr_calls"] += 1
        elif layer == "scene" and outermost and name.startswith("simulate_"):
            c["scene.renders"] += 1
        elif layer == "conditioning" and name == "theta_sweep":
            c["conditioning.grids"] += len(result.rows)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["op", "id", "parent", "layer", "name",
                                  "start", "end", "peak_bytes"],
                       "spans": self.spans,
                       "memory_spans": self.memory_spans}, fh)


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    child_time = defaultdict(float)
    for op, sid, parent, layer, name, start, end, peak in spans:
        if parent is not None:
            child_time[parent] += end - start
    return {s[1]: (s[6] - s[5]) - child_time[s[1]] for s in spans}


def per_op_layers(spans) -> dict:
    """op -> layer -> {"self_s", "calls", "peak_bytes"}.

    peak_bytes is the largest tracemalloc peak of the layer's outermost
    spans in that op (spans with no ancestor of the same layer).
    """
    by_id = {s[1]: s for s in spans}
    selfs = self_times(spans)
    out = defaultdict(lambda: {layer: {"self_s": 0.0, "calls": 0,
                                       "peak_bytes": 0} for layer in LAYERS})
    for op, sid, parent, layer, name, start, end, peak in spans:
        entry = out[op][layer]
        entry["self_s"] += selfs[sid]
        entry["calls"] += 1
        ancestor = parent
        while ancestor is not None and by_id[ancestor][3] != layer:
            ancestor = by_id[ancestor][2]
        if ancestor is None:
            entry["peak_bytes"] = max(entry["peak_bytes"], peak)
    return dict(out)
