"""Span recorder that wraps the public functions of the hlip modules.

Nothing inside hlip is edited: `Tracer.install` replaces every public
function of every hlip module with a timing wrapper, in *every* module
namespace that binds it.  `approx` and `maximal` import functions from
`graph` by name, so patching `hlip.graph` alone would miss those calls.

A span is one call: (name, start, end, parent span, op id, raised, count).
`count` is the work the call did where the layer has a unit of work:
pairs for the pair kernels (from the broadcast shape of the arguments),
iterations for the extension and the descent, bytes for a grid write, and
1 for a nonzero CLI exit.  Spans are kept in memory and written to a CSV
file at the end; `layer_metrics` turns a span file into per-layer metrics.
"""

from __future__ import annotations

import csv
import functools
import inspect
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "op", "raised", "count")

# pair kernels: work is the broadcast size of the two point arrays
PAIR_KERNELS = ("core.pi_rel_norm", "core.dinf", "core.w_dinf")


def _pairs(args, kwargs) -> int:
    p, q = args[0], args[1]
    shape = np.broadcast_shapes(np.shape(p)[:-1], np.shape(q)[:-1])
    return math.prod(shape)


def _iterations(result) -> int:
    # extend_lipschitz returns (GridFunction, ExtensionReport); solve a SolveReport
    report = result[1] if isinstance(result, tuple) else result
    return int(report.iterations)


def _written_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


# name -> (hook on the arguments before the call, hook on the result after it)
COUNTERS = {
    **{name: (_pairs, None) for name in PAIR_KERNELS},
    "graph.extend_lipschitz": (None, lambda a, k, r: _iterations(r)),
    "optimize.solve": (None, lambda a, k, r: _iterations(r)),
    "fileio.write_grid": (None, _written_bytes),
    "cli.main": (None, lambda a, k, r: int(r != 0)),
}

LAYERS = ("core", "graph", "surface", "optimize", "maximal", "approx", "generators", "fileio", "cli")


def public_functions(module) -> dict:
    """Public callables defined in `module`: its __all__, or its non-underscore names."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name)
        if inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        out[name] = obj
    return out


class Tracer:
    """Records spans for every call into a wrapped hlip function."""

    def __init__(self):
        self.spans: list = []
        self.op = "setup"
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        before, after = COUNTERS.get(name, (None, None))
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count = before(args, kwargs) if before is not None else 0
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (idx, name, start, clock(), parent, self.op, 1, count)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            if after is not None:
                count = after(args, kwargs, result)
            spans[idx] = (idx, name, start, end, parent, self.op, 0, count)
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of every public hlip function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "hlip" or name.startswith("hlip."))
        }
        wrapped = {}
        for mod in modules.values():
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for fname, fn in public_functions(mod).items():
                wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="ascii") as fh:
            out = csv.writer(fh)
            out.writerow(SPAN_FIELDS)
            out.writerows(s for s in self.spans if s is not None)


def read_spans(path) -> list[dict]:
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    conv = {"id": int, "start": float, "end": float, "parent": int, "raised": int, "count": int}
    return [{k: conv.get(k, str)(v) for k, v in row.items()} for row in rows]


class SpanStats:
    """Per-name aggregates over a span list: calls, raised, count, total, self time."""

    def __init__(self, spans: list[dict]):
        by_id = {s["id"]: s for s in spans}
        child = defaultdict(float)
        for s in spans:
            if s["parent"] >= 0:
                child[s["parent"]] += s["end"] - s["start"]
        self.calls = defaultdict(int)
        self.raised = defaultdict(int)
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.by_parent = defaultdict(float)  # (name, parent name) -> total time
        self.layer_total = defaultdict(float)
        for s in spans:
            name, dur = s["name"], s["end"] - s["start"]
            self_s = dur - child[s["id"]]
            self.calls[name] += 1
            self.raised[name] += s["raised"]
            self.count[name] += s["count"]
            self.self_time[name] += self_s
            ancestors = []
            p = s["parent"]
            while p >= 0:
                ancestors.append(by_id[p]["name"])
                p = by_id[p]["parent"]
            # total time counts outermost calls only, so recursion is not doubled
            if name not in ancestors:
                self.total[name] += dur
            layer = name.partition(".")[0]
            if not any(a.partition(".")[0] == layer for a in ancestors):
                self.layer_total[layer] += dur
            parent_name = ancestors[0] if ancestors else ""
            self.by_parent[(name, parent_name)] += dur
