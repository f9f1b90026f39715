"""In-memory span tracer that wraps a package's functions from outside it.

A span is recorded around every call of a wrapped function: its layer, the
span that was open when it started (its parent), the operation it belongs
to, and its start and end times.  Spans go into flat arrays and stay in
memory until the caller summarizes them or writes them out, so nothing is
written while a measurement runs.

``install`` rebinds each wrapped function in its defining module *and*
wherever another module of the package imported it by name (``from .matrix
import commutes``); patching only the defining module would miss those
calls.  Methods are patched on their class.  ``uninstall`` restores every
binding.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self, package: str, clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.layer_names: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.span_layer = array("H")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter[str] = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layer_names)
            self.layer_names.append(layer)
        return self._layer_ids[layer]

    def _span_wrapper(self, layer: str, fn):
        lid = self._layer_id(layer)
        clock, stack = self.clock, self._stack
        layers, parents, ops = self.span_layer, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            layers.append(lid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _resolve(self, module: str, qualname: str):
        owner = importlib.import_module(module)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        if attr not in vars(owner):
            raise LookupError(f"{module}.{qualname} not found")
        return owner, attr, vars(owner)[attr]

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        prefix = self.package + "."
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == self.package or name.startswith(prefix)):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self, spans, counters=()) -> None:
        """Wrap each ``(layer, module, qualname)`` in ``spans`` with a span
        and each ``(name, module, qualname)`` in ``counters`` with a call
        counter."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        try:
            for layer, module, qualname in spans:
                owner, attr, original = self._resolve(module, qualname)
                self._rebind(owner, attr, original, self._span_wrapper(layer, original))
            for name, module, qualname in counters:
                owner, attr, original = self._resolve(module, qualname)
                self._rebind(owner, attr, original, self._count_wrapper(name, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer calls, total and self time, and parent->child counts.

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        starts, ends, parents, layers = self.span_start, self.span_end, self.span_parent, self.span_layer
        n = len(starts)
        child_time = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_time[p] += ends[i] - starts[i]
        per_layer = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.layer_names}
        nested: Counter[str] = Counter()
        for i in range(n):
            name = self.layer_names[layers[i]]
            dur = ends[i] - starts[i]
            agg = per_layer[name]
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child_time[i]
            p = parents[i]
            if p >= 0:
                nested[f"{self.layer_names[layers[p]]}>{name}"] += 1
        return {"layers": per_layer, "nested": dict(nested), "counts": dict(self.counts)}

    def write_spans(self, path: str) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tlayer\tstart_s\tend_s\n")
            names = self.layer_names
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.span_op[i]}\t{names[self.span_layer[i]]}"
                    f"\t{self.span_start[i]!r}\t{self.span_end[i]!r}\n"
                )
