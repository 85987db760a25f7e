"""Span tracer for the benchmark's traced run.

``Tracer.install()`` wraps the public functions of each radolab module (and
``ColoringSpec.color_array``) and rebinds every module attribute that names
the original, not only the defining one: modules import names directly
(``linear`` does ``from .linalg import columns_condition``), so wrapping
only ``linalg.columns_condition`` would miss the calls made from ``linear``.

A span records name, start, end, parent span and operation id.  Self time
is the time a span spends on top of the span stack.  A generator layer's
span accumulates only the time spent inside ``next()``, never its
consumer's time.  Spans stay in memory until ``write()``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("parser", "model", "univariate", "filters", "linear", "linalg",
           "coloring", "cli")

# Called once per coordinate or per solution: a span each would cost more
# than the work it measures.  Their work shows in the counts taken from the
# values the enclosing layers return.
UNTRACED = {"coloring.color", "coloring.asymptotic_profile",
            "coloring.standard_head", "univariate.evaluate",
            "univariate.normalize", "univariate.cauchy_bound"}


def _census_counts(result) -> dict:
    solutions = result[0].total_solutions if result else 0
    return {"solutions": solutions,
            "valid": sum(c.valid_total() for c in result),
            "pairs": solutions * len(result)}


# per-layer work counts taken from return values
COUNTERS = {
    "linalg.columns_condition": lambda r: {"found": int(r is not None)},
    "linalg.zero_sum_subsets": lambda r: {"subsets_found": len(r)},
    "coloring.profile_census_many": _census_counts,
    "coloring.head_census": lambda r: {"coordinates": r.total_coordinates},
    "coloring.color_array": lambda r: {"bytes": int(r.nbytes)},
}

# span fields
ID, NAME, PARENT, OP, START, END, BUSY, CHILD, YIELDED = range(9)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.op_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self.stack[-1][ID] if self.stack else None
        rec = [len(self.spans), name, parent, self.op_id, None, None, 0.0, 0.0, 0]
        self.spans.append(rec)
        return rec

    def _close(self, rec: list, t0: float, t1: float) -> None:
        self.stack.pop()
        if rec[START] is None:
            rec[START] = t0
        rec[END] = t1
        rec[BUSY] += t1 - t0
        if self.stack:
            self.stack[-1][CHILD] += t1 - t0

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                rec = tracer._open(name)
                try:
                    while True:
                        tracer.stack.append(rec)
                        t0 = perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(rec, t0, perf_counter())
                        rec[YIELDED] += 1
                        yield item
                finally:
                    inner.close()
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            tracer.stack.append(rec)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec, t0, perf_counter())
            if counter is not None:
                for key, value in counter(result).items():
                    tracer.counts[name][key] += value
            return result
        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"radolab.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in UNTRACED
                        or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped[obj] = self._wrap(name, obj)
        holders = [m for n, m in sys.modules.items()
                   if n == "radolab" or n.startswith("radolab.")]
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((holder, attr, obj))
                    setattr(holder, attr, wrapped[obj])
        spec_cls = modules["coloring"].ColoringSpec
        original = spec_cls.color_array
        self._restore.append((spec_cls, "color_array", original))
        spec_cls.color_array = self._wrap("coloring.color_array", original)

    def uninstall(self) -> None:
        for holder, attr, obj in reversed(self._restore):
            setattr(holder, attr, obj)
        self._restore.clear()

    # -- reading -----------------------------------------------------------

    def layers(self) -> dict[str, dict[str, float]]:
        """name -> calls, self_ms, and the counts recorded for it."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_ms": 0.0})
        for rec in self.spans:
            layer = out[rec[NAME]]
            layer["calls"] += 1
            layer["self_ms"] += (rec[BUSY] - rec[CHILD]) * 1e3
            layer["yielded"] = layer.get("yielded", 0) + rec[YIELDED]
        for name, counts in self.counts.items():
            out[name].update(counts)
        return out

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of parent_name spans with at least one child_name child."""
        parents = {rec[PARENT] for rec in self.spans if rec[NAME] == child_name}
        return sum(1 for rec in self.spans
                   if rec[NAME] == parent_name and rec[ID] in parents)

    def cross_module_edges(self) -> int:
        module = [rec[NAME].split(".")[0] for rec in self.spans]
        return sum(1 for rec in self.spans if rec[PARENT] is not None
                   and module[rec[PARENT]] != module[rec[ID]])

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "parent", "op", "start", "end",
                                  "busy_s", "child_s", "yielded"],
                       "spans": self.spans}, fh, separators=(",", ":"))
