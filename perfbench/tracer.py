"""Spans and counts around the calls into fanokit's layers.

The tracer wraps each entry point in ``ENTRY_POINTS`` at every name its
callers look up (module globals of the fanokit package, or ``__init__``
for a class), records one span per call in memory, and restores the
originals on exit.  Nothing inside fanokit is edited: the spans sit at
the layer boundaries, seen from the caller's side.

Calls made inside the lattice backend's own module are left alone: the
compiled twin cannot be wrapped there, so skipping them on both
backends keeps the counts comparable.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from math import comb, prod
from typing import Callable

BACKEND_MODULES = ("fanokit._kernel", "fanokit._kernel_py")


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _hull(args, kwargs, result) -> dict:
    dim, verts = _arg(args, kwargs, 0, "dim"), _arg(args, kwargs, 1, "vertices")
    return {"attempts": comb(len(verts), dim), "useful": len(result)}


def _basic_feasible(args, kwargs, result) -> dict:
    dim, rows = _arg(args, kwargs, 0, "dim"), _arg(args, kwargs, 1, "rows")
    return {"attempts": comb(len(rows), dim), "useful": len(result)}


def _samples(args, kwargs, result) -> dict:
    return {"samples": len(_arg(args, kwargs, 0, "xs"))}


def _profile(args, kwargs, result) -> dict:
    Z = _arg(args, kwargs, 1, "Z")
    return {"divisor": int(getattr(Z, "boundary_ray", None) is not None)}


def _hits(args, kwargs, result) -> dict:
    return {"hits": int(bool(result))}


def _pairs(args, kwargs, result) -> dict:
    return {"pairs": len(args[0]) * len(args[1])}


def _minimalize(args, kwargs, result) -> dict:
    return {"gens_in": len(args[0]), "gens_out": len(result)}


def _count(args, kwargs, result) -> dict:
    return {"points_in": len(args[0])}


def _filter(args, kwargs, result) -> dict:
    return {"points_in": len(args[0]), "points_kept": len(result)}


def _enum(args, kwargs, result) -> dict:
    lo, hi = args[2], args[3]
    return {"box_points": prod(max(0, int(b) - int(a) + 1) for a, b in zip(lo, hi)),
            "points_out": len(result)}


# (module, attribute, reported metrics, counter over (args, kwargs, result)).
# Metric kinds: calls, busy_s (outermost calls only), self_s (minus the
# time of child spans), yield (useful / attempts), or a counter's key.
ENTRY_POINTS: tuple[tuple[str, str, tuple[str, ...], Callable | None], ...] = (
    ("polytope", "hull_facets", ("calls", "busy_s", "self_s", "yield"), _hull),
    ("polytope", "enumerate_basic_feasible", ("calls", "busy_s", "self_s", "yield"),
     _basic_feasible),
    ("polytope", "sliced_volume_function", ("calls", "busy_s"), None),
    ("polytope", "lattice_points", ("calls", "busy_s"), None),
    ("linalg", "solve", ("calls", "self_s"), None),
    ("piecewise", "fit_polynomial", ("calls", "samples", "busy_s"), _samples),
    ("subscheme", "NewtonPolyhedron", ("calls", "busy_s"), None),
    ("subscheme", "is_integrally_closed", ("calls", "busy_s"), None),
    ("volumes", "blowup_volume_profile", ("calls", "busy_s"), _profile),
    ("oracles", "counting_profile", ("calls", "busy_s"), None),
    ("exactlp", "solve_lp", ("calls", "busy_s"), None),
    ("lct", "lct_monomial", ("busy_s",), None),
    ("lct", "lct_on_product_with_line", ("busy_s",), None),
    ("lattice", "dominates_any", ("calls", "hits", "busy_s"), _hits),
    ("lattice", "minkowski_sum", ("calls", "pairs", "busy_s"), _pairs),
    ("lattice", "minimalize", ("calls", "gens_in", "gens_out", "busy_s"), _minimalize),
    ("lattice", "count_points_in_ideals", ("calls", "points_in", "busy_s"), _count),
    ("lattice", "filter_points_in_ideals",
     ("calls", "points_in", "points_kept", "busy_s"), _filter),
    ("lattice", "enum_points", ("calls", "box_points", "points_out", "busy_s"), _enum),
    ("filtration", "ideal_power_filtration", ("busy_s",), None),
    ("filtration", "compute_weight_series", ("busy_s",), None),
    ("filtration", "saturate", ("calls", "busy_s"), None),
    ("filtration", "find_r1", ("busy_s",), None),
    ("stability", "semistability_scan", ("busy_s",), None),
    ("stability", "beta", ("calls", "busy_s"), None),
    ("stability", "ding_weight_series", ("busy_s",), None),
)

ROUTES = ("slice", "point", "newton", "counting")


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = [f"{mod}.{attr}.{kind}" for mod, attr, kinds, _ in ENTRY_POINTS
             for kind in kinds]
    names += [f"volumes.route.{r}" for r in ROUTES]
    return names + ["process.cpu_s", "trace.overhead_s"]


class Tracer:
    """Context manager that wraps the entry points and records spans.

    A span is (id, name, start, end, thread CPU seconds, parent id,
    thread id, counts); the parent is the innermost open span of the
    same thread, so calls made on the scan's worker threads start their
    own trees.  Wall times of concurrent threads include waits for the
    interpreter lock; the CPU seconds do not.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func: Callable, counter: Callable | None) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local
        clock, cpu_clock = time.perf_counter, time.thread_time

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            counts = None
            cpu = cpu_clock()
            start = clock()
            try:
                result = func(*args, **kwargs)
                if counter is not None:
                    counts = counter(args, kwargs, result)
                return result
            finally:
                end = clock()
                cpu = cpu_clock() - cpu
                stack.pop()
                spans.append((sid, name, start, end, cpu, parent,
                              threading.get_ident(), counts))

        traced.__wrapped__ = func
        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in list(sys.modules.items())
                   if (key == "fanokit" or key.startswith("fanokit."))
                   and key not in BACKEND_MODULES]
        for mod_name, attr, _, counter in ENTRY_POINTS:
            name = f"{mod_name}.{attr}"
            try:
                target = getattr(importlib.import_module(f"fanokit.{mod_name}"), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            if isinstance(target, type):
                init = target.__dict__["__init__"]
                self._patch(target, "__init__", self._wrap(name, init, counter))
                continue
            wrapper = self._wrap(name, target, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is target:
                        self._patch(module, key, wrapper)
        return self

    def _patch(self, owner: object, key: str, value: object) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over every span recorded; absent entry
        points report 0."""
        by_id = {s[0]: s for s in self.spans}
        child_time: dict[int, float] = {}
        children: dict[int, list[str]] = {}
        for sid, name, start, end, _, parent, _, _ in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
                children.setdefault(parent, []).append(name)

        def outermost(span) -> bool:
            parent = span[5]
            while parent:
                above = by_id[parent]
                if above[1] == span[1]:
                    return False
                parent = above[5]
            return True

        agg: dict[str, dict[str, float]] = {}
        routes = dict.fromkeys(ROUTES, 0)
        for span in self.spans:
            sid, name, start, end, _, _, _, counts = span
            a = agg.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            a["calls"] += 1
            a["self_s"] += end - start - child_time.get(sid, 0.0)
            if outermost(span):
                a["busy_s"] += end - start
            for key, value in (counts or {}).items():
                a[key] = a.get(key, 0) + value
            if name == "volumes.blowup_volume_profile" and counts is not None:
                below = children.get(sid, ())
                if "oracles.counting_profile" in below:
                    routes["counting"] += 1
                elif "polytope.sliced_volume_function" in below:
                    routes["slice" if counts["divisor"] else "point"] += 1
                else:
                    routes["newton"] += 1

        out: dict[str, float] = {}
        for mod_name, attr, kinds, _ in ENTRY_POINTS:
            a = agg.get(f"{mod_name}.{attr}", {})
            for kind in kinds:
                if kind == "yield":
                    attempts = a.get("attempts", 0)
                    value = a.get("useful", 0) / attempts if attempts else 0.0
                else:
                    value = a.get(kind, 0)
                out[f"{mod_name}.{attr}.{kind}"] = value
        for route, value in routes.items():
            out[f"volumes.route.{route}"] = value
        return out

    def layer_cpu(self) -> dict[str, float]:
        """Thread CPU seconds per module layer, over the spans with no
        ancestor in the same layer."""
        by_id = {s[0]: s for s in self.spans}
        busy: dict[str, float] = {}
        for _, name, _, _, cpu, parent, _, _ in self.spans:
            layer = name.split(".")[0]
            while parent and by_id[parent][1].split(".")[0] != layer:
                parent = by_id[parent][5]
            if not parent:
                busy[layer] = busy.get(layer, 0.0) + cpu
        return busy

    def write(self, path) -> None:
        """Spans as gzipped JSON lines, times relative to the first start."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid, name, start, end, cpu, parent, thread, counts in self.spans:
                fh.write(json.dumps([sid, name, start - t0, end - t0, cpu,
                                     parent, thread, counts]) + "\n")
