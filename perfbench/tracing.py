"""Spans around the package's public functions, installed from outside.

The package is not instrumented; this module rebinds functions while a
traced pass runs.  ``from .numlin import hermitian_eig`` gives ``cstarcat``
its own reference, so a wrapper replaces the original in *every* package
module that holds it, and methods are wrapped on their class.  Spans
(name, start, end, parent) stay in memory and are summarized, or written
out, only after the timed passes.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

from cstardual import cli, cstarcat, duality, functors, generators, jsonio, numlin, spaceoid

LAYERS = {
    "numlin": numlin,
    "cstarcat": cstarcat,
    "spaceoid": spaceoid,
    "functors": functors,
    "duality": duality,
    "jsonio": jsonio,
    "cli": cli,
    "generators": generators,
}

# Methods called in the hot loops the per-layer metrics are about.
METHODS = {
    "cstarcat": (cstarcat.FiniteCStarCategory, ("compose", "characters", "corner_matching")),
    "spaceoid": (spaceoid.FiniteSpaceoid, ("components",)),
}

# Helpers called per number, per point or per comparison: a span around each
# call would cost about as much as the call, so their time stays with the
# caller.
UNWRAPPED = {"jsonio.complex_to_json", "jsonio.array_to_json", "jsonio.json_to_complex",
             "jsonio.point_id", "numlin.max_abs"}


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self._stack = []
        self._patches = []   # (namespace, attribute, original, wrapper)
        self._plan()

    def wrap(self, name, fn):
        """``fn`` with a span named ``name`` around each call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
        return traced

    def _plan(self):
        wrappers = {}  # original -> wrapper
        for layer, mod in LAYERS.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    wrappers[obj] = self.wrap(name, obj)
        for mod in LAYERS.values():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj, wrappers[obj]))
        for layer, (cls, names) in METHODS.items():
            for attr in names:
                fn = cls.__dict__[attr]
                self._patches.append((cls, attr, fn, self.wrap(f"{layer}.{attr}", fn)))

    def install(self):
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, orig, _ in self._patches:
            setattr(ns, attr, orig)

    def summary(self, first=0):
        """Per-name ``{"s": self seconds, "calls": n}`` over the spans from
        index ``first`` on.  Self time is a span's duration minus that of
        its direct children."""
        own = {}
        child = {}
        for idx in range(first, len(self.spans)):
            name, start, end, parent = self.spans[idx]
            if parent >= first:
                child[parent] = child.get(parent, 0.0) + (end - start)
        for idx in range(first, len(self.spans)):
            name, start, end, _ = self.spans[idx]
            entry = own.setdefault(name, {"s": 0.0, "calls": 0})
            entry["s"] += (end - start) - child.get(idx, 0.0)
            entry["calls"] += 1
        return own

    def write(self, path):
        """All spans as JSON lines: name, start, end, parent index."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
