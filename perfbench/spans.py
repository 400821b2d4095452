"""Spans around calls into harvestsched, installed from outside the package.

The package imports functions by name into several modules (``score`` lives
in ``model`` and is bound again in ``convex`` and ``cli``), so a wrapper on
one module attribute misses calls made through the other bindings.
:class:`Patches` therefore replaces every binding of a function in every
package namespace, and restores them in reverse order.

:class:`Tracer` wraps each public function of the six layer modules, plus
``numpy.linalg.solve``.  Every call becomes one span ``(name, start, end,
parent, size, owner)`` kept in memory; ``size`` is the order of the solved
system and ``owner`` the innermost open ``convex`` span, both only for the
linear solves.  Nothing is written until :meth:`Tracer.summary` aggregates
the spans at the end of the run.  A span's self time is its duration minus
the time its direct children cover.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "convex", "model", "structure", "heuristics", "oracle2x2")
LINALG = "numpy.linalg.solve"


class Patches:
    """Replace attributes and put the originals back, last patch first."""

    def __init__(self):
        self._saved = []

    def set(self, namespace, attr, value):
        self._saved.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def rebind(self, namespaces, original, replacement):
        """Point every attribute that holds ``original`` at ``replacement``."""
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self.set(ns, attr, replacement)

    def restore(self):
        while self._saved:
            namespace, attr, value = self._saved.pop()
            setattr(namespace, attr, value)


def public_functions(module):
    """Public functions defined in ``module`` itself, not re-exported ones."""
    return [
        (name, fn)
        for name, fn in sorted(vars(module).items())
        if not name.startswith("_")
        and inspect.isfunction(fn)
        and fn.__module__ == module.__name__
    ]


class Tracer:
    """In-memory span recorder for the layer functions and the linear solves."""

    def __init__(self, api):
        self.api = api
        self.spans: list = []
        self._open: list = []  # (span index, name) of the calls in progress
        self._patches = Patches()
        self._solve = None
        self._originals: dict = {}  # id of each wrapped function -> span name

    def install(self):
        namespaces = self.api.namespaces()
        for layer in LAYERS:
            for name, fn in public_functions(self.api.modules[layer]):
                self._originals[id(fn)] = f"{layer}.{name}"
                self._patches.rebind(namespaces, fn, self._wrap(f"{layer}.{name}", fn))
        self._solve = self._wrap_solve(np.linalg.solve)
        self._patches.set(np.linalg, "solve", self._solve)
        return self

    def uninstall(self):
        self._patches.restore()

    def unwrapped_bindings(self):
        """``module.attr`` names that still bind an original layer function."""
        missed = [
            f"{ns.__name__}.{attr}"
            for ns in self.api.namespaces()
            for attr, value in vars(ns).items()
            if id(value) in self._originals
        ]
        if np.linalg.solve is not self._solve:
            missed.append(LINALG)
        return missed

    def _wrap(self, name, fn):
        spans, opened, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = opened[-1][0] if opened else -1
            spans.append(None)
            opened.append((idx, name))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                opened.pop()
                spans[idx] = (name, start, end, parent, 0, "")

        return traced

    def _wrap_solve(self, solve):
        spans, opened, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(solve)
        def traced_solve(a, b):
            owner = next((n for _, n in reversed(opened) if n.startswith("convex.")), "")
            parent = opened[-1][0] if opened else -1
            start = clock()
            try:
                return solve(a, b)
            finally:
                end = clock()
                spans.append((LINALG, start, end, parent, int(np.shape(a)[0]), owner))

        return traced_solve

    def summary(self):
        """Per-function, per-layer and per-owner aggregates of the spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        funcs = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        linalg = defaultdict(lambda: {"calls": 0, "s": 0.0, "n_max": 0})
        top_level_s = 0.0
        for i, (name, start, end, parent, size, owner) in enumerate(self.spans):
            dur = end - start
            f = funcs[name]
            f["calls"] += 1
            f["s"] += dur
            f["self_s"] += dur - child[i]
            if parent < 0:
                top_level_s += dur
            if name == LINALG:
                o = linalg[owner]
                o["calls"] += 1
                o["s"] += dur
                o["n_max"] = max(o["n_max"], size)
        layers = defaultdict(float)
        for name, f in funcs.items():
            layers["linalg" if name == LINALG else name.split(".", 1)[0]] += f["self_s"]
        return {
            "functions": dict(sorted(funcs.items())),
            "linalg_by_owner": dict(linalg),
            "layer_self_s": dict(sorted(layers.items())),
            "top_level_s": top_level_s,
            "spans": len(self.spans),
        }
