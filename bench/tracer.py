"""Span recorder for the traced benchmark run.

The recorder wraps module attributes and class methods of the library
from outside: it replaces every module-level reference to a wrapped
function in every ``conformal`` module (so ``from .x import f`` call
sites are covered too) and restores the originals on ``uninstall``.

Each wrapped call is one span: name, start, end and the span that
caused it.  Self time is the span's duration minus the time its child
spans cover, computed when the span closes, and calls are counted at
the same boundaries.  Aggregates are exact; the span log itself keeps
the first ``keep_spans`` spans so memory stays bounded on runs with
millions of calls.  Scalar arithmetic is not wrapped (one wrapper per
field operation would cost more than the operation), so its time lands
in the self time of the layer that called it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("linalg", "quadform", "geometry", "metric", "classify",
          "models", "serialize", "cli", "verify")

# QuadraticForm is the quadform layer's hot path: Q(v) and b_full carry
# most enumeration work, so they are spans of their own.
CLASS_METHODS = {"quadform": {"QuadraticForm": ("__call__", "b_full", "b_half",
                                                "restrict", "scaled",
                                                "bilinear_matrix")}}

# functions whose yielded items are counted (generators run in the
# consumer's frame, so they get a count, not a span)
GENERATORS = {"linalg.projective_points", "linalg.all_vectors"}


class Recorder:
    def __init__(self, keep_spans: int = 100_000):
        self.keep_spans = keep_spans
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.spans = []
        self.dropped = 0
        self.yielded = defaultdict(int)
        self.token_calls = itertools.count()
        self.quadric_enumerations = 0
        self.quadric_points = 0
        self.quadric_scanned = 0
        self._stack = []
        self._ids = itertools.count(1)
        self._undo = []

    # -- wrappers ---------------------------------------------------------
    def _span(self, name, fn):
        stack = self._stack
        stats = self.stats
        spans = self.spans
        clock = time.perf_counter
        ids = self._ids
        keep = self.keep_spans
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else 0
            frame = [next(ids), clock(), 0.0, name]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                st = stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if len(spans) < keep:
                    spans.append((frame[0], name, frame[1], end, parent))
                else:
                    rec.dropped += 1
        return wrapper

    def _generator(self, name, fn):
        yielded = self.yielded

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                yielded[name] += n
        return wrapper

    def _quadric(self, fn):
        """lie_quadric_points: a call that scans projective points is a
        cold enumeration; count its yield (points kept / scanned)."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = rec.yielded["linalg.projective_points"]
            out = fn(*args, **kwargs)
            scanned = rec.yielded["linalg.projective_points"] - before
            if scanned:
                rec.quadric_enumerations += 1
                rec.quadric_scanned += scanned
                rec.quadric_points += len(out)
            return out
        return wrapper

    def _counter(self, fn):
        count = self.token_calls

        @functools.wraps(fn)
        def wrapper(self_):
            next(count)
            return fn(self_)
        return wrapper

    # -- installation -----------------------------------------------------
    def install(self):
        mods = {name: importlib.import_module(f"conformal.{name}")
                for name in LAYERS}
        fields = importlib.import_module("conformal.fields")
        replace = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in GENERATORS:
                    wrapped = self._generator(name, obj)
                else:
                    wrapped = self._span(name, obj)
                    if name == "geometry.lie_quadric_points":
                        wrapped = self._quadric(wrapped)
                replace[id(obj)] = (obj, wrapped)
        # every conformal module (and the package) sees the wrappers
        for mod in [m for n, m in sys.modules.items()
                    if n == "conformal" or n.startswith("conformal.")]:
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, obj))
        for layer, classes in CLASS_METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(mods[layer], cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    setattr(cls, meth,
                            self._span(f"{layer}.{cls_name}.{meth}", orig))
                    self._undo.append((cls, meth, orig))
        for cls in (fields.Field, fields.Rational, fields.PrimeField,
                    fields.CharTwo, fields.ApproxReal):
            if "token" in cls.__dict__:
                orig = cls.__dict__["token"]
                setattr(cls, "token", self._counter(orig))
                self._undo.append((cls, "token", orig))

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # -- results ----------------------------------------------------------
    def layer(self, layer):
        """(calls, self seconds) summed over the layer's spans."""
        calls = 0
        self_s = 0.0
        prefix = layer + "."
        for name, (n, _, s) in self.stats.items():
            if name.startswith(prefix):
                calls += n
                self_s += s
        return calls, self_s

    def calls(self, name):
        return self.stats[name][0] if name in self.stats else 0

    def self_s(self, name):
        return self.stats[name][2] if name in self.stats else 0.0

    def token_count(self):
        # itertools.count has no read accessor; next() returns the total
        return next(self.token_calls)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"stats": {k: {"calls": v[0], "total_s": v[1],
                                     "self_s": v[2]}
                                 for k, v in sorted(self.stats.items())},
                       "yielded": dict(self.yielded),
                       "spans_kept": len(self.spans),
                       "spans_dropped": self.dropped,
                       "spans": [{"id": i, "name": n, "start": s,
                                  "end": e, "parent": p}
                                 for i, n, s, e, p in self.spans]}, fh)
