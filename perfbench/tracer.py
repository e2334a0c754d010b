"""Span tracer that wraps exqip's public functions from outside the program.

Installing a :class:`Tracer` replaces every public module-level function of
the layers listed in ``LAYERS`` with a wrapper that records a span
``(name, start, end, parent, operation id)``.  Spans stay in memory until
:meth:`Tracer.write` is called at the end of the run.  ``numpy.linalg.svd``
is wrapped too, without a span of its own: the bytes of its input and of the
U, s and Vt it returns (computed from their shapes) are added to the span
that called it.  Nothing inside the program is changed on disk.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import threading
import time

LAYERS = ("linalg", "combs", "gqi", "testers", "channels", "suites", "fileio", "cli")

# Index of each field in a span record.
NAME, START, END, PARENT, OP, EXTRA = range(6)


def _len(args, kwargs, result):
    return len(result)


def _file_bytes(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    return os.path.getsize(path)


# Per-call quantities recorded in a span's EXTRA field.
EXTRAS = {
    "linalg.support_basis": _len,
    "combs.comb_variable_basis": _len,
    "fileio.save_object": _file_bytes,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._local = threading.local()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        spans = self.spans
        stack_of = self._stack
        extra = EXTRAS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = stack_of()
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            spans.append(rec)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                rec[START] = start
                stack.pop()
            if extra is not None:
                rec[EXTRA] += extra(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _wrap_svd(self, svd):
        spans = self.spans
        stack_of = self._stack

        def traced_svd(a, *args, **kwargs):
            result = svd(a, *args, **kwargs)
            stack = stack_of()
            if stack:
                parts = result if isinstance(result, tuple) else (result,)
                spans[stack[-1]][EXTRA] += getattr(a, "nbytes", 0) + sum(p.nbytes for p in parts)
            return result

        return traced_svd

    def install(self) -> None:
        """Wrap the public functions of every layer, and every other module
        attribute (such as the package's re-exports) bound to one of them."""
        import numpy as np

        pkg = importlib.import_module("exqip")
        modules = {m: importlib.import_module(f"exqip.{m}") for m in LAYERS}
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapped[id(obj)] = self._wrap(obj, f"{short}.{attr}")
        for mod in [pkg, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        self._restore.append((np.linalg, "svd", np.linalg.svd))
        np.linalg.svd = self._wrap_svd(np.linalg.svd)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def read_spans(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def aggregate(spans) -> dict:
    """Per span name: calls, total and self seconds, summed and largest EXTRA.

    A span's self time is its duration minus the durations of its direct
    children (spans of one thread nest, so children never overlap).
    ``spans`` may hold several independently indexed lists (one per process).
    """
    out = {}
    for group in spans:
        child = [0.0] * len(group)
        for rec in group:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        for i, rec in enumerate(group):
            dur = rec[END] - rec[START]
            agg = out.setdefault(rec[NAME], {"calls": 0, "total": 0.0, "self": 0.0, "extra": 0, "extra_max": 0})
            agg["calls"] += 1
            agg["total"] += dur
            agg["self"] += dur - child[i]
            agg["extra"] += rec[EXTRA]
            agg["extra_max"] = max(agg["extra_max"], rec[EXTRA])
    return out
