"""Spans recorded around the benchmark's calls into fusionforge.

A span is recorded for each public library call the benchmark makes,
named ``<layer>.<function>`` after the ``src/fusionforge`` module that
owns the function.  Each op of a workload opens a root span named
``bench.op``; library spans inside it take it as their parent and carry
its op id.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

# span record layout: [id, parent id or None, op id or None, name, start, end]
ID, PARENT, OP, NAME, START, END = range(6)


class Untraced:
    """Calls straight through; the timed run uses this."""

    enabled = False
    spans = ()

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def op(self, op_id):
        return contextlib.nullcontext()


class Tracer:
    """Records one span per call made through :meth:`call`."""

    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None

    @contextlib.contextmanager
    def span(self, name):
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                self._op, name, perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span[ID])
        try:
            yield
        finally:
            span[END] = perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextlib.contextmanager
    def op(self, op_id):
        self._op = op_id
        try:
            with self.span("bench.op"):
                yield
        finally:
            self._op = None


def durations_by_name(spans) -> dict:
    out = defaultdict(float)
    for s in spans:
        out[s[NAME]] += s[END] - s[START]
    return out


def self_time_by_layer(spans) -> dict:
    """Each span's duration minus the part its child spans cover, summed
    per layer (the name up to the first dot)."""
    covered = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            covered[s[PARENT]] += s[END] - s[START]
    out = defaultdict(float)
    for s in spans:
        out[s[NAME].split(".", 1)[0]] += s[END] - s[START] - covered[s[ID]]
    return out
