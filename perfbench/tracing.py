"""Spans and call counters recorded from outside the program.

A span wraps one call into a layer's public function; a counter wraps a
callable that the benchmark hands to the program (``rhs``, ``damping_of``,
``rhs_of``) and adds its calls and seconds to the innermost open span.
Everything is kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        record = {
            "id": len(self.spans),
            "parent": self._open[-1]["id"] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def counted(self, name, fn):
        """``fn`` with its calls and time added to the open span's counts."""

        def wrapper(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                elapsed = time.perf_counter() - start
                if self._open:
                    calls, seconds = self._open[-1]["counts"].get(name, (0, 0.0))
                    self._open[-1]["counts"][name] = (calls + 1, seconds + elapsed)

        return wrapper

    def totals(self, name, counter):
        """Calls, counted seconds and span seconds of ``counter`` under spans ``name``."""
        calls = seconds = wall = 0.0
        for span in self.spans:
            if span["name"] == name:
                c, s = self._subtree_counts(span, counter)
                calls, seconds = calls + c, seconds + s
                wall += span["end"] - span["start"]
        return calls, seconds, wall

    def _subtree_counts(self, root, counter):
        calls, seconds = root["counts"].get(counter, (0, 0.0))
        for span in self.spans:
            if span["parent"] == root["id"]:
                c, s = self._subtree_counts(span, counter)
                calls, seconds = calls + c, seconds + s
        return calls, seconds

    def self_times(self):
        """Seconds per span name, minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child[span["parent"]] += span["end"] - span["start"]
        out = {}
        for span, covered in zip(self.spans, child):
            own = span["end"] - span["start"] - covered
            out[span["name"]] = out.get(span["name"], 0.0) + own
        return out

    def write(self, path, extra):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "self_s": self.self_times(), **extra},
                      fh, indent=1)


class NullTracer:
    """Tracing off: spans cost one context manager, callables pass through."""

    @contextmanager
    def span(self, name):
        yield None

    def counted(self, name, fn):
        return fn


def overhead_s(tracer, samples=20000):
    """Seconds ``tracer`` added: its spans and counted calls times their unit
    costs, measured here against an empty call."""
    probe = Tracer()
    counted = probe.counted("noop", _noop)
    with probe.span("probe"):
        start = time.perf_counter()
        for _ in range(samples):
            counted()
        mid = time.perf_counter()
        for _ in range(samples):
            _noop()
        end = time.perf_counter()
    call_cost = max(0.0, (mid - start) - (end - mid)) / samples
    start = time.perf_counter()
    for _ in range(samples):
        with probe.span("noop"):
            pass
    span_cost = (time.perf_counter() - start) / samples
    calls = sum(c for span in tracer.spans for c, _ in span["counts"].values())
    return len(tracer.spans) * span_cost + calls * call_cost


def _noop():
    return None
