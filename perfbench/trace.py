"""In-memory span tracer the benchmark wraps around calls into ``repro``.

Nothing inside ``src/`` is instrumented: the benchmark patches the public
functions and methods it wants to observe (``Tracer.wrap``) with a wrapper
that records one span per call.  A span records its name, start, end, the
index of its parent span (the innermost span open on the same thread when it
started, or -1) and an optional window or request identifier.  Spans stay in
a list until the run ends, when :meth:`Tracer.dump` writes them out.

Self time is a span's duration minus the time its child spans cover; spans
on one thread nest strictly, so that is the duration minus the sum of the
children's durations.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Tracer"]


class Tracer:
    """Collects spans from wrapped calls; undo every patch with :meth:`restore`."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- recording
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, ident) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, time.perf_counter(), 0.0, parent, ident))
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        self._stack().pop()
        name, start, _, parent, ident = self.spans[index]
        self.spans[index] = (name, start, end, parent, ident)

    @contextmanager
    def span(self, name: str, ident=None):
        """Record one span around a block of benchmark code."""
        index = self._open(name, ident)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, owner, attribute: str, name: str, ident=None, on_result=None) -> None:
        """Replace ``owner.attribute`` by a wrapper recording a span per call.

        ``ident(*args, **kwargs)`` names the window or request the call
        serves; ``on_result(result, args)`` sees every return value (for
        counts).  Coroutine functions are not supported.
        """
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name, None if ident is None else ident(*args, **kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if on_result is not None:
                on_result(result, args)
            return result

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -------------------------------------------------------------- analysis
    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _, _ in self.spans if span_name == name]

    def by_ident(self, name: str) -> dict:
        """``{ident: duration}`` for every span called ``name``."""
        return {
            ident: end - start
            for span_name, start, end, _, ident in self.spans
            if span_name == name
        }

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, seconds."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def dump(self, path) -> None:
        """Write every span as ``[name, start, end, parent, ident]`` JSON rows."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [list(span) for span in self.spans]}, handle)

    @staticmethod
    def load(path) -> "Tracer":
        with open(path, encoding="utf-8") as handle:
            rows = json.load(handle)["spans"]
        tracer = Tracer()
        tracer.spans = [
            (name, start, end, parent, tuple(ident) if isinstance(ident, list) else ident)
            for name, start, end, parent, ident in rows
        ]
        return tracer

