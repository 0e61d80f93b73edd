"""In-memory span tracer that wraps public functions of the program.

The program is not edited: :meth:`Tracer.wrap` swaps a function or
method on its module or class for a timing wrapper and
:meth:`Tracer.restore` puts every original back.  Spans are kept in a
list and written out once, when the run ends.
"""

from __future__ import annotations

import inspect
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable

import measure

_clock = time.perf_counter


class Tracer:
    """Spans ``[name, start, end, parent span, request]`` plus counters."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._counter_lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request(self) -> Any:
        """Request id of the calling thread (``None`` outside a request)."""
        return getattr(self._local, "request", None)

    @contextmanager
    def serving(self, request: Any):
        """Tag spans opened by this thread with ``request``."""
        previous = self.request
        self._local.request = request
        try:
            yield
        finally:
            self._local.request = previous

    def add(self, name: str, start: float, end: float,
            request: Any = None) -> None:
        """Record a span measured elsewhere (e.g. a queue wait)."""
        self.spans.append([name, start, end, None, request])

    def count(self, name: str, value: float = 1.0) -> None:
        with self._counter_lock:
            self.counters[name] += value

    def maximum(self, name: str, value: float) -> None:
        with self._counter_lock:
            self.counters[name] = max(self.counters[name], value)

    # -- patching ------------------------------------------------------
    def wrap(self, owner: object, attr: str, name: str,
             after: Callable[..., None] | None = None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``after(result, args, span)`` runs once the call returns, to count
        work from the result.  Class and static methods keep their kind.
        """
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        tracer = self

        def timed(*args, **kwargs):
            stack = tracer._stack()
            span = [name, _clock(), 0.0, stack[-1] if stack else None,
                    tracer.request]
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = _clock()
            if after is not None:
                after(result, args, span)
            return result

        timed.__wrapped__ = fn
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, kind(timed) if kind else timed)

    def restore(self) -> None:
        """Put back every wrapped function, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- summaries -----------------------------------------------------
    def _indexed(self) -> list[tuple[str, float, float, int, Any]]:
        """Spans with the parent as a list index (``-1`` for a root)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [(name, start, end, -1 if parent is None else index[id(parent)],
                 request)
                for name, start, end, parent, request in self.spans]

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        spans = self._indexed()
        selfs = measure.self_times([(s[1], s[2], s[3]) for s in spans])
        table: dict[str, dict[str, float]] = {}
        for span, self_s in zip(spans, selfs):
            row = table.setdefault(span[0], {"calls": 0, "total_s": 0.0,
                                             "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span[2] - span[1]
            row["self_s"] += self_s
        return table

    def dump(self, path) -> None:
        """Write every span and counter as one JSON document."""
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "request"],
            "spans": self._indexed(),
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, default=str)
