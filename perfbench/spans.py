"""Spans recorded from outside the program, around its public functions.

:class:`SpanRecorder` patches a named function or method so every call
records a :class:`Span` (name, start, end, parent, trace id). A span's
parent is the innermost open span on the same thread, or a context
handed across a thread or socket boundary with :meth:`SpanRecorder.adopt`.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]


class Span:
    """One timed call: ``[start, end)`` on the process's monotonic clock."""

    __slots__ = ("span_id", "parent_id", "trace_id", "name", "start", "end", "attrs")

    def __init__(self, span_id, parent_id, trace_id, name, start, attrs):
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.name = name
        self.start = start
        self.end = start
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "trace": self.trace_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


def covered(intervals: Iterable[Interval], within: Interval) -> float:
    """Length of the union of ``intervals`` clipped to ``within``."""
    lo, hi = within
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(span: Span, children: Sequence[Span]) -> float:
    """The span's duration minus the part its children cover.

    Children may overlap each other (concurrent work on other threads) or
    run past the parent's end; only the union inside the parent counts.
    """
    return span.duration - covered(((c.start, c.end) for c in children), (span.start, span.end))


class SpanRecorder:
    """Collects spans from patched functions; one per benchmark process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- context ---------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def context(self) -> Optional[List[int]]:
        """``[trace_id, span_id]`` of the open span, to send across a boundary."""
        span = self.current()
        return None if span is None else [span.trace_id, span.span_id]

    @contextmanager
    def adopt(self, context: Optional[Sequence[int]]) -> Iterator[None]:
        """Make spans opened inside this block children of a remote span."""
        if not context:
            yield
            return
        remote = Span(int(context[1]), None, int(context[0]), "remote", 0.0, None)
        stack = self._stack()
        stack.append(remote)
        try:
            yield
        finally:
            stack.remove(remote)

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Time the block as a span under the current one."""
        parent = self.current()
        span_id = next(self._ids)
        span = Span(
            span_id,
            parent.span_id if parent is not None else None,
            parent.trace_id if parent is not None else span_id,
            name,
            time.perf_counter(),
            attrs or None,
        )
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until :meth:`restore`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def wrap(
        self, owner, attr: str, name: str,
        attrs: Optional[Callable] = None, annotate: Optional[Callable] = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``attrs(args, kwargs)`` gives span attributes before the call;
        ``annotate(span, args, result)`` adds more after it returned,
        outside the timed interval.
        """
        recorder = self

        def make(original):
            def traced(*args, **kwargs):
                with recorder.span(name, **(attrs(args, kwargs) if attrs else {})) as span:
                    result = original(*args, **kwargs)
                if annotate is not None:
                    annotate(span, args, result)
                return result

            return traced

        self.patch(owner, attr, make)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def children(self) -> Dict[int, List[Span]]:
        """Parent span id -> its child spans."""
        out: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent_id is not None:
                out.setdefault(span.parent_id, []).append(span)
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(span.to_dict()) + "\n")
