"""Structured tracing and metrics: the ``repro.obs`` substrate.

The SDB paper's evaluation hinges on *seeing* what the runtime decided and
what every battery did at fine time steps (the Section 3.3 directives,
Figure 10's validation, the Figure 13/14 workload studies). A
:class:`Tracer` is the single collection point for that visibility:

* **counters** — monotonically increasing named integers ("how many ratio
  commands were pushed", "how many steps ran vectorized");
* **timers** — wall-clock duration samples per name, with percentile
  summaries ("how long does one policy tick take");
* **records** — typed, simulation-time-stamped events and spans ("the
  runtime chose these discharge ratios at t=3600 s", "this vectorized
  chunk covered [t0, t0+dur)").

Record names are dotted: the prefix before the first dot is the record's
*category* (``runtime``, ``emulator``, ``engine``, ``hw``, ``fault``) and
becomes the lane in the Chrome-trace export (see
:mod:`repro.obs.export`).

Zero overhead when disabled
---------------------------

Every instrumented component holds a tracer unconditionally; the disabled
case is the :class:`NullTracer` singleton (:data:`NULL_TRACER`), whose
methods are no-ops and whose :meth:`~Tracer.timer` hands back a shared
no-op context manager that never reads the clock. Hot loops additionally
guard per-step record emission behind ``tracer.enabled`` so a disabled run
costs at most a few no-op calls per step — unmeasurable against the
emulator's physics (the CI perf gate in ``benchmarks/check_regression.py``
runs with tracing disabled and must keep passing).

Thread safety
-------------

One :class:`Tracer` may be shared by many threads (HTTP handler threads,
node handler threads, a lease pump): :meth:`~Tracer.count`,
:meth:`~Tracer.event` and :meth:`~Tracer.span` take the tracer's own
lock, so no count or record is lost. :class:`NullTracer` takes no lock.

Components pick up the *process default* tracer
(:func:`get_default_tracer`, normally :data:`NULL_TRACER`) at
construction, so existing experiment drivers become traceable without
signature changes: wrap the call in :func:`use_tracer` or pass
``--trace`` on the CLI.
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

__all__ = [
    "TraceRecord",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_default_tracer",
    "set_default_tracer",
    "use_tracer",
    "percentile",
]


@dataclass(frozen=True)
class TraceRecord:
    """One typed trace entry: an instant event or a duration span.

    Attributes:
        kind: ``"event"`` (instant) or ``"span"`` (has a duration).
        name: dotted record name, e.g. ``"runtime.ratio_decision"``.
        t_s: simulation time the record refers to, seconds.
        dur_s: span duration in simulation seconds (0 for events).
        fields: arbitrary JSON-serializable payload.
    """

    kind: str
    name: str
    t_s: float
    dur_s: float = 0.0
    fields: dict = field(default_factory=dict)

    @property
    def category(self) -> str:
        """The lane this record renders in: the name's first dotted part."""
        return self.name.split(".", 1)[0]


class _TimerHandle:
    """Reusable (non-reentrant) context manager accumulating durations."""

    __slots__ = ("_samples", "_clock", "_t0")

    def __init__(self, samples: List[float], clock: Callable[[], float]):
        self._samples = samples
        self._clock = clock
        self._t0 = 0.0

    def __enter__(self) -> "_TimerHandle":
        self._t0 = self._clock()
        return self

    def __exit__(self, *exc) -> bool:
        self._samples.append(self._clock() - self._t0)
        return False


class _NullTimer:
    """Shared no-op context manager; never touches the clock."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_TIMER = _NullTimer()


def percentile(sorted_samples: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample list (0 when empty)."""
    if not sorted_samples:
        return 0.0
    rank = min(len(sorted_samples) - 1, max(0, math.ceil(q * len(sorted_samples)) - 1))
    return sorted_samples[rank]


class Tracer:
    """Collects counters, wall-clock timers, and typed trace records.

    Args:
        clock: wall-clock source for timers (injectable for tests);
            defaults to :func:`time.perf_counter`.
    """

    #: Hot paths branch on this to skip record construction entirely.
    enabled: bool = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.counters: Counter = Counter()
        self.records: List[TraceRecord] = []
        self._clock = clock
        self._timer_samples: Dict[str, List[float]] = {}
        self._timer_handles: Dict[str, _TimerHandle] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Collection
    # ------------------------------------------------------------------ #

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter called ``name``."""
        with self._lock:
            self.counters[name] += n

    def event(self, name: str, t_s: float, **fields) -> None:
        """Record an instant event at simulation time ``t_s``."""
        record = TraceRecord("event", name, float(t_s), 0.0, fields)
        with self._lock:
            self.records.append(record)

    def span(self, name: str, t_s: float, dur_s: float, **fields) -> None:
        """Record a span covering ``[t_s, t_s + dur_s)`` simulation time."""
        record = TraceRecord("span", name, float(t_s), float(dur_s), fields)
        with self._lock:
            self.records.append(record)

    def timer(self, name: str) -> _TimerHandle:
        """A ``with``-able wall-clock timer accumulating under ``name``.

        Handles are cached per name and reused, so calling this in a hot
        loop allocates nothing after the first use. Handles are *not*
        reentrant: do not nest two ``with`` blocks on the same name.
        """
        handle = self._timer_handles.get(name)
        if handle is None:
            samples = self._timer_samples.setdefault(name, [])
            handle = self._timer_handles[name] = _TimerHandle(samples, self._clock)
        return handle

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    def timer_names(self) -> List[str]:
        """Names of every timer that collected at least one sample."""
        return sorted(name for name, s in self._timer_samples.items() if s)

    def timer_samples(self, name: str) -> List[float]:
        """Raw duration samples (seconds) recorded under ``name``."""
        return list(self._timer_samples.get(name, ()))

    def timer_total_s(self, name: str) -> float:
        """Total wall-clock seconds accumulated under ``name``."""
        return sum(self._timer_samples.get(name, ()))

    def timer_stats(self, name: str) -> Dict[str, float]:
        """Count, total, and nearest-rank percentiles for one timer."""
        samples = sorted(self._timer_samples.get(name, ()))
        total = sum(samples)
        return {
            "count": len(samples),
            "total_s": total,
            "mean_s": total / len(samples) if samples else 0.0,
            "p50_s": percentile(samples, 0.50),
            "p90_s": percentile(samples, 0.90),
            "p99_s": percentile(samples, 0.99),
            "max_s": samples[-1] if samples else 0.0,
        }

    def events_named(self, name: str) -> List[TraceRecord]:
        """Every record (event or span) with exactly this name."""
        return [r for r in self.records if r.name == name]

    def summary(self) -> str:
        """Terminal-ready counter/timer table (see :mod:`repro.obs.export`)."""
        from repro.obs.export import summary_table

        return summary_table(self)


class NullTracer(Tracer):
    """The disabled tracer: every collection method is a no-op.

    Shared process-wide as :data:`NULL_TRACER`; instrumented components
    hold it by default so tracing costs nothing unless opted into.
    """

    enabled = False

    def count(self, name: str, n: int = 1) -> None:
        pass

    def event(self, name: str, t_s: float, **fields) -> None:
        pass

    def span(self, name: str, t_s: float, dur_s: float, **fields) -> None:
        pass

    def timer(self, name: str) -> _NullTimer:  # type: ignore[override]
        return _NULL_TIMER


#: The process-wide disabled tracer (safe to share: it never mutates).
NULL_TRACER = NullTracer()

_default_tracer: Tracer = NULL_TRACER


def get_default_tracer() -> Tracer:
    """The tracer newly constructed components pick up (default: disabled)."""
    return _default_tracer


def set_default_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install ``tracer`` as the process default; returns the previous one.

    Pass ``None`` to restore the disabled :data:`NULL_TRACER`.
    """
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Scoped :func:`set_default_tracer`: restores the previous default."""
    previous = set_default_tracer(tracer)
    try:
        yield tracer
    finally:
        set_default_tracer(previous)
