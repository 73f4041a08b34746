"""Per-shard circuit breakers for the serving front end.

A shard that stops answering (worker dead, wedged, or drowning) must not
soak up every caller's deadline budget one timeout at a time. The
breaker is the classic three-state machine layered *over* the fleet's
:class:`~repro.retry.RetryPolicy` (which governs how the supervisor
restarts the worker — a different timescale and a different decision):

```
            consecutive failures >= threshold
   CLOSED ──────────────────────────────────▶ OPEN
     ▲                                          │
     │ probe succeeds                           │ reset_after_s elapses
     │                                          ▼
     └─────────────────────────────────── HALF_OPEN
                 probe fails ─▶ back to OPEN
```

While OPEN, mutating calls fail fast with a retryable ``unavailable``
instead of queueing to time out. After ``reset_after_s`` the breaker
admits exactly **one** probe (HALF_OPEN); its outcome decides between
snapping shut and re-opening. Thread-safe — HTTP handler threads race on
``allow``/``record_*``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.errors import ServeError, require_positive

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure breaker with a single half-open probe slot.

    Args:
        failure_threshold: consecutive failures that trip CLOSED → OPEN.
        reset_after_s: how long OPEN holds before a probe is allowed.
        clock: injectable monotonic clock (tests pin it).
        on_transition: optional ``(old_state, new_state) -> None`` hook,
            called *outside* the lock — the service maps it to
            ``serve.breaker_*`` trace events.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_after_s: float = 2.0,
        *,
        clock: Optional[Callable[[], float]] = None,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ):
        if failure_threshold < 1:
            raise ServeError("breaker failure_threshold must be >= 1")
        self.failure_threshold = int(failure_threshold)
        self.reset_after_s = require_positive(reset_after_s, "breaker reset_after_s", ServeError)
        self._clock = clock if clock is not None else time.monotonic
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_t = 0.0
        self._probe_inflight = False
        #: Transitions noted under the lock, delivered after release.
        self._pending_transitions: list = []

    @property
    def state(self) -> str:
        """Current state, with the OPEN → HALF_OPEN timer applied."""
        with self._lock:
            return self._observe_locked()

    def _observe_locked(self) -> str:
        if self._state == OPEN and self._clock() - self._opened_t >= self.reset_after_s:
            self._state = HALF_OPEN
            self._probe_inflight = False
            self._note(OPEN, HALF_OPEN)
        return self._state

    def _note(self, old: str, new: str) -> None:
        # Queued while holding the lock, delivered after release (the
        # hook emits trace events and must not re-enter under the lock).
        self._pending_transitions.append((old, new))

    def _drain_transitions(self) -> None:
        pending, self._pending_transitions = self._pending_transitions, []
        if self._on_transition is not None:
            for old, new in pending:
                self._on_transition(old, new)

    def allow(self) -> bool:
        """May a call proceed right now?

        CLOSED: always. OPEN: never (fail fast). HALF_OPEN: exactly one
        caller wins the probe slot; everyone else keeps failing fast
        until the probe reports back.
        """
        with self._lock:
            state = self._observe_locked()
            if state == CLOSED:
                allowed = True
            elif state == HALF_OPEN and not self._probe_inflight:
                self._probe_inflight = True
                allowed = True
            else:
                allowed = False
        self._drain_transitions()
        return allowed

    def record_success(self) -> None:
        """A call (or the probe) came back healthy."""
        with self._lock:
            state = self._observe_locked()
            self._consecutive_failures = 0
            self._probe_inflight = False
            if state in (OPEN, HALF_OPEN):
                self._state = CLOSED
                self._note(state, CLOSED)
        self._drain_transitions()

    def record_failure(self) -> None:
        """A call timed out or errored at the transport level."""
        with self._lock:
            state = self._observe_locked()
            self._consecutive_failures += 1
            self._probe_inflight = False
            if state == HALF_OPEN or (
                state == CLOSED and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = OPEN
                self._opened_t = self._clock()
                self._note(state, OPEN)
        self._drain_transitions()

    def snapshot(self) -> dict:
        """JSON-safe state for ``/healthz``."""
        with self._lock:
            state = self._observe_locked()
            snap = {
                "state": state,
                "consecutive_failures": self._consecutive_failures,
            }
        self._drain_transitions()
        return snap
