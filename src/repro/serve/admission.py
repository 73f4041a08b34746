"""Bounded admission with explicit backpressure.

The front end's first robustness rule: **never queue a request to die**.
Admission is a fixed number of slots, one per in-flight request. When
every slot is taken the queue refuses — it does not grow, and it does not
silently drop:

* the refused party is always the **newcomer**; it gets an explicit
  ``overloaded`` backpressure answer — HTTP 429 at the server — at once,
  never a hang;
* an admitted request is never evicted: its call may already be on a
  worker's queue, where it will be applied whatever its caller is told,
  so freeing its slot early would shed no work and answer a call that
  succeeds as failed;
* a request whose deadline is already blown is rejected *at the door*
  with ``deadline_exceeded`` instead of occupying a slot.

Thread-safe: HTTP handler threads race on :meth:`~AdmissionQueue.admit`
and :meth:`~AdmissionQueue.release`.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.errors import ServeError

__all__ = ["AdmissionQueue"]


class AdmissionQueue:
    """A bounded count of in-flight requests.

    Args:
        capacity: maximum concurrently admitted requests.
        clock: injectable wall clock (``time.time`` — deadlines are
            absolute wall-clock times; tests pin it).
    """

    def __init__(self, capacity: int = 64, *, clock: Callable[[], float] = time.time):
        if not capacity >= 1:
            raise ServeError(f"admission capacity must be at least 1, got {capacity!r}")
        self.capacity = int(capacity)
        self._clock = clock
        self._lock = threading.Lock()
        self._in_flight = 0
        #: Monotonic counters for /healthz and tests.
        self.admitted_total = 0
        self.shed_total = 0
        self.rejected_total = 0

    def __len__(self) -> int:
        with self._lock:
            return self._in_flight

    def admit(self, deadline_t: float) -> bool:
        """Take a slot for a request; True when it was admitted.

        False when its deadline has already passed (caller answers
        ``deadline_exceeded`` — distinguish via :meth:`meets_deadline`)
        or every slot is taken (caller answers ``overloaded``). Every
        True must be matched by one :meth:`release`.
        """
        if deadline_t - self._clock() < 0.0:
            with self._lock:
                self.rejected_total += 1
            return False
        with self._lock:
            if self._in_flight >= self.capacity:
                self.shed_total += 1
                return False
            self._in_flight += 1
            self.admitted_total += 1
            return True

    def meets_deadline(self, deadline_t: float) -> bool:
        """Whether a request with this deadline has not yet passed."""
        return deadline_t - self._clock() >= 0.0

    def release(self) -> None:
        """Return an admitted request's slot (finished or failed)."""
        with self._lock:
            self._in_flight -= 1

    def snapshot(self) -> dict:
        """JSON-safe occupancy/accounting for ``/healthz``."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "in_flight": self._in_flight,
                "admitted_total": self.admitted_total,
                "shed_total": self.shed_total,
                "rejected_total": self.rejected_total,
            }
