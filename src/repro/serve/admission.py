"""Bounded admission with explicit backpressure and deadline-aware shedding.

The front end's first robustness rule: **never queue a request to die**.
Admission is a fixed-capacity set of tickets, one per in-flight request.
When the set is full the queue sheds — it does not grow, and it does not
silently drop:

* the victim is chosen **oldest-deadline-first**: the in-flight request
  whose deadline expires soonest is the one least likely to be served in
  time anyway, so it is the cheapest to sacrifice (if the *newcomer*
  holds the soonest deadline, the newcomer itself is shed);
* the shed party gets an explicit ``overloaded`` backpressure answer
  with a ``retry_after_s`` hint — HTTP 429 at the server — in bounded
  time, never a hang;
* a request whose deadline is already blown is rejected *at the door*
  with ``deadline_exceeded`` instead of occupying a ticket.

Thread-safe: HTTP handler threads race on admit/release, and a shed
victim may be mid-wait on its worker response — its ticket's ``shed``
event tells it to stop waiting immediately.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from repro.errors import ServeError

__all__ = ["AdmissionTicket", "AdmissionQueue"]


class AdmissionTicket:
    """One admitted request's slot. ``shed.is_set()`` means: stop now."""

    __slots__ = ("request_id", "deadline_t", "shed")

    def __init__(self, request_id: str, deadline_t: float):
        self.request_id = request_id
        self.deadline_t = deadline_t
        self.shed = threading.Event()


class AdmissionQueue:
    """Fixed-capacity admission set with oldest-deadline-first shedding.

    Args:
        capacity: maximum concurrently admitted requests.
        retry_after_s: the backpressure hint handed to shed callers.
        clock: injectable wall clock (``time.time`` — deadlines are
            absolute wall-clock times; tests pin it).
    """

    def __init__(
        self,
        capacity: int = 64,
        *,
        retry_after_s: float = 0.5,
        clock: Callable[[], float] = time.time,
    ):
        if capacity < 1:
            raise ServeError("admission capacity must be >= 1")
        if retry_after_s <= 0:
            raise ServeError("retry_after_s must be positive")
        self.capacity = int(capacity)
        self.retry_after_s = float(retry_after_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._tickets: Dict[str, AdmissionTicket] = {}
        #: Monotonic counters for /healthz and tests.
        self.admitted_total = 0
        self.shed_total = 0
        self.rejected_total = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._tickets)

    def admit(self, request_id: str, deadline_t: float) -> Optional[AdmissionTicket]:
        """Admit a request, shedding if necessary.

        Returns the ticket on admission, ``None`` when *this* request was
        the shed party (caller answers ``overloaded``) or its deadline
        has already passed (caller answers ``deadline_exceeded`` —
        distinguish via :meth:`meets_deadline` first). A shed *victim*
        learns through its ticket's ``shed`` event; its waiter answers
        ``overloaded`` too.
        """
        if deadline_t - self._clock() < 0.0:
            with self._lock:
                self.rejected_total += 1
            return None
        victim: Optional[AdmissionTicket] = None
        with self._lock:
            if len(self._tickets) >= self.capacity:
                # Full: find the in-flight ticket with the soonest deadline.
                soonest = min(self._tickets.values(), key=lambda t: t.deadline_t)
                if soonest.deadline_t >= deadline_t:
                    # Newcomer is itself the most expendable — shed it.
                    self.shed_total += 1
                    return None
                victim = self._tickets.pop(soonest.request_id)
                self.shed_total += 1
            ticket = AdmissionTicket(request_id, deadline_t)
            self._tickets[request_id] = ticket
            self.admitted_total += 1
        if victim is not None:
            victim.shed.set()
        return ticket

    def meets_deadline(self, deadline_t: float) -> bool:
        """Whether a request with this deadline has not yet passed."""
        return deadline_t - self._clock() >= 0.0

    def release(self, ticket: AdmissionTicket) -> None:
        """Return a ticket (request finished, failed, or was shed)."""
        with self._lock:
            current = self._tickets.get(ticket.request_id)
            if current is ticket:
                del self._tickets[ticket.request_id]

    def snapshot(self) -> dict:
        """JSON-safe occupancy/accounting for ``/healthz``."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "in_flight": len(self._tickets),
                "admitted_total": self.admitted_total,
                "shed_total": self.shed_total,
                "rejected_total": self.rejected_total,
            }
