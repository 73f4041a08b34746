"""The supervisor <-> front-end seam: health, status feed, queue pair.

A :class:`ServeBridge` is created by the serving layer and handed to
:class:`~repro.fleet.FleetSupervisor`. The supervisor owns the worker
processes and the heartbeat stream; the front end owns HTTP threads and
deadlines; the bridge is the only thing they share:

* **shard health** — the supervisor pushes per-shard liveness
  (status, last-heartbeat age, pid, attempt) into the bridge on every
  loop pass; ``/healthz`` and the degraded-read decision read it;
* **status feed** — worker beats carrying battery statuses (one when a
  device starts or resumes, then every heartbeat, whose cadence is the
  sample period, then the device's final state) are forwarded into the
  :class:`~repro.serve.cache.StatusCache`;
* **request plumbing** — per-shard request queues (front end → worker)
  plus one shared response queue (workers → front end), created from the
  supervisor's ``spawn`` context at run start (:meth:`bind`; a fleet with
  a bridge never forks its workers). :meth:`ServeBridge.call` puts one
  call on its shard's queue under a token it mints, and waits; the
  bridge's router thread drains the response queue and hands each answer
  to the call that waits on its token.

Everything is thread-safe; the bridge outlives worker restarts (the
supervisor hands every attempt a *fresh* request queue via
:meth:`rebind_queue` — a SIGKILLed worker can die holding the shared
queue's reader lock, which would deadlock its replacement) and tolerates
being read before :meth:`bind` — calls simply report the fleet as not
yet serving.
"""

from __future__ import annotations

import itertools
import queue as queue_mod
import threading
import time
from typing import Callable, Dict, List, Optional

from repro.errors import TransportError
from repro.obs import NULL_TRACER
from repro.serve.cache import StatusCache

__all__ = ["ShardHealth", "ServeBridge"]


class ShardHealth:
    """One shard's liveness as the front end sees it."""

    __slots__ = ("shard_id", "status", "last_beat_t", "booted", "pid", "attempts", "devices_done")

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.status = "pending"
        self.last_beat_t = 0.0
        self.booted = False
        self.pid: Optional[int] = None
        self.attempts = 0
        self.devices_done = 0

    @property
    def healthy(self) -> bool:
        """Running and heartbeating — the degraded-read freshness input."""
        return self.status == "running" and self.booted

    def snapshot(self, now: float) -> dict:
        """One ``/healthz`` row (heartbeat age relative to ``now``)."""
        return {
            "shard": self.shard_id,
            "status": self.status,
            "healthy": self.healthy,
            "pid": self.pid,
            "attempts": self.attempts,
            "devices_done": self.devices_done,
            "last_beat_age_s": max(0.0, now - self.last_beat_t) if self.booted else None,
        }


class ServeBridge:
    """Shared state + queue pair between a fleet run and its front end.

    Args:
        cache: the status cache reads are answered from.
        clock: injectable wall clock (heartbeat ages).

    ``tracer`` counts ``serve.mutations_sent`` and
    ``serve.orphan_responses``; the front end installs its own.
    """

    def __init__(self, cache: Optional[StatusCache] = None, *, clock: Callable[[], float] = time.time):
        self.cache = cache if cache is not None else StatusCache()
        self._clock = clock
        self._lock = threading.Lock()
        self._health: Dict[int, ShardHealth] = {}
        self._device_shard: Dict[str, int] = {}
        self._device_order: List[str] = []
        self._request_queues: Dict[int, object] = {}
        self._response_queue = None
        # In-flight calls are keyed by a token minted here, never by the
        # caller's request id: two calls that share one (or carry none)
        # would take each other's answer.
        self._tokens = itertools.count(1)
        self._waiters: Dict[int, queue_mod.SimpleQueue] = {}
        self.tracer = NULL_TRACER
        self._router: Optional[threading.Thread] = None
        self._closed = threading.Event()
        self.bound = threading.Event()

    # ------------------------------------------------------------------ #
    # Supervisor side
    # ------------------------------------------------------------------ #

    def bind(self, plans, request_queues: Dict[int, object], response_queue) -> None:
        """Called by the supervisor at run start, queues in hand."""
        with self._lock:
            for plan in plans:
                self._health.setdefault(plan.shard_id, ShardHealth(plan.shard_id))
                for device in plan.devices:
                    self._device_shard[device.device_id] = plan.shard_id
                    self._device_order.append(device.device_id)
            self._request_queues = dict(request_queues)
            self._response_queue = response_queue
        self._router = threading.Thread(
            target=self._route_responses, name="serve-bridge-router", daemon=True
        )
        self._router.start()
        self.bound.set()

    def rebind_queue(self, shard_id: int, request_queue) -> None:
        """Swap in a fresh request queue for a (re)launched worker.

        A worker SIGKILLed inside ``Queue.get()`` dies holding the
        queue's reader lock; the old queue is unusable by the next
        attempt, so the supervisor recreates it per launch. Requests
        still sitting in the abandoned queue surface as deadline misses
        at the front end — the same outcome a dead worker already meant.
        """
        with self._lock:
            self._request_queues[shard_id] = request_queue

    def update_shard(
        self,
        shard_id: int,
        *,
        status: Optional[str] = None,
        booted: Optional[bool] = None,
        beat: bool = False,
        pid: Optional[int] = None,
        attempts: Optional[int] = None,
        devices_done: Optional[int] = None,
    ) -> None:
        """Supervisor-side health push (every loop pass / heartbeat)."""
        with self._lock:
            health = self._health.setdefault(shard_id, ShardHealth(shard_id))
            if status is not None:
                health.status = status
            if booted is not None:
                health.booted = booted
            if beat:
                health.last_beat_t = self._clock()
            if pid is not None:
                health.pid = pid
            if attempts is not None:
                health.attempts = attempts
            if devices_done is not None:
                health.devices_done = devices_done

    def publish_status(self, shard_id: int, device_id: str, statuses: List[dict]) -> None:
        """A beat (a device's start, or a heartbeat) carried battery statuses — refresh the cache."""
        self.cache.publish(device_id, shard_id, statuses)

    def mark_completed(
        self, shard_id: int, device_id: str, statuses: Optional[List[dict]] = None
    ) -> None:
        """A device finished; freeze its final snapshot."""
        self.cache.mark_completed(device_id, shard_id, statuses)

    def close(self) -> None:
        """Stop routing (run over): new calls are refused, pending ones end at their deadline."""
        self._closed.set()

    # ------------------------------------------------------------------ #
    # Front-end side
    # ------------------------------------------------------------------ #

    def shard_for(self, device_id: str) -> Optional[int]:
        """The shard that owns a device; None for unknown devices."""
        with self._lock:
            return self._device_shard.get(device_id)

    def devices(self) -> List[str]:
        """The device roster, in plan order."""
        with self._lock:
            return list(self._device_order)

    def shard_health(self, shard_id: int) -> Optional[ShardHealth]:
        """Live health for one shard; None before bind."""
        with self._lock:
            return self._health.get(shard_id)

    def health_snapshot(self) -> List[dict]:
        """Every shard's health row, sorted by shard id."""
        now = self._clock()
        with self._lock:
            return [
                self._health[shard_id].snapshot(now) for shard_id in sorted(self._health)
            ]

    def send(self, shard_id: int, message: dict) -> bool:
        """Enqueue a request for a shard's worker; False when unbound."""
        with self._lock:
            q = self._request_queues.get(shard_id)
        if q is None or self._closed.is_set():
            return False
        try:
            q.put_nowait(message)
            return True
        except (queue_mod.Full, ValueError, OSError):
            return False

    def call(self, shard_id: int, message: dict, timeout_s: float) -> Optional[dict]:
        """Send one call to a shard's worker and wait for its answer.

        Returns the worker's answer, or None when ``timeout_s`` passes
        first (the call may still be applied; a late answer is counted
        in ``serve.orphan_responses``). Raises
        :class:`~repro.errors.TransportError` when the shard's queue
        refuses the call, which then never reaches the worker.
        """
        token = next(self._tokens)
        answer: queue_mod.SimpleQueue = queue_mod.SimpleQueue()
        with self._lock:
            self._waiters[token] = answer
        try:
            if not self.send(shard_id, dict(message, request_id=token)):
                raise TransportError(f"shard {shard_id} request queue is not accepting work")
            self.tracer.count("serve.mutations_sent")
            return answer.get(timeout=max(0.0, timeout_s))
        except queue_mod.Empty:
            return None
        finally:
            with self._lock:
                del self._waiters[token]

    # ------------------------------------------------------------------ #
    # Router thread
    # ------------------------------------------------------------------ #

    def _route_responses(self) -> None:
        while not self._closed.is_set():
            try:
                msg = self._response_queue.get(timeout=0.2)
            except (queue_mod.Empty, OSError, EOFError, ValueError):
                continue
            if not isinstance(msg, dict):
                continue
            with self._lock:
                answer = self._waiters.get(msg.get("request_id"))
            if answer is None:
                # Its caller already gave up at the deadline; the late
                # answer is accounted and dropped.
                self.tracer.count("serve.orphan_responses")
            else:
                answer.put(msg)
