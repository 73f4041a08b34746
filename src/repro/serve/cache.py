"""The degraded-read substrate: a status cache refreshed at heartbeat cadence.

BatteryOS's ``BOS`` answers status queries from a directory refreshed on
a sample period rather than by synchronously interrogating hardware; we
adopt the same shape for fleet serving. A shard worker publishes a
device's battery statuses when it starts or resumes the device, then
alongside every heartbeat (from then on the *sample period* is the
heartbeat cadence), and a final snapshot at the device's end; the
supervisor forwards them here, and ``QueryBatteryStatus`` always
answers from this cache:

* shard healthy and the entry younger than ``stale_after_s`` → a fresh
  answer (``degraded: false``);
* shard dead, quarantined, breaker-open, or the entry older than the
  bound → the **same answer shape** with ``degraded: true`` and the
  entry's actual age in ``stale_s`` — staleness is data, not an error;
* a device whose run already finished keeps its final snapshot forever
  (``completed: true``; a final state cannot go stale).

Reads therefore never block on a worker and never fail because one is
down — exactly the partial-availability contract the front end promises.
Thread-safe: the supervisor thread writes, HTTP handler threads read.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

from repro.errors import ServeError, require_positive

__all__ = ["CacheEntry", "StatusCache"]


class CacheEntry:
    """One device's last published status snapshot."""

    __slots__ = ("device_id", "shard_id", "statuses", "updated_t", "completed")

    def __init__(
        self,
        device_id: str,
        shard_id: int,
        statuses: List[dict],
        updated_t: float,
        completed: bool = False,
    ):
        self.device_id = device_id
        self.shard_id = shard_id
        self.statuses = statuses
        self.updated_t = updated_t
        self.completed = completed

    def age_s(self, now: float) -> float:
        """Seconds since this snapshot was published."""
        return max(0.0, now - self.updated_t)


class StatusCache:
    """Per-device status snapshots with explicit staleness accounting.

    Args:
        stale_after_s: entry age beyond which a read is answered as
            degraded (the freshness bound; pick a small multiple of the
            worker heartbeat cadence).
        clock: injectable wall clock.
    """

    def __init__(self, stale_after_s: float = 3.0, *, clock: Callable[[], float] = time.time):
        self.stale_after_s = require_positive(stale_after_s, "stale_after_s", ServeError)
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: Dict[str, CacheEntry] = {}
        self.stale_reads = 0
        self.fresh_reads = 0

    def publish(self, device_id: str, shard_id: int, statuses: List[dict]) -> None:
        """Install a live snapshot (at a device's start, then at heartbeat cadence)."""
        entry = CacheEntry(device_id, int(shard_id), list(statuses), self._clock())
        with self._lock:
            current = self._entries.get(device_id)
            # A completed device's final snapshot is never overwritten by
            # a straggler live publish racing the completion message.
            if current is not None and current.completed:
                return
            self._entries[device_id] = entry

    def mark_completed(
        self, device_id: str, shard_id: int, statuses: Optional[List[dict]] = None
    ) -> None:
        """Freeze a device's final state (its run finished)."""
        with self._lock:
            current = self._entries.get(device_id)
            final = list(statuses) if statuses is not None else (
                list(current.statuses) if current is not None else []
            )
            self._entries[device_id] = CacheEntry(
                device_id, int(shard_id), final, self._clock(), completed=True
            )

    def read(self, device_id: str, *, shard_healthy: bool = True) -> Optional[dict]:
        """Answer a status read from the cache, staleness made explicit.

        Returns ``None`` when nothing was ever published for the device
        (the caller decides between ``not_running`` and ``not_found``).
        Otherwise a dict with ``statuses``, ``stale_s``, ``degraded``,
        and ``completed`` — degraded when the entry outlived the
        freshness bound *or* the owning shard is known unhealthy, unless
        the device already completed (final state cannot go stale).
        """
        now = self._clock()
        with self._lock:
            entry = self._entries.get(device_id)
            if entry is None:
                return None
            age = entry.age_s(now)
            degraded = (not entry.completed) and (
                age > self.stale_after_s or not shard_healthy
            )
            if degraded:
                self.stale_reads += 1
            else:
                self.fresh_reads += 1
            return {
                "device": entry.device_id,
                "shard": entry.shard_id,
                "statuses": list(entry.statuses),
                "stale_s": age,
                "degraded": degraded,
                "completed": entry.completed,
            }

    def statuses(self, device_id: str) -> Optional[List[dict]]:
        """The device's last published statuses, or None; not a read.

        For a roster listing such as a node's ``Ping`` answer: it counts
        no fresh or stale read.
        """
        with self._lock:
            entry = self._entries.get(device_id)
            return None if entry is None else list(entry.statuses)

    def has(self, device_id: str) -> bool:
        """True when the device has ever published a snapshot."""
        with self._lock:
            return device_id in self._entries

    def completed(self, device_id: str) -> bool:
        """True once the device's final snapshot has been frozen."""
        with self._lock:
            entry = self._entries.get(device_id)
            return entry is not None and entry.completed

    def snapshot(self) -> dict:
        """JSON-safe coverage/accounting for ``/healthz``."""
        with self._lock:
            return {
                "devices_cached": len(self._entries),
                "devices_completed": sum(
                    1 for e in self._entries.values() if e.completed
                ),
                "fresh_reads": self.fresh_reads,
                "stale_reads": self.stale_reads,
                "stale_after_s": self.stale_after_s,
            }
