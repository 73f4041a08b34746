"""Shared retry/backoff tuning: one dataclass for every supervision layer.

Two layers restart failed work in this codebase: :class:`~repro.supervisor.
RunSupervisor` (one emulation, restarted in-process from its last
checkpoint) and :class:`~repro.fleet.FleetSupervisor` (a pool of shard
worker *processes*, restarted from their last shard checkpoint). Both
consume the same knobs — how many attempts, how long to wait between
them, how much jitter to add so a thundering herd of restarts doesn't
synchronize, and how long a silence counts as death — so the knobs live
in one place: :class:`RetryPolicy`. Tuning a fleet and tuning a single
supervised run is the same exercise with the same vocabulary.

Backoff is exponential with bounded multiplicative jitter::

    delay(attempt) = min(max_delay_s, base_delay_s * backoff_factor**(attempt-1))
                     * (1 + jitter_frac * u),   u ~ Uniform[0, 1)

``u`` comes from a caller-supplied :class:`numpy.random.Generator`, so a
seeded fleet run schedules bit-identical restart delays (see
``docs/fleet.md``); with no generator the jitter term is 0 and the delay
is fully deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import require_positive

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/liveness parameters shared by both supervisor layers.

    Attributes:
        max_restarts: restart budget — total attempts are
            ``max_restarts + 1``; exhausting it fails the run (or, at the
            fleet layer, quarantines the shard).
        base_delay_s: delay before the first restart. ``0`` restarts
            immediately (the historical :class:`RunSupervisor` behaviour).
        backoff_factor: multiplier applied per additional failure.
        max_delay_s: ceiling on the un-jittered delay.
        jitter_frac: maximum fractional jitter added on top of the
            exponential delay (``0.2`` = up to +20%).
        heartbeat_deadline_s: wall-clock seconds of silence after which a
            worker (fleet layer) or a stalled step loop (run layer's
            watchdog) is declared dead. ``None`` disables liveness
            checking. The clock starts at the *first heartbeat received*,
            not at process launch — cold starts are governed by the
            separate boot deadline below.
        boot_deadline_s: wall-clock seconds a freshly launched worker is
            allowed before its first heartbeat arrives (process start, plus
            interpreter start and imports for a spawned worker). ``None``
            derives a generous default of ``6 * heartbeat_deadline_s`` (or
            disables the check entirely when liveness checking is off).
        kill_join_timeout_s: how long a supervisor waits for a SIGKILLed
            worker process to be reaped before declaring it a zombie and
            moving on (logged as a ``fleet.zombie`` trace event rather
            than silently ignored).
    """

    max_restarts: int = 3
    base_delay_s: float = 0.5
    backoff_factor: float = 2.0
    max_delay_s: float = 30.0
    jitter_frac: float = 0.2
    heartbeat_deadline_s: Optional[float] = None
    boot_deadline_s: Optional[float] = None
    kill_join_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        for name in ("base_delay_s", "max_delay_s", "jitter_frac"):
            require_positive(getattr(self, name), name, or_zero=True)
        if not 1.0 <= self.backoff_factor < math.inf:
            raise ValueError(f"backoff_factor must be >= 1 and finite, got {self.backoff_factor!r}")
        for name in ("heartbeat_deadline_s", "boot_deadline_s"):
            if getattr(self, name) is not None:
                require_positive(getattr(self, name), name)
        require_positive(self.kill_join_timeout_s, "kill_join_timeout_s")

    @property
    def max_attempts(self) -> int:
        """Total attempts the budget allows (initial try + restarts)."""
        return self.max_restarts + 1

    @property
    def effective_boot_deadline_s(self) -> Optional[float]:
        """The boot deadline actually enforced on a just-launched worker.

        Explicit ``boot_deadline_s`` wins; otherwise it derives as six
        heartbeat deadlines — generous enough that interpreter startup
        and imports never count as a stall — and ``None`` (no check)
        when liveness checking is disabled altogether.
        """
        if self.boot_deadline_s is not None:
            return self.boot_deadline_s
        if self.heartbeat_deadline_s is None:
            return None
        return 6.0 * self.heartbeat_deadline_s

    def delay_for(
        self, attempt: int, rng: Optional[np.random.Generator] = None
    ) -> float:
        """Seconds to wait before restart number ``attempt`` (1-based).

        ``rng`` supplies the jitter draw; pass the same seeded generator
        on every planning pass to reproduce the exact delay schedule.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        delay = min(
            self.max_delay_s, self.base_delay_s * self.backoff_factor ** (attempt - 1)
        )
        if rng is not None and self.jitter_frac > 0:
            delay *= 1.0 + self.jitter_frac * float(rng.random())
        return delay
