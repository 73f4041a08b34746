"""Lease-based membership: the ``live → suspect → dead`` state machine.

A remote node holds a *lease* on its directory entry, renewed by every
successful exchange (heartbeat pings and real calls alike). The state
is purely a function of the lease's age against two thresholds::

    age <= ttl_s          live     full service
    age <= dead_after_s   suspect  reads degrade to cache, mutations fail fast
    otherwise             dead     same service as suspect; the distinction
                                   is operational (a suspect node is probably
                                   coming back; a dead one needs a human)

Nothing here knows about transports or heartbeat threads — the
directory drives :meth:`Lease.renew` and reads :meth:`Lease.state`, and
emits ``net.lease`` trace events whenever the answer changes. Keeping
the machine this small is what makes it test-exhaustively: three states,
one input (age), monotone thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import require_positive

__all__ = ["LEASE_STATES", "LeaseConfig", "Lease"]

#: The membership states, in degradation order.
LEASE_STATES = ("live", "suspect", "dead")


@dataclass(frozen=True)
class LeaseConfig:
    """The two age thresholds that define the state machine.

    Attributes:
        ttl_s: a lease older than this is no longer ``live``.
        dead_after_s: a lease older than this is ``dead``.
    """

    ttl_s: float = 2.0
    dead_after_s: float = 6.0

    def __post_init__(self) -> None:
        require_positive(self.ttl_s, "lease ttl_s")
        require_positive(self.dead_after_s, "lease dead_after_s")
        if self.dead_after_s <= self.ttl_s:
            raise ValueError("dead_after_s must exceed ttl_s (suspect must exist)")


class Lease:
    """One node's lease: last renewal time plus the config thresholds."""

    __slots__ = ("config", "renewed_t", "renewals")

    def __init__(self, config: LeaseConfig, now: float):
        self.config = config
        self.renewed_t = now
        self.renewals = 0

    def renew(self, now: float) -> None:
        """A successful exchange with the node happened at ``now``."""
        # Never let a stale heartbeat (delivered late) rewind the lease.
        if now > self.renewed_t:
            self.renewed_t = now
        self.renewals += 1

    def age_s(self, now: float) -> float:
        """Seconds since the last renewal (never negative)."""
        return max(0.0, now - self.renewed_t)

    def state(self, now: float) -> str:
        """``live`` / ``suspect`` / ``dead`` as of ``now``."""
        age = self.age_s(now)
        if age <= self.config.ttl_s:
            return "live"
        if age <= self.config.dead_after_s:
            return "suspect"
        return "dead"
