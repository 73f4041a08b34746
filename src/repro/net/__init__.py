"""Networked batteries: directory, remote nodes, and failure-first wiring.

The SDB paper's API presumes the OS can always reach every battery; this
package makes the opposite assumption and builds for it. It follows the
BatteryOS split — a *directory* that knows where every battery lives,
and *networked battery* stubs that speak a small wire protocol to remote
nodes — with robustness as the core design rather than an afterthought:

* :mod:`repro.net.transport` — the pluggable wire seam
  (:class:`TcpTransport`, :class:`InProcessTransport`) plus
  :class:`NetFaultInjector`, the decorator that injects seeded drops,
  delays, duplicates and partitions from a
  :class:`~repro.faults.net.NetFaultSchedule`;
* :mod:`repro.net.lease` — the ``live → suspect → dead`` membership
  state machine driven by heartbeat renewals;
* :mod:`repro.net.node` — a stdlib TCP/JSON battery node exporting the
  four SDB calls for a device or fleet front end, with idempotency-key
  dedup on mutations;
* :mod:`repro.net.directory` — :class:`BatteryDirectory`, which routes
  SDB calls to local backends or remote nodes through the shared
  :class:`~repro.retry.RetryPolicy` and a per-node
  :class:`~repro.serve.breaker.CircuitBreaker`, and answers reads from
  a :class:`~repro.serve.cache.StatusCache` when a node is away;
* :mod:`repro.net.chaos` — the deterministic partition-and-heal cycle
  behind ``repro directory`` and ``scripts/chaos_check.py directory-chaos``.

Failure semantics in one paragraph: a node that misses lease renewals
degrades from ``live`` to ``suspect`` to ``dead`` (``net.lease`` trace
events); while away it serves only cache-backed *degraded reads*
(explicit ``degraded``/``stale_s``, the PR 9 serve-layer contract) and
mutations fail fast as ``unavailable``. Mutations carry idempotency
keys, so the retry loop can safely re-send through lost-reply windows —
each key is applied exactly once node-side.
"""

from repro.net.directory import BatteryDirectory, DirectoryConfig, DirectoryEntry
from repro.net.lease import LEASE_STATES, Lease, LeaseConfig
from repro.net.node import (
    BatteryNodeServer,
    FrontEndBackend,
    IdempotencyTable,
    NodeDispatcher,
    RuntimeBackend,
)
from repro.net.transport import (
    InProcessTransport,
    NetFaultInjector,
    TcpTransport,
    Transport,
)

__all__ = [
    "BatteryDirectory",
    "DirectoryConfig",
    "DirectoryEntry",
    "LEASE_STATES",
    "Lease",
    "LeaseConfig",
    "BatteryNodeServer",
    "FrontEndBackend",
    "IdempotencyTable",
    "NodeDispatcher",
    "RuntimeBackend",
    "InProcessTransport",
    "NetFaultInjector",
    "TcpTransport",
    "Transport",
]
