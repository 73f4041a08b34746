"""The battery directory: one routing table over local and remote batteries.

The BatteryOS shape from SNIPPETS.md — a directory that knows where
every battery lives and hands out stubs — rebuilt with the failure
semantics this repo's serve layer already speaks:

* **Routing** — every device id maps to exactly one
  :class:`DirectoryEntry` (a local backend or a remote node). Duplicate
  routes are a configuration error (:class:`~repro.errors.NetError`),
  not a runtime surprise.
* **Lease-based membership** — every successful exchange with a remote
  node renews its :class:`~repro.net.lease.Lease`; the heartbeat pump
  (:meth:`BatteryDirectory.heartbeat_tick`) pings each node, evaluates
  ``live → suspect → dead`` transitions, and emits a ``net.lease`` trace
  event for each edge.
* **Degraded reads** — a node that is away still answers
  ``QueryBatteryStatus`` from the directory's
  :class:`~repro.serve.cache.StatusCache` (refreshed by heartbeat
  piggybacks), with explicit ``degraded: true`` and a growing
  ``stale_s`` — the PR 9 contract, extended across the wire.
* **Fail-fast mutations** — ``SetCharge`` / ``SetDischarge`` /
  ``SelectChargingProfile`` against a non-live node fail immediately as
  ``unavailable`` (retryable, with a ``retry_after_s`` hint) rather than
  burning the caller's deadline on a partition.
* **Bounded retries** — remote calls run inside the shared
  :class:`~repro.retry.RetryPolicy` (per-attempt timeout clamped to the
  request's remaining deadline, exponential backoff, seeded jitter) and
  a per-node :class:`~repro.serve.breaker.CircuitBreaker`.
* **Exactly-once mutations** — every mutation carries its request id (or
  the caller's own key) as an ``idempotency_key``; the node's
  :class:`~repro.serve.protocol.IdempotencyTable` absorbs re-sends from
  lost-reply windows, so at-least-once retries yield exactly-once
  application.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.determinism import SeedLike, resolve_rng
from repro.errors import NetError, ServeError, TransportError, require_positive
from repro.net.lease import Lease, LeaseConfig
from repro.net.transport import Transport
from repro.obs import NULL_TRACER, Tracer
from repro.retry import RetryPolicy
from repro.serve.breaker import CircuitBreaker
from repro.serve.cache import StatusCache
from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    ERR_NOT_FOUND,
    ERR_UNAVAILABLE,
    OPS,
    NodeDispatcher,
    ServeRequest,
    ServeResponse,
    error_response,
    response_from_wire,
    stamp_request,
)

__all__ = ["DirectoryConfig", "DirectoryEntry", "BatteryDirectory"]


@dataclass(frozen=True)
class DirectoryConfig:
    """Every knob of the directory's failure behaviour, in one place.

    Attributes:
        lease: the membership thresholds (see :class:`LeaseConfig`).
        heartbeat_every_s: lease-pump cadence (``start_heartbeats``).
        attempt_timeout_s: wire timeout for one exchange; each retry
            attempt gets at most this much, further clamped to the
            request's remaining deadline.
        default_timeout_s: deadline budget stamped on requests built via
            :meth:`BatteryDirectory.make_request` without an explicit
            ``timeout_s``.
        max_timeout_s: ceiling on client-supplied budgets.
        stale_after_s: cache freshness bound for degraded reads.
        breaker_failures: consecutive transport failures that open a
            node's circuit breaker.
        breaker_reset_s: how long the breaker holds open before probing.
        retry: the shared retry/backoff policy for remote calls. The
            default is tuned for interactive calls: three attempts,
            fast, bounded backoff.
        retry_after_s: the hint attached to fail-fast ``unavailable``
            answers.
    """

    lease: LeaseConfig = field(default_factory=LeaseConfig)
    heartbeat_every_s: float = 0.5
    attempt_timeout_s: float = 1.0
    default_timeout_s: float = 2.0
    max_timeout_s: float = 30.0
    stale_after_s: float = 3.0
    breaker_failures: int = 3
    breaker_reset_s: float = 2.0
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_restarts=2,
            base_delay_s=0.05,
            backoff_factor=2.0,
            max_delay_s=0.5,
            jitter_frac=0.2,
        )
    )
    retry_after_s: float = 1.0

    def __post_init__(self) -> None:
        for name in (
            "heartbeat_every_s", "attempt_timeout_s", "default_timeout_s", "max_timeout_s",
            "stale_after_s", "breaker_reset_s", "retry_after_s",
        ):
            require_positive(getattr(self, name), name, NetError)


class DirectoryEntry:
    """One registered battery location: a local backend or a remote node."""

    __slots__ = (
        "name", "kind", "devices", "transport", "dispatcher",
        "lease", "breaker", "index", "last_state", "idempotent_replays",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        devices: Tuple[str, ...],
        index: int,
        *,
        transport: Optional[Transport] = None,
        dispatcher: Optional[NodeDispatcher] = None,
        lease: Optional[Lease] = None,
        breaker: Optional[CircuitBreaker] = None,
    ):
        self.name = name
        self.kind = kind  # "local" | "remote"
        self.devices = devices
        self.index = index  # the StatusCache shard id for this entry
        self.transport = transport
        self.dispatcher = dispatcher
        self.lease = lease
        self.breaker = breaker
        self.last_state = "live"
        self.idempotent_replays = 0

    @property
    def remote(self) -> bool:
        return self.kind == "remote"

    def state(self, now: float) -> str:
        """Membership state; local entries are always ``live``."""
        if not self.remote or self.lease is None:
            return "live"
        return self.lease.state(now)

    def snapshot(self, now: float) -> dict:
        """One JSON-safe roster row."""
        row = {
            "node": self.name,
            "kind": self.kind,
            "devices": list(self.devices),
            "state": self.state(now),
        }
        if self.remote and self.lease is not None:
            row["lease_age_s"] = self.lease.age_s(now)
            row["renewals"] = self.lease.renewals
            row["idempotent_replays"] = self.idempotent_replays
        if self.breaker is not None:
            row["breaker"] = self.breaker.snapshot()
        return row


class BatteryDirectory:
    """Route the four SDB calls to wherever each battery actually lives.

    Args:
        config: failure-behaviour knobs (default: :class:`DirectoryConfig`).
        tracer: receives ``net.*`` counters and events.
        clock: injectable wall clock (tests pin it).
        sleep: injectable sleep (retry backoff; tests pass a no-op).
        seed: seeds the retry-jitter generator — a seeded directory
            schedules bit-identical backoff delays.
    """

    def __init__(
        self,
        config: Optional[DirectoryConfig] = None,
        *,
        tracer: Tracer = NULL_TRACER,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
        seed: SeedLike = 0,
    ):
        self.config = config if config is not None else DirectoryConfig()
        self.tracer = tracer
        self._clock = clock
        self._sleep = sleep
        self._t0 = clock()
        self._rng = resolve_rng(seed)
        self.cache = StatusCache(self.config.stale_after_s, clock=clock)
        self._lock = threading.Lock()
        self._entries: Dict[str, DirectoryEntry] = {}
        self._routes: Dict[str, str] = {}  # device id -> entry name
        self._pump: Optional[threading.Thread] = None
        self._pump_stop = threading.Event()

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def register_local(self, name: str, backend) -> DirectoryEntry:
        """Register an in-process backend (no lease — it cannot be away)."""
        dispatcher = backend if isinstance(backend, NodeDispatcher) else NodeDispatcher(
            name, backend, tracer=self.tracer
        )
        devices = tuple(dispatcher.backend.devices())
        entry = DirectoryEntry(
            name, "local", devices, self._next_index(), dispatcher=dispatcher
        )
        self._install(entry)
        return entry

    def register_node(
        self,
        name: str,
        transport: Transport,
        *,
        devices: Optional[Sequence[str]] = None,
    ) -> DirectoryEntry:
        """Register a remote node, discovering its devices via ``Ping``.

        With no explicit ``devices`` the node must be reachable now —
        an unreachable node with an unknown roster cannot be routed to,
        so that is a configuration error. With ``devices`` given, an
        unreachable node registers anyway (its lease simply starts
        aging) — the partitioned-at-startup case.
        """
        now = self._clock()
        lease = Lease(self.config.lease, now)
        breaker = CircuitBreaker(
            self.config.breaker_failures,
            self.config.breaker_reset_s,
            on_transition=lambda old, new: self._on_breaker(name, old, new),
        )
        roster: Optional[Tuple[str, ...]] = tuple(devices) if devices is not None else None
        entry = DirectoryEntry(
            name, "remote", roster or (), self._next_index(),
            transport=transport, lease=lease, breaker=breaker,
        )
        try:
            reply = transport.call({"op": "Ping"}, self.config.attempt_timeout_s)
        except TransportError as exc:
            if roster is None:
                raise NetError(
                    f"node {name!r} is unreachable and no device roster was given: {exc}"
                ) from exc
            # Registered on faith: the lease is backdated past its TTL so
            # the node starts suspect; heartbeats promote it once it
            # actually answers.
            entry.lease = Lease(self.config.lease, now - 2.0 * self.config.lease.ttl_s)
            entry.last_state = entry.lease.state(now)
        else:
            self._absorb_ping(entry, reply)
        if not entry.devices:
            raise NetError(f"node {name!r} exports no devices")
        self._install(entry)
        return entry

    def _install(self, entry: DirectoryEntry) -> None:
        with self._lock:
            if entry.name in self._entries:
                raise NetError(f"directory already has an entry named {entry.name!r}")
            for device_id in entry.devices:
                owner = self._routes.get(device_id)
                if owner is not None:
                    raise NetError(
                        f"device {device_id!r} is already routed to {owner!r}"
                    )
            self._entries[entry.name] = entry
            for device_id in entry.devices:
                self._routes[device_id] = entry.name
        self.tracer.count("net.registered")
        self._event(
            "net.register", node=entry.name, kind=entry.kind,
            devices=list(entry.devices),
        )

    def _next_index(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------ #
    # Roster reads
    # ------------------------------------------------------------------ #

    def route_for(self, device_id: str) -> Optional[DirectoryEntry]:
        """The entry that owns a device, or None."""
        with self._lock:
            name = self._routes.get(device_id)
            return self._entries.get(name) if name is not None else None

    def devices(self) -> List[str]:
        """Every routed device id, in registration order."""
        with self._lock:
            out: List[str] = []
            for entry in self._entries.values():
                out.extend(entry.devices)
            return out

    def entries(self) -> List[DirectoryEntry]:
        """Every registered entry, in registration order."""
        with self._lock:
            return list(self._entries.values())

    def snapshot(self) -> dict:
        """The JSON-safe roster (the CLI's and healthz's view)."""
        now = self._clock()
        return {
            "entries": [entry.snapshot(now) for entry in self.entries()],
            "cache": self.cache.snapshot(),
        }

    # ------------------------------------------------------------------ #
    # Lease pump
    # ------------------------------------------------------------------ #

    def heartbeat_tick(self) -> None:
        """Ping every remote node once; renew leases, emit transitions.

        Deliberately *not* gated by the circuit breaker: the heartbeat
        is how an open breaker's node proves it recovered, and one ping
        per cadence cannot amplify an outage.
        """
        for entry in self.entries():
            if not entry.remote:
                continue
            self.tracer.count("net.heartbeats")
            try:
                reply = entry.transport.call({"op": "Ping"}, self.config.attempt_timeout_s)
            except TransportError:
                self.tracer.count("net.heartbeat_failures")
                if entry.breaker is not None:
                    entry.breaker.record_failure()
            else:
                self._absorb_ping(entry, reply)
                if entry.breaker is not None:
                    entry.breaker.record_success()
                entry.lease.renew(self._clock())
            self._observe_lease(entry)

    def start_heartbeats(self, every_s: Optional[float] = None) -> None:
        """Run :meth:`heartbeat_tick` on a daemon thread until :meth:`close`."""
        if self._pump is not None:
            return
        cadence = self.config.heartbeat_every_s if every_s is None else float(every_s)

        def _pump_loop() -> None:
            while not self._pump_stop.wait(cadence):
                self.heartbeat_tick()

        self._pump = threading.Thread(target=_pump_loop, name="net-lease-pump", daemon=True)
        self._pump.start()

    def close(self) -> None:
        """Stop the pump and close every remote transport."""
        self._pump_stop.set()
        if self._pump is not None:
            self._pump.join(timeout=5.0)
            self._pump = None
        for entry in self.entries():
            if entry.transport is not None:
                entry.transport.close()

    def _absorb_ping(self, entry: DirectoryEntry, reply: dict) -> None:
        """Fold a Ping answer into the roster, cache, and replay stats."""
        devices = reply.get("devices")
        if not entry.devices and isinstance(devices, list) and devices:
            entry.devices = tuple(str(d) for d in devices)
        statuses = reply.get("statuses")
        if isinstance(statuses, dict):
            for device_id, rows in statuses.items():
                if isinstance(rows, list):
                    self.cache.publish(device_id, entry.index, rows)
        replays = reply.get("idempotent_replays")
        if isinstance(replays, int):
            entry.idempotent_replays = replays

    def _observe_lease(self, entry: DirectoryEntry) -> None:
        now = self._clock()
        state = entry.state(now)
        if state == entry.last_state:
            return
        old, entry.last_state = entry.last_state, state
        self.tracer.count(f"net.lease_{state}")
        self._event(
            "net.lease",
            node=entry.name,
            **{"from": old, "to": state, "age_s": entry.lease.age_s(now)},
        )

    def _on_breaker(self, node: str, old: str, new: str) -> None:
        self.tracer.count(f"net.breaker_{new}")
        self._event("net.breaker", node=node, **{"from": old, "to": new})

    # ------------------------------------------------------------------ #
    # The four SDB calls
    # ------------------------------------------------------------------ #

    def make_request(self, op: str, device_id: str, **fields) -> ServeRequest:
        """Stamp a request with its absolute deadline at the directory edge;
        ``fields`` are :func:`~repro.serve.protocol.stamp_request`'s, and
        so is the :class:`~repro.errors.ServeError` for a field it refuses."""
        return stamp_request(self.config, self._clock(), op, device_id, **fields)

    def call(self, op: str, device_id: str, **fields) -> ServeResponse:
        """Convenience: build a request and :meth:`handle` it; never raises.

        A field :meth:`make_request` refuses is answered ``bad_request``.
        """
        try:
            request = self.make_request(op, device_id, **fields)
        except ServeError as exc:
            return error_response(ERR_BAD_REQUEST, str(exc))
        return self.handle(request)

    def handle(self, request: ServeRequest) -> ServeResponse:
        """Route one SDB call; never raises, always a typed answer."""
        self.tracer.count("net.calls_total")
        if request.op not in OPS:
            return error_response(ERR_BAD_REQUEST, f"unknown op {request.op!r}")
        entry = self.route_for(request.device_id)
        if entry is None:
            return error_response(
                ERR_NOT_FOUND, f"no directory route for device {request.device_id!r}"
            )
        if not entry.remote:
            return response_from_wire(entry.dispatcher.dispatch(request.to_wire()))
        if request.mutating:
            return self._handle_remote_mutation(entry, request)
        return self._handle_remote_read(entry, request)

    # -- remote paths --------------------------------------------------- #

    def _handle_remote_mutation(
        self, entry: DirectoryEntry, request: ServeRequest
    ) -> ServeResponse:
        state = entry.state(self._clock())
        if state != "live":
            self.tracer.count("net.fail_fast")
            return error_response(
                ERR_UNAVAILABLE,
                f"node {entry.name!r} is {state}; mutations fail fast",
                retry_after_s=self.config.retry_after_s,
            )
        if entry.breaker is not None and not entry.breaker.allow():
            self.tracer.count("net.fail_fast")
            return error_response(
                ERR_UNAVAILABLE,
                f"node {entry.name!r} circuit breaker is open",
                retry_after_s=self.config.breaker_reset_s,
            )
        wire = request.to_wire()
        # The request id doubles as the idempotency key unless the caller
        # named one: stable across every retry of this call, unique across
        # calls — a re-send after a lost reply replays, not re-applies.
        wire.setdefault("idempotency_key", request.request_id)
        reply = self._call_with_retries(entry, wire, request)
        if reply is None:
            return error_response(
                ERR_UNAVAILABLE,
                f"node {entry.name!r} did not answer within the retry budget",
                retry_after_s=self.config.retry_after_s,
            )
        return response_from_wire(reply)

    def _handle_remote_read(
        self, entry: DirectoryEntry, request: ServeRequest
    ) -> ServeResponse:
        # The breaker is asked only for a live node: a half-open breaker
        # has one probe slot, and a read answered from the cache must not
        # take it.
        state = entry.state(self._clock())
        if state == "live" and (entry.breaker is None or entry.breaker.allow()):
            reply = self._call_with_retries(entry, request.to_wire(), request)
            if reply is not None:
                result = reply.get("result")
                if reply.get("ok") and isinstance(result, dict):
                    statuses = result.get("statuses")
                    if isinstance(statuses, list):
                        self.cache.publish(request.device_id, entry.index, statuses)
                return response_from_wire(reply)
        return self._degraded_read(entry, request)

    def _degraded_read(self, entry: DirectoryEntry, request: ServeRequest) -> ServeResponse:
        cached = self.cache.read(request.device_id, shard_healthy=False)
        if cached is None:
            self.tracer.count("net.fail_fast")
            return error_response(
                ERR_UNAVAILABLE,
                f"node {entry.name!r} is away and no cached status exists "
                f"for {request.device_id!r}",
                retry_after_s=self.config.retry_after_s,
            )
        self.tracer.count("net.degraded_reads")
        self._event(
            "net.degraded_read",
            node=entry.name,
            device=request.device_id,
            stale_s=cached["stale_s"],
        )
        return ServeResponse(
            ok=True,
            result={"statuses": cached["statuses"], "completed": cached["completed"]},
            degraded=True,
            stale_s=cached["stale_s"],
        )

    def _call_with_retries(
        self, entry: DirectoryEntry, wire: dict, request: ServeRequest
    ) -> Optional[dict]:
        """One wire call under the retry policy; None when it never landed."""
        policy = self.config.retry
        for attempt in range(1, policy.max_attempts + 1):
            remaining = request.remaining_s(self._clock())
            if remaining <= 0:
                break
            timeout_s = min(self.config.attempt_timeout_s, remaining)
            try:
                reply = entry.transport.call(wire, timeout_s)
            except TransportError as exc:
                self.tracer.count("net.transport_failures")
                if entry.breaker is not None:
                    entry.breaker.record_failure()
                self._observe_lease(entry)
                if attempt >= policy.max_attempts:
                    break
                delay = min(
                    policy.delay_for(attempt, self._rng),
                    max(0.0, request.remaining_s(self._clock())),
                )
                self.tracer.count("net.retries")
                self._event(
                    "net.retry",
                    node=entry.name,
                    attempt=attempt,
                    delay_s=delay,
                    error=str(exc)[:120],
                )
                if delay > 0:
                    self._sleep(delay)
            else:
                if entry.breaker is not None:
                    entry.breaker.record_success()
                entry.lease.renew(self._clock())
                self._observe_lease(entry)
                return reply
        return None

    # ------------------------------------------------------------------ #
    # The vdag's view: one cached rollup per remote device
    # ------------------------------------------------------------------ #

    def remote_status(self, device_id: str) -> Optional[dict]:
        """A cache-only rollup for :class:`~repro.core.vdag.RemoteBattery`.

        Never touches the wire (DAG status walks must not block on a
        partition); the heartbeat pump keeps the cache as fresh as the
        network allows. None when nothing was ever cached.
        """
        entry = self.route_for(device_id)
        cached = self.cache.read(
            device_id,
            shard_healthy=entry is not None and entry.state(self._clock()) == "live",
        )
        if cached is None:
            return None
        statuses = cached["statuses"]
        capacity = sum(float(s.get("capacity_mah", 0.0)) for s in statuses)
        soc = (
            sum(float(s.get("soc", 0.0)) * float(s.get("capacity_mah", 0.0)) for s in statuses)
            / capacity
            if capacity > 0
            else 0.0
        )
        return {
            "device": device_id,
            "node": entry.name if entry is not None else None,
            "n_cells": len(statuses),
            "soc": soc,
            "capacity_mah": capacity,
            "terminal_voltage": max(
                (float(s.get("terminal_voltage", 0.0)) for s in statuses), default=0.0
            ),
            "is_empty": all(bool(s.get("is_empty")) for s in statuses) if statuses else True,
            "is_full": all(bool(s.get("is_full")) for s in statuses) if statuses else False,
            "degraded": cached["degraded"],
            "stale_s": cached["stale_s"],
        }

    def _event(self, name: str, **fields) -> None:
        self.tracer.event(name, self._clock() - self._t0, **fields)

