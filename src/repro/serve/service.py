"""The battery-as-a-service front end: deadlines in, typed answers out.

:class:`FleetFrontEnd` is the transport-agnostic service layer — the HTTP
server in :mod:`repro.serve.server` is a thin adapter over it, and the
tests drive it directly. Every call follows the same resilient path:

1. **validate** — unknown op or device is a typed, non-retryable error;
2. **admit** — a bounded :class:`~repro.serve.admission.AdmissionQueue`
   rejects already-blown deadlines at the door and, when full, refuses
   the newcomer (explicit 429 backpressure); an admitted call runs to
   its answer or its deadline;
3. **dispatch** — reads are answered from the
   :class:`~repro.serve.cache.StatusCache` (never blocking on a worker;
   staleness reported as data), mutations pass the per-shard
   :class:`~repro.serve.breaker.CircuitBreaker` and
   :meth:`~repro.serve.bridge.ServeBridge.call` takes them to the shard
   worker, deadline attached;
4. **account** — every decision emits ``serve.*`` counters and trace
   events through the shared :class:`~repro.obs.Tracer`.

The front end holds no battery state of its own: the cache is the read
path, the workers are the write path, and the supervisor owns recovery.
:class:`FrontEndBackend` puts it behind a
:class:`~repro.serve.protocol.NodeDispatcher`, which is how the HTTP skin
and a fleet exported as a TCP node reach it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.errors import ServeError, TransportError, require_positive
from repro.obs import NULL_TRACER, Tracer
from repro.serve.admission import AdmissionQueue
from repro.serve.breaker import OPEN, CircuitBreaker
from repro.serve.bridge import ServeBridge
from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    ERR_COMPLETED,
    ERR_DEADLINE,
    ERR_INTERNAL,
    ERR_NOT_FOUND,
    ERR_NOT_RUNNING,
    ERR_OVERLOADED,
    ERR_QUARANTINED,
    ERR_UNAVAILABLE,
    OPS,
    ServeRequest,
    ServeResponse,
    error_response,
    stamp_request,
)

__all__ = ["ServeConfig", "FleetFrontEnd", "FrontEndBackend"]


@dataclass
class ServeConfig:
    """Knobs for the serving front end (all failure-policy, no transport).

    Every field is checked when the config is built, so a bad value is a
    :class:`~repro.errors.ServeError` before anything starts.

    Attributes:
        capacity: admission queue size (concurrently in-flight requests).
        retry_after_s: backpressure hint handed to overloaded callers.
        default_timeout_s: deadline budget for requests that name none.
        max_timeout_s: ceiling on client-requested budgets (a client
            cannot park a slot for minutes).
        stale_after_s: cache-entry age beyond which reads are degraded;
            pick a small multiple of the fleet heartbeat cadence.
        breaker_failures: consecutive transport failures tripping a
            shard's breaker open.
        breaker_reset_s: OPEN hold time before the half-open probe.
    """

    capacity: int = 64
    retry_after_s: float = 0.5
    default_timeout_s: float = 2.0
    max_timeout_s: float = 30.0
    stale_after_s: float = 3.0
    breaker_failures: int = 3
    breaker_reset_s: float = 2.0

    def __post_init__(self):
        for name in ("capacity", "breaker_failures"):
            if not getattr(self, name) >= 1:
                raise ServeError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        for name in ("retry_after_s", "default_timeout_s", "max_timeout_s", "stale_after_s", "breaker_reset_s"):
            require_positive(getattr(self, name), name, ServeError)
        if self.default_timeout_s > self.max_timeout_s:
            raise ServeError("default_timeout_s must not exceed max_timeout_s")


class FleetFrontEnd:
    """Deadline-aware, backpressured service over a live fleet run."""

    def __init__(
        self,
        bridge: ServeBridge,
        config: Optional[ServeConfig] = None,
        *,
        tracer: Tracer = NULL_TRACER,
        clock: Callable[[], float] = time.time,
    ):
        self.bridge = bridge
        self.config = config if config is not None else ServeConfig()
        self.tracer = tracer
        self._clock = clock
        self._t0 = clock()
        self.admission = AdmissionQueue(self.config.capacity, clock=clock)
        self._breakers: Dict[int, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        bridge.cache.stale_after_s = self.config.stale_after_s
        bridge.tracer = tracer

    # ------------------------------------------------------------------ #
    # Request construction
    # ------------------------------------------------------------------ #

    def make_request(self, op: str, device_id: str, **fields) -> ServeRequest:
        """Stamp a request with its absolute deadline at the service edge;
        ``fields`` are :func:`~repro.serve.protocol.stamp_request`'s, and
        so is the :class:`~repro.errors.ServeError` for a field it refuses."""
        return stamp_request(self.config, self._clock(), op, device_id, **fields)

    # ------------------------------------------------------------------ #
    # The one entry point
    # ------------------------------------------------------------------ #

    def handle(self, request: ServeRequest) -> ServeResponse:
        """Serve one call end to end; never raises, always answers typed."""
        self.tracer.count("serve.requests_total")
        if request.op not in OPS:
            self.tracer.count("serve.bad_requests")
            return error_response(ERR_BAD_REQUEST, f"unknown op {request.op!r}")
        shard_id = self.bridge.shard_for(request.device_id)
        if shard_id is None:
            self.tracer.count("serve.not_found")
            return error_response(
                ERR_NOT_FOUND, f"unknown device {request.device_id!r}"
            )

        if not self.admission.admit(request.deadline_t):
            if not self.admission.meets_deadline(request.deadline_t):
                # Already expired: reject at the door rather than queue
                # it to die.
                self.tracer.count("serve.rejected_deadline")
                self._event(
                    "serve.reject", op=request.op, device=request.device_id,
                    reason="deadline",
                )
                return error_response(
                    ERR_DEADLINE,
                    "deadline already expired",
                )
            self.tracer.count("serve.shed")
            self._event("serve.shed", op=request.op, device=request.device_id)
            return error_response(
                ERR_OVERLOADED,
                "admission queue full; retry after backoff",
                retry_after_s=self.config.retry_after_s,
            )

        try:
            if request.op == "QueryBatteryStatus":
                return self._read(request, shard_id)
            return self._mutate(request, shard_id)
        except Exception as exc:  # noqa: BLE001 - the contract is "always answers"
            self.tracer.count("serve.internal_errors")
            return error_response(ERR_INTERNAL, f"{type(exc).__name__}: {exc}")
        finally:
            self.admission.release()

    # ------------------------------------------------------------------ #
    # Read path: always from cache, staleness as data
    # ------------------------------------------------------------------ #

    def _shard_serving(self, shard_id: int) -> bool:
        """Healthy heartbeat *and* breaker not open — the freshness input."""
        health = self.bridge.shard_health(shard_id)
        if health is None or not health.healthy:
            return False
        return self._breaker(shard_id).state != OPEN

    def _read(self, request: ServeRequest, shard_id: int) -> ServeResponse:
        entry = self.bridge.cache.read(
            request.device_id, shard_healthy=self._shard_serving(shard_id)
        )
        if entry is None:
            # Nothing ever published: the device exists but is not
            # emulating yet (pending shard) — or its shard is gone for
            # good and never got the chance.
            health = self.bridge.shard_health(shard_id)
            if health is not None and health.status == "quarantined":
                self.tracer.count("serve.quarantined")
                return error_response(
                    ERR_QUARANTINED,
                    f"shard {shard_id} is quarantined and "
                    f"{request.device_id!r} never reported status",
                )
            self.tracer.count("serve.not_running")
            return error_response(
                ERR_NOT_RUNNING,
                f"{request.device_id!r} has not started emulating yet",
            )
        self.tracer.count("serve.reads")
        if entry["degraded"]:
            self.tracer.count("serve.degraded_reads")
            self._event(
                "serve.degraded_read",
                device=request.device_id,
                shard=shard_id,
                stale_s=round(entry["stale_s"], 3),
            )
        return ServeResponse(
            ok=True,
            result={
                "device": entry["device"],
                "shard": entry["shard"],
                "statuses": entry["statuses"],
                "completed": entry["completed"],
            },
            degraded=entry["degraded"],
            stale_s=round(entry["stale_s"], 3),
        )

    # ------------------------------------------------------------------ #
    # Mutation path: breaker -> worker -> typed answer, deadline carried
    # ------------------------------------------------------------------ #

    def _mutate(self, request: ServeRequest, shard_id: int) -> ServeResponse:
        if self.bridge.cache.completed(request.device_id):
            self.tracer.count("serve.completed_rejects")
            return error_response(
                ERR_COMPLETED,
                f"{request.device_id!r} finished its run; mutations are moot",
            )
        health = self.bridge.shard_health(shard_id)
        if health is not None and health.status == "quarantined":
            self.tracer.count("serve.quarantined")
            return error_response(
                ERR_QUARANTINED, f"shard {shard_id} is quarantined for this run"
            )

        breaker = self._breaker(shard_id)
        if not breaker.allow():
            self.tracer.count("serve.breaker_fast_fails")
            return error_response(
                ERR_UNAVAILABLE,
                f"shard {shard_id} breaker is open; failing fast",
                retry_after_s=breaker.reset_after_s,
            )

        try:
            msg = self.bridge.call(
                shard_id, request.to_wire(), request.remaining_s(self._clock())
            )
        except TransportError as exc:
            breaker.record_failure()
            self.tracer.count("serve.send_failures")
            return error_response(
                ERR_UNAVAILABLE, str(exc), retry_after_s=self.config.retry_after_s
            )
        if msg is None:
            breaker.record_failure()
            self.tracer.count("serve.deadline_timeouts")
            self._event(
                "serve.deadline_timeout", op=request.op,
                device=request.device_id, shard=shard_id,
            )
            return error_response(
                ERR_DEADLINE,
                f"shard {shard_id} did not answer within the deadline",
            )
        breaker.record_success()  # the shard answered: transport is healthy
        if msg.get("ok"):
            self.tracer.count("serve.mutations_ok")
            return ServeResponse(ok=True, result=msg.get("result") or {})
        code = msg.get("error", ERR_INTERNAL)
        self.tracer.count(f"serve.worker_error.{code}")
        return error_response(code, msg.get("message", "worker-side failure"))

    # ------------------------------------------------------------------ #
    # Breakers, health, accounting
    # ------------------------------------------------------------------ #

    def _breaker(self, shard_id: int) -> CircuitBreaker:
        with self._breaker_lock:
            breaker = self._breakers.get(shard_id)
            if breaker is None:
                breaker = CircuitBreaker(
                    self.config.breaker_failures,
                    self.config.breaker_reset_s,
                    on_transition=lambda old, new, s=shard_id: (
                        self._breaker_transition(s, old, new)
                    ),
                )
                self._breakers[shard_id] = breaker
            return breaker

    def _breaker_transition(self, shard_id: int, old: str, new: str) -> None:
        self.tracer.count(f"serve.breaker_{new}")
        self._event("serve.breaker", shard=shard_id, from_state=old, to_state=new)

    def healthz(self) -> dict:
        """The ``/healthz`` payload: breaker + heartbeat state per shard."""
        shards = []
        for snap in self.bridge.health_snapshot():
            snap["breaker"] = self._breaker(snap["shard"]).snapshot()
            shards.append(snap)
        serving = any(s["healthy"] for s in shards)
        return {
            "ok": serving,
            "serving": serving,
            "bound": self.bridge.bound.is_set(),
            "shards": shards,
            "admission": self.admission.snapshot(),
            "cache": self.bridge.cache.snapshot(),
        }

    def _event(self, name: str, **fields) -> None:
        self.tracer.event(name, self._clock() - self._t0, **fields)


class FrontEndBackend:
    """A whole fleet front end as the backend of a dispatcher.

    The HTTP skin and a fleet exported as one TCP node both answer
    through it, so every device the supervisor serves keeps its
    bridge/breaker/cache machinery behind either door. It turns a checked
    wire dict back into a :class:`~repro.serve.protocol.ServeRequest` and
    lets :meth:`FleetFrontEnd.handle` do what it already does.
    """

    def __init__(self, front_end: FleetFrontEnd):
        self.front_end = front_end

    def devices(self) -> List[str]:
        """The fleet's whole device roster."""
        return self.front_end.bridge.devices()

    def statuses(self) -> Dict[str, List[dict]]:
        """Cached statuses for every device that has published any.

        Not counted as status reads: a ``Ping`` is no ``QueryBatteryStatus``.
        """
        out: Dict[str, List[dict]] = {}
        for device_id in self.devices():
            statuses = self.front_end.bridge.cache.statuses(device_id)
            if statuses is not None:
                out[device_id] = statuses
        return out

    def handle(self, wire: dict) -> dict:
        """Rebuild the typed request and let the front end serve it.

        The budget is the call's ``timeout_s``, or the front end's default
        when it names none. A received ``deadline_t`` and the caller's
        ``idempotency_key`` survive the hop as they came.
        """
        request = self.front_end.make_request(
            str(wire.get("op")),
            str(wire.get("device_id")),
            timeout_s=wire.get("timeout_s"),
            request_id=wire.get("request_id"),
            ratios=wire.get("ratios"),
            profile=wire.get("profile"),
            battery_index=wire.get("battery_index"),
        )
        carried = {key: wire[key] for key in ("deadline_t", "idempotency_key") if wire.get(key) is not None}
        return self.front_end.handle(replace(request, **carried)).to_wire()
