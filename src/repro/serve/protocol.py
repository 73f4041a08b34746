"""The battery-as-a-service wire protocol: requests, responses, errors.

The SDB paper frames its four calls (QueryBatteryStatus / SetCharge /
SetDischarge / SelectChargingProfile) as a *service* contract between the
OS and applications. This module is that contract as plain JSON-safe
data, designed around failure:

* every request carries an absolute **deadline** (derived from the
  client's ``timeout_s``) that propagates all the way into the shard
  worker, so work is never done for a caller that has already given up;
* every failure is a **typed error** with an explicit ``retryable``
  flag — backpressure and transient outages invite a retry (with a
  ``retry_after_s`` hint), caller bugs and permanent conditions do not;
* every read answer carries ``degraded`` / ``stale_s`` so partial
  availability is an *answer*, not an exception.

It is also the one place that decides how a call reaching a device is
checked and applied: :class:`NodeDispatcher` checks every call that any
door hands it, :func:`stamp_request` builds a request at a service edge,
:func:`response_from_wire` decodes a reply, and :func:`apply_call` is
the servicer that the battery node and the shard worker both answer
through.

Nothing here imports the server or the fleet — protocol objects are the
seam between them (and what the wire tests exercise in isolation).
"""

from __future__ import annotations

import collections
import math
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import RatioError, ServeError
from repro.hardware.charge import FAST_PROFILE, GENTLE_PROFILE, STANDARD_PROFILE
from repro.obs import NULL_TRACER, Tracer

__all__ = [
    "OPS",
    "MUTATING_OPS",
    "ERR_BAD_REQUEST",
    "ERR_NOT_FOUND",
    "ERR_COMPLETED",
    "ERR_OVERLOADED",
    "ERR_DEADLINE",
    "ERR_UNAVAILABLE",
    "ERR_QUARANTINED",
    "ERR_NOT_RUNNING",
    "ERR_INTERNAL",
    "HTTP_STATUS",
    "RETRYABLE",
    "ServeRequest",
    "ServeResponse",
    "error_response",
    "response_from_wire",
    "status_to_wire",
    "parse_ratios",
    "finite_number",
    "PROFILES",
    "stamp_request",
    "apply_call",
    "IdempotencyTable",
    "NodeDispatcher",
]

#: The four SDB calls, service-side spelling (Section 3.3 / Figure 5).
OPS = (
    "QueryBatteryStatus",
    "SetCharge",
    "SetDischarge",
    "SelectChargingProfile",
)

#: Ops that mutate device state and therefore must reach a live worker.
MUTATING_OPS = ("SetCharge", "SetDischarge", "SelectChargingProfile")

#: The charging profiles ``SelectChargingProfile`` chooses among, by name.
PROFILES = {p.name: p for p in (STANDARD_PROFILE, FAST_PROFILE, GENTLE_PROFILE)}

# --------------------------------------------------------------------- #
# Error taxonomy
# --------------------------------------------------------------------- #

ERR_BAD_REQUEST = "bad_request"  # malformed op/args — the caller's bug
ERR_NOT_FOUND = "not_found"  # unknown device id
ERR_COMPLETED = "completed"  # device finished its run; mutations are moot
ERR_OVERLOADED = "overloaded"  # admission queue full — backpressure
ERR_DEADLINE = "deadline_exceeded"  # could not (or would not) finish in time
ERR_UNAVAILABLE = "unavailable"  # shard down / breaker open / not started
ERR_QUARANTINED = "quarantined"  # shard permanently failed for this run
ERR_NOT_RUNNING = "not_running"  # device exists but is not emulating yet
ERR_INTERNAL = "internal"  # unexpected server-side failure

#: Which error codes invite a retry. The split is the degraded-mode
#: contract: transient conditions (load, deadlines, a dead-but-restarting
#: shard) are retryable; caller bugs and for-this-run-permanent states
#: are not.
RETRYABLE = {
    ERR_BAD_REQUEST: False,
    ERR_NOT_FOUND: False,
    ERR_COMPLETED: False,
    ERR_OVERLOADED: True,
    ERR_DEADLINE: True,
    ERR_UNAVAILABLE: True,
    ERR_QUARANTINED: False,
    ERR_NOT_RUNNING: True,
    ERR_INTERNAL: False,
}

#: HTTP status each error code maps to (the server's only job is this
#: mapping plus a ``Retry-After`` header when ``retry_after_s`` is set).
HTTP_STATUS = {
    ERR_BAD_REQUEST: 400,
    ERR_NOT_FOUND: 404,
    ERR_COMPLETED: 410,
    ERR_OVERLOADED: 429,
    ERR_DEADLINE: 504,
    ERR_UNAVAILABLE: 503,
    ERR_QUARANTINED: 503,
    ERR_NOT_RUNNING: 503,
    ERR_INTERNAL: 500,
}


@dataclass(frozen=True)
class ServeRequest:
    """One admitted-or-not service call, deadline attached.

    ``deadline_t`` is absolute wall-clock time (``time.time()`` base —
    comparable across the supervisor and worker processes), computed once
    at the service edge from the client's ``timeout_s`` and carried with
    the request everywhere it goes.
    """

    op: str
    device_id: str
    request_id: str
    deadline_t: float
    #: SetCharge / SetDischarge ratio vector (per-battery shares).
    ratios: Optional[tuple] = None
    #: SelectChargingProfile profile name (``fast``/``standard``/``gentle``).
    profile: Optional[str] = None
    #: Optional battery index for profile selection (default: whole device).
    battery_index: Optional[int] = None
    #: The caller's key for a mutation: a device applies each key once.
    idempotency_key: Optional[str] = None

    def remaining_s(self, now: Optional[float] = None) -> float:
        """Seconds until the deadline (negative = already blown)."""
        return self.deadline_t - (time.time() if now is None else now)

    @property
    def mutating(self) -> bool:
        return self.op in MUTATING_OPS

    def to_wire(self) -> dict:
        """The JSON-safe form shipped to a shard worker."""
        wire = {
            "request_id": self.request_id,
            "op": self.op,
            "device_id": self.device_id,
            "deadline_t": self.deadline_t,
        }
        if self.ratios is not None:
            wire["ratios"] = list(self.ratios)
        for name in ("profile", "battery_index", "idempotency_key"):
            if getattr(self, name) is not None:
                wire[name] = getattr(self, name)
        return wire


@dataclass
class ServeResponse:
    """What every service call returns, success or failure.

    ``ok`` answers carry ``result``; failures carry ``error`` (a code
    from the taxonomy above), its ``retryable`` flag, and — for
    backpressure — a ``retry_after_s`` hint. Read answers additionally
    carry the degraded-read fields: ``degraded`` (the answer came from a
    cache entry older than the freshness bound, or the owning shard is
    down) and ``stale_s`` (the entry's age).
    """

    ok: bool
    result: Optional[dict] = None
    error: Optional[str] = None
    message: str = ""
    retryable: Optional[bool] = None
    retry_after_s: Optional[float] = None
    degraded: Optional[bool] = None
    stale_s: Optional[float] = None
    fields: dict = field(default_factory=dict)

    @property
    def http_status(self) -> int:
        if self.ok:
            return 200
        return HTTP_STATUS.get(self.error or ERR_INTERNAL, 500)

    def to_wire(self) -> dict:
        """The JSON body: only the fields this answer actually has."""
        wire: dict = {"ok": self.ok}
        if self.result is not None:
            wire["result"] = self.result
        if self.error is not None:
            wire.update(
                error=self.error,
                message=self.message,
                retryable=self.retryable
                if self.retryable is not None
                else RETRYABLE.get(self.error, False),
            )
        if self.retry_after_s is not None:
            wire["retry_after_s"] = self.retry_after_s
        if self.degraded is not None:
            wire["degraded"] = self.degraded
        if self.stale_s is not None:
            wire["stale_s"] = self.stale_s
        wire.update(self.fields)
        return wire


def error_response(
    code: str, message: str, *, retry_after_s: Optional[float] = None
) -> ServeResponse:
    """A typed failure with its retryability looked up from the taxonomy."""
    return ServeResponse(
        ok=False,
        error=code,
        message=message,
        retryable=RETRYABLE.get(code, False),
        retry_after_s=retry_after_s,
    )


def response_from_wire(reply: dict) -> ServeResponse:
    """Rebuild a typed :class:`ServeResponse` from a dispatcher's wire reply."""
    if not isinstance(reply, dict):
        return error_response(ERR_UNAVAILABLE, "malformed reply from node")
    known = {
        "ok", "result", "error", "message", "retryable",
        "retry_after_s", "degraded", "stale_s",
    }
    extra = {k: v for k, v in reply.items() if k not in known}
    error = reply.get("error")
    return ServeResponse(
        ok=bool(reply.get("ok")),
        result=reply.get("result"),
        error=error,
        message=str(reply.get("message", "")),
        retryable=reply.get(
            "retryable", RETRYABLE.get(error, False) if error is not None else None
        ),
        retry_after_s=reply.get("retry_after_s"),
        degraded=reply.get("degraded"),
        stale_s=reply.get("stale_s"),
        fields=extra,
    )


def status_to_wire(status) -> dict:
    """One :class:`~repro.cell.fuel_gauge.BatteryStatus` as JSON-safe data.

    The wire form is what the worker publishes at heartbeat cadence and
    what the status cache stores — plain floats/strings only, so it
    crosses the process boundary and serializes without ceremony.
    """
    return {
        "name": status.name,
        "soc": float(status.soc),
        "estimated_soc": float(status.estimated_soc),
        "terminal_voltage": float(status.terminal_voltage),
        "cycle_count": int(status.cycle_count),
        "capacity_mah": float(status.capacity_mah),
        "is_empty": bool(status.is_empty),
        "is_full": bool(status.is_full),
        "soc_confidence": float(status.soc_confidence),
        "protection_state": str(status.protection_state),
    }


def finite_number(value) -> Optional[float]:
    """``value`` as a float if it is a finite JSON number (not a bool), else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        return None
    return value if math.isfinite(value) else None


def parse_ratios(raw, *, what: str = "ratios") -> tuple:
    """Validate a client-supplied ratio vector shape (finite numbers only).

    Only *shape* is checked here — normalization and length are the
    controller's contract (:func:`repro.hardware.validate_ratios`), and
    its verdict travels back as a typed ``bad_request``. Non-finite
    values stop here: every comparison with NaN is false, so the
    controller's checks would install it.
    """
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ValueError(f"{what} must be a non-empty list of numbers")
    out = tuple(finite_number(value) for value in raw)
    if None in out:
        raise ValueError(f"{what} must contain only finite numbers")
    return out


def stamp_request(
    config,
    now: float,
    op: str,
    device_id: str,
    *,
    timeout_s: Optional[float] = None,
    ratios=None,
    profile: Optional[str] = None,
    battery_index: Optional[int] = None,
    request_id: Optional[str] = None,
) -> ServeRequest:
    """Stamp a request with its absolute deadline at a service edge.

    The budget is ``timeout_s``, or ``config.default_timeout_s`` when the
    caller names none, clamped to ``[0, config.max_timeout_s]``.

    Raises:
        ServeError: naming the field, for a ``timeout_s`` that is not a
            finite number or a ``ratios`` that is not a sequence (the
            values every wire door answers as ``bad_request``).
    """
    if timeout_s is not None and finite_number(timeout_s) is None:
        raise ServeError(f"timeout_s must be a finite number, not {timeout_s!r}")
    if ratios is not None:
        try:
            ratios = tuple(ratios)
        except TypeError:
            raise ServeError(f"ratios must be a sequence, not {ratios!r}") from None
    budget = config.default_timeout_s if timeout_s is None else float(timeout_s)
    budget = min(max(budget, 0.0), config.max_timeout_s)
    return ServeRequest(
        op=op,
        device_id=device_id,
        request_id=request_id or uuid.uuid4().hex,
        deadline_t=now + budget,
        ratios=ratios,
        profile=profile,
        battery_index=battery_index,
    )


def apply_call(runtime, wire: dict) -> ServeResponse:
    """Check one SDB call's arguments and apply it to a live runtime.

    The one servicer: a battery node's backend and a shard worker answer
    through it once they have routed the call to ``runtime`` (an
    :class:`~repro.core.runtime.SDBRuntime`). A malformed argument is
    ``bad_request`` and leaves the runtime untouched.
    """
    op = wire.get("op")
    if op == "QueryBatteryStatus":
        statuses = [status_to_wire(s) for s in runtime.query_status()]
        return ServeResponse(ok=True, result={"statuses": statuses})
    if op not in MUTATING_OPS:
        return error_response(ERR_BAD_REQUEST, f"op {op!r} is not servable")
    try:
        if op == "SelectChargingProfile":
            profile = _profile(wire.get("profile"))
            battery_index = _battery_index(wire.get("battery_index"), runtime.controller.n)
        else:
            ratios = parse_ratios(wire.get("ratios"))
    except ValueError as exc:
        return error_response(ERR_BAD_REQUEST, str(exc))
    if op == "SelectChargingProfile":
        runtime.apply_profile(profile, battery_index)
        return ServeResponse(ok=True, result={"applied": True, "profile": profile.name})
    apply = runtime.apply_charge if op == "SetCharge" else runtime.apply_discharge
    try:
        landed = apply(ratios)
    except RatioError as exc:
        return error_response(ERR_BAD_REQUEST, str(exc))
    if not landed:
        return error_response(
            ERR_UNAVAILABLE, "controller rejected the vector after transient-loss retries"
        )
    return ServeResponse(ok=True, result={"applied": True, "ratios": list(ratios)})


def _profile(name):
    profile = PROFILES.get(name) if isinstance(name, str) else None
    if profile is None:
        raise ValueError(f"unknown charging profile {name!r}")
    return profile


def _battery_index(raw, n: int) -> Optional[int]:
    """None selects every battery; otherwise an int (not a bool) in range."""
    if raw is not None and (isinstance(raw, bool) or not isinstance(raw, int) or not 0 <= raw < n):
        raise ValueError(f"battery_index must be an integer in [0, {n}), not {raw!r}")
    return raw


class IdempotencyTable:
    """Bounded key → reply memory for exactly-once mutation application.

    Only *successful* replies are recorded: a failed attempt must stay
    retryable as a fresh application. Eviction is FIFO on insertion
    order — old enough to outlive any realistic retry window, bounded
    enough to never grow without limit.
    """

    def __init__(self, capacity: int = 1024):
        if capacity <= 0:
            raise ValueError("idempotency table capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._replies: "collections.OrderedDict[str, dict]" = collections.OrderedDict()
        self.replays = 0

    def check(self, key: str) -> Optional[dict]:
        """The stored reply for a seen key, or None for a fresh one."""
        with self._lock:
            reply = self._replies.get(key)
            if reply is not None:
                self.replays += 1
                return dict(reply)
            return None

    def record(self, key: str, reply: dict) -> None:
        """Remember an applied mutation's reply under its key."""
        with self._lock:
            self._replies[key] = dict(reply)
            while len(self._replies) > self.capacity:
                self._replies.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._replies)


class NodeDispatcher:
    """The one check of a call reaching a device, whichever door it used.

    The HTTP skin, a TCP battery node, the shard worker's queue and the
    directory's local entries each decode their framing into a wire dict
    and hand it here. The dispatcher answers ``Ping``, refuses an unknown
    op, a body field it cannot use and a received deadline that has
    passed, replays a mutation key it already applied, and otherwise asks
    its backend.

    Args:
        name: node name (echoed in Ping replies and trace events).
        backend: a :class:`~repro.net.node.RuntimeBackend`, a
            :class:`~repro.serve.service.FrontEndBackend` or a shard
            worker's servicer: ``handle`` answers a call as a wire dict,
            ``devices`` and ``statuses`` answer Ping.
        tracer: receives ``node.*`` counters.
    """

    def __init__(self, name: str, backend, *, tracer: Tracer = NULL_TRACER):
        self.name = name
        self.backend = backend
        self._tracer = tracer
        self.idempotency = IdempotencyTable()

    def dispatch(self, message: dict) -> dict:
        """One request dict in, one reply dict out. Never raises."""
        try:
            return self._dispatch(message)
        except Exception as exc:  # noqa: BLE001 - a node always answers
            return error_response(ERR_INTERNAL, f"{type(exc).__name__}: {exc}").to_wire()

    def _dispatch(self, message: dict) -> dict:
        if not isinstance(message, dict):
            return error_response(ERR_BAD_REQUEST, "request must be a JSON object").to_wire()
        op = message.get("op")
        self._tracer.count("node.requests")
        if op == "Ping":
            return {
                "ok": True,
                "node": self.name,
                "devices": self.backend.devices(),
                "statuses": self.backend.statuses(),
                "idempotent_replays": self.idempotency.replays,
            }
        refused = self._refusal(op, message)
        if refused is not None:
            return refused.to_wire()
        key = message.get("idempotency_key")
        if key is not None and op in MUTATING_OPS:
            replay = self.idempotency.check(str(key))
            if replay is not None:
                self._tracer.count("node.idempotent_replays")
                replay["replayed"] = True
                return replay
        reply = self.backend.handle(message)
        if key is not None and op in MUTATING_OPS and reply.get("ok"):
            self.idempotency.record(str(key), reply)
        return reply

    def _refusal(self, op, message: dict) -> Optional[ServeResponse]:
        """Why this call must not reach the backend, or None."""
        if op not in OPS:
            return error_response(ERR_BAD_REQUEST, f"unknown op {op!r}")
        # A timeout_s that is not a finite number must not reach the
        # deadline arithmetic: NaN never expires and inf parks a slot
        # forever. A ratios that is not an array would fail inside
        # stamp_request, or hand a string's characters to the device.
        timeout_s = message.get("timeout_s")
        if timeout_s is not None and finite_number(timeout_s) is None:
            return error_response(ERR_BAD_REQUEST, "timeout_s must be a finite number")
        ratios = message.get("ratios")
        if ratios is not None and not isinstance(ratios, list):
            return error_response(ERR_BAD_REQUEST, "ratios must be a JSON array")
        # A call without a deadline has none. Anything but a finite number
        # is bad_request: NaN would never expire and true would read as
        # the epoch second 1.0. A deadline already past is
        # deadline_exceeded: the caller has given up, so no work is done
        # on its behalf.
        deadline_t = message.get("deadline_t")
        if deadline_t is None:
            return None
        if finite_number(deadline_t) is None:
            return error_response(
                ERR_BAD_REQUEST, f"deadline_t must be a finite number, not {deadline_t!r}"
            )
        if time.time() > deadline_t:
            return error_response(ERR_DEADLINE, "deadline expired before execution")
        return None
