"""A battery node: the four SDB calls exported over a tiny wire protocol.

A node is three small parts:

* a **backend** — something that owns batteries and can answer the four
  SDB calls as JSON-safe dicts. :class:`RuntimeBackend` wraps one
  device's live :class:`~repro.core.runtime.SDBRuntime` (a single
  emulated device exported directly); :class:`FrontEndBackend` wraps a
  whole :class:`~repro.serve.service.FleetFrontEnd` (a fleet supervisor
  exporting all its shards as one node);
* a :class:`NodeDispatcher` — the protocol brain shared by every
  transport: routes ``Ping`` and the four ops, enforces deadlines, and
  deduplicates mutations through an :class:`IdempotencyTable`;
* a :class:`BatteryNodeServer` — the stdlib TCP skin (newline-delimited
  JSON, one exchange per connection, daemon threads).

Wire protocol: one JSON object per line each way. Requests carry ``op``
plus the :meth:`~repro.serve.protocol.ServeRequest.to_wire` fields;
mutations additionally carry ``idempotency_key``. Replies are
:meth:`~repro.serve.protocol.ServeResponse.to_wire` bodies. ``Ping``
answers double as heartbeats: they piggyback the node's device roster
and fresh battery statuses, so a directory's lease pump refreshes its
status cache for free on every renewal.

Idempotency: the table remembers the reply for every *applied* mutation
key. A retried ``SetCharge`` whose first attempt executed but lost its
reply (a one-way partition) replays the stored answer instead of
re-applying — the exactly-once half of the at-least-once retry loop.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import socketserver
import threading
import time
from typing import Dict, List, Optional

from repro.errors import NetError
from repro.obs import NULL_TRACER, Tracer
from repro.serve import protocol as serve_protocol
from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    ERR_NOT_FOUND,
    OPS,
    error_response,
    status_to_wire,
)

__all__ = [
    "IdempotencyTable",
    "RuntimeBackend",
    "FrontEndBackend",
    "NodeDispatcher",
    "BatteryNodeServer",
]

_MAX_LINE_BYTES = 1024 * 1024


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


class RuntimeBackend:
    """One emulated device's runtime, answering the four SDB calls.

    The single-device sibling of the fleet worker's servicer: both answer
    through :func:`~repro.serve.protocol.apply_call`, with no queue in
    between here.

    Args:
        device_id: the device name this backend exports.
        runtime: the live :class:`~repro.core.runtime.SDBRuntime`.
    """

    def __init__(self, device_id: str, runtime):
        self.device_id = device_id
        self.runtime = runtime

    def devices(self) -> List[str]:
        """The one-device roster."""
        return [self.device_id]

    def statuses(self) -> Dict[str, List[dict]]:
        """Fresh per-cell statuses, keyed by device (Ping piggyback)."""
        return {
            self.device_id: [status_to_wire(s) for s in self.runtime.query_status()]
        }

    def handle(self, wire: dict) -> dict:
        """Answer one of the four SDB calls as a wire reply dict."""
        device_id = wire.get("device_id")
        if device_id != self.device_id:
            return error_response(
                ERR_NOT_FOUND, f"node serves {self.device_id!r}, not {device_id!r}"
            ).to_wire()
        return serve_protocol.apply_call(self.runtime, wire).to_wire()


class FrontEndBackend:
    """A whole fleet front end exported as one node.

    The supervisor's shards keep their bridge/breaker/cache machinery;
    this backend just turns node wire dicts back into
    :class:`~repro.serve.protocol.ServeRequest` objects and lets
    :meth:`~repro.serve.service.FleetFrontEnd.handle` do what it already
    does. Deadlines survive the hop: the original absolute ``deadline_t``
    is carried through, not re-derived.
    """

    def __init__(self, front_end):
        self.front_end = front_end

    def devices(self) -> List[str]:
        """The fleet's whole device roster."""
        return self.front_end.bridge.devices()

    def statuses(self) -> Dict[str, List[dict]]:
        """Cached statuses for every device that has published any."""
        out: Dict[str, List[dict]] = {}
        for device_id in self.devices():
            entry = self.front_end.bridge.cache.read(device_id)
            if entry is not None:
                out[device_id] = entry["statuses"]
        return out

    def handle(self, wire: dict) -> dict:
        """Rebuild the typed request and let the front end serve it.

        The body gets the same check as over HTTP
        (:func:`~repro.serve.protocol.body_error`), and a request without
        a ``deadline_t`` gets the front end's default budget, as over HTTP.
        """
        refused = serve_protocol.body_error(wire)
        if refused is not None:
            return refused.to_wire()
        request = self.front_end.make_request(
            str(wire.get("op")),
            str(wire.get("device_id")),
            request_id=str(wire.get("request_id") or "net"),
            ratios=wire.get("ratios"),
            profile=wire.get("profile"),
            battery_index=wire.get("battery_index"),
        )
        if wire.get("deadline_t") is not None:
            request = dataclasses.replace(request, deadline_t=wire["deadline_t"])
        return self.front_end.handle(request).to_wire()


class NodeDispatcher:
    """The node's protocol brain, shared by TCP and in-process transports.

    Args:
        name: node name (echoed in Ping replies and trace events).
        backend: a :class:`RuntimeBackend` / :class:`FrontEndBackend`.
        tracer: receives ``node.*`` counters.
        idempotency: override the mutation dedup table (tests).
    """

    def __init__(
        self,
        name: str,
        backend,
        *,
        tracer: Tracer = NULL_TRACER,
        idempotency: Optional[IdempotencyTable] = None,
    ):
        self.name = name
        self.backend = backend
        self._tracer = tracer
        self.idempotency = idempotency if idempotency is not None else IdempotencyTable()

    def dispatch(self, message: dict) -> dict:
        """One request dict in, one reply dict out. Never raises."""
        try:
            return self._dispatch(message)
        except Exception as exc:  # noqa: BLE001 - a node always answers
            return error_response(
                serve_protocol.ERR_INTERNAL, f"{type(exc).__name__}: {exc}"
            ).to_wire()

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
        if op not in OPS:
            return error_response(ERR_BAD_REQUEST, f"unknown op {op!r}").to_wire()
        refused = serve_protocol.deadline_error(message.get("deadline_t"), time.time())
        if refused is not None:
            return refused.to_wire()
        key = message.get("idempotency_key")
        if key is not None and op in serve_protocol.MUTATING_OPS:
            replay = self.idempotency.check(str(key))
            if replay is not None:
                self._tracer.count("node.idempotent_replays")
                replay["replayed"] = True
                return replay
        reply = self.backend.handle(message)
        if key is not None and op in serve_protocol.MUTATING_OPS and reply.get("ok"):
            self.idempotency.record(str(key), reply)
        return reply


class _NodeTCPHandler(socketserver.StreamRequestHandler):
    """One connection: read one JSON line, answer one JSON line."""

    def handle(self) -> None:
        try:
            line = self.rfile.readline(_MAX_LINE_BYTES)
            if not line.strip():
                return
            try:
                message = json.loads(line)
            except json.JSONDecodeError:
                reply = error_response(ERR_BAD_REQUEST, "garbled request frame").to_wire()
            else:
                reply = self.server.dispatcher.dispatch(message)  # type: ignore[attr-defined]
            self.wfile.write(json.dumps(reply).encode() + b"\n")
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # the caller's retry loop owns this failure


class _NodeTCPServer(socketserver.ThreadingTCPServer):
    """A threaded listener whose options are set before its socket binds.

    They are class attributes because the constructor binds: set on the
    instance afterwards they never reach the socket. The node closes each
    connection first, so its port holds TIME_WAIT entries after serving
    calls, and a node restarted on that port needs ``SO_REUSEADDR``.
    """

    allow_reuse_address = True
    daemon_threads = True


class BatteryNodeServer:
    """The TCP skin over a dispatcher: bind, serve on a thread, stop.

    Args:
        dispatcher: the :class:`NodeDispatcher` answering requests.
        host: bind host.
        port: bind port (0 picks a free one).
    """

    def __init__(self, dispatcher: NodeDispatcher, *, host: str = "127.0.0.1", port: int = 0):
        self.dispatcher = dispatcher
        self._host = host
        self._port = port
        self._server: Optional[_NodeTCPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self):
        """``(host, port)`` once started."""
        if self._server is None:
            raise NetError(f"node {self.dispatcher.name!r} is not started")
        return self._server.server_address[:2]

    def start(self) -> "BatteryNodeServer":
        """Bind and serve on a daemon thread; returns self for chaining."""
        if self._server is not None:
            raise NetError(f"node {self.dispatcher.name!r} already started")
        try:
            server = _NodeTCPServer((self._host, self._port), _NodeTCPHandler)
        except OSError as exc:
            raise NetError(
                f"node {self.dispatcher.name!r} cannot bind "
                f"{self._host}:{self._port}: {exc}"
            ) from exc
        server.dispatcher = self.dispatcher  # type: ignore[attr-defined]
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name=f"net-node-{self.dispatcher.name}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the listener down and join the serving thread."""
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
