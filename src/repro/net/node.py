"""A battery node: the four SDB calls exported over a tiny wire protocol.

A node is three small parts:

* a **backend** — something that owns batteries and can answer the four
  SDB calls as JSON-safe dicts. :class:`RuntimeBackend` wraps one
  device's live :class:`~repro.core.runtime.SDBRuntime` (a single
  emulated device exported directly);
  :class:`~repro.serve.service.FrontEndBackend` wraps a whole
  :class:`~repro.serve.service.FleetFrontEnd` (a fleet supervisor
  exporting all its shards as one node);
* a :class:`~repro.serve.protocol.NodeDispatcher` (re-exported here) —
  the one check of a call reaching a device, shared by every door: routes
  ``Ping`` and the four ops, checks the body and deadline, and
  deduplicates mutations through an :class:`IdempotencyTable`;
* a :class:`BatteryNodeServer` — the stdlib TCP codec (newline-delimited
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

import json
import socketserver
import threading
from typing import Dict, List, Optional

from repro.errors import NetError
from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    ERR_NOT_FOUND,
    IdempotencyTable,
    NodeDispatcher,
    apply_call,
    error_response,
    status_to_wire,
)
from repro.serve.service import FrontEndBackend

__all__ = [
    "IdempotencyTable",
    "RuntimeBackend",
    "FrontEndBackend",
    "NodeDispatcher",
    "BatteryNodeServer",
]

_MAX_LINE_BYTES = 1024 * 1024


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
        return apply_call(self.runtime, wire).to_wire()


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
