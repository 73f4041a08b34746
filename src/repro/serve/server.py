"""The HTTP skin over the front end, and the serving-fleet orchestrator.

Stdlib only: :class:`http.server.ThreadingHTTPServer` + JSON bodies. The
HTTP layer is deliberately dumb — map the route, query and body to the
wire dict a TCP battery node receives, hand it to the same
:class:`~repro.serve.protocol.NodeDispatcher` over a
:class:`~repro.serve.service.FrontEndBackend`, and translate the reply
into a status code (plus a ``Retry-After`` header when backpressure says
so). Checking the call and all failure policy live below this file.

Routes::

    GET  /healthz                      breaker + heartbeat state per shard
    GET  /v1/devices                   the device roster
    GET  /v1/status/<device>           QueryBatteryStatus (cache-backed)
    POST /v1/charge/<device>           SetCharge      {"ratios": [...]}
    POST /v1/discharge/<device>        SetDischarge   {"ratios": [...]}
    POST /v1/profile/<device>          SelectChargingProfile
                                       {"profile": "fast", "battery_index": 0}

Every request may carry ``timeout_s`` (query param on GET, body field on
POST) — its deadline budget, clamped to the configured maximum. A POST
may carry an ``Idempotency-Key`` header: a retry under the same key
after a 504 gets the first attempt's answer instead of applying again.

:class:`ServingFleet` owns the whole assembly: the fleet supervisor on a
background thread, the bridge between them, and the HTTP server — one
``start()``/``stop()`` pair for the CLI and the chaos harness.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from repro.errors import ServeError
from repro.obs import NULL_TRACER, Tracer
from repro.serve.bridge import ServeBridge
from repro.serve.protocol import ERR_BAD_REQUEST, NodeDispatcher, ServeResponse, error_response, response_from_wire
from repro.serve.service import FleetFrontEnd, FrontEndBackend, ServeConfig

__all__ = ["SDBRequestHandler", "make_http_server", "ServingFleet"]

#: Route prefix -> the SDB op it invokes.
_POST_OPS = {
    "charge": "SetCharge",
    "discharge": "SetDischarge",
    "profile": "SelectChargingProfile",
}

#: The body fields a POST may set; any other key is ignored.
_BODY_FIELDS = ("timeout_s", "ratios", "profile", "battery_index")

_MAX_BODY_BYTES = 64 * 1024


class SDBRequestHandler(BaseHTTPRequestHandler):
    """One HTTP request in, one typed JSON answer out. Never raises."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # Each answer leaves in one write: _send buffers the status line,
    # headers and body and flushes once, with Nagle off. Sent as two small
    # writes, the second waits under Nagle for the client's delayed ACK
    # (40 ms on Linux) on every request of a kept-open connection.
    wbufsize = -1
    disable_nagle_algorithm = True

    @property
    def front_end(self) -> FleetFrontEnd:
        return self.server.front_end  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # access logging is the tracer's job, not stderr's

    # -------------------------------------------------------------- #

    def do_GET(self):  # noqa: N802 - stdlib casing
        """Route ``/healthz``, ``/v1/devices``, and ``/v1/status/<device>``."""
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        if parts == ["healthz"]:
            payload = self.front_end.healthz()
            self._send(200 if payload["ok"] else 503, payload)
            return
        if parts == ["v1", "devices"]:
            self._send(200, {"ok": True, "devices": self.front_end.bridge.devices()})
            return
        if len(parts) == 3 and parts[:2] == ["v1", "status"]:
            wire = {"op": "QueryBatteryStatus", "device_id": parts[2]}
            raw_timeout = parse_qs(parsed.query).get("timeout_s", [None])[0]
            if raw_timeout is not None:
                try:
                    wire["timeout_s"] = float(raw_timeout)
                except ValueError:
                    wire["timeout_s"] = raw_timeout  # the dispatcher refuses it
            self._dispatch(wire)
            return
        self._respond(error_response(ERR_BAD_REQUEST, f"no route {parsed.path!r}"))

    def do_POST(self):  # noqa: N802 - stdlib casing
        """Route the mutations: ``/v1/{charge,discharge,profile}/<device>``."""
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        if len(parts) != 3 or parts[0] != "v1" or parts[1] not in _POST_OPS:
            self._refuse_body(f"no route {parsed.path!r}")
            return
        body = self._read_body()
        if body is None:
            return  # _read_body already answered
        wire = {key: body[key] for key in _BODY_FIELDS if key in body}
        wire.update(op=_POST_OPS[parts[1]], device_id=parts[2])
        idempotency_key = self.headers.get("Idempotency-Key")
        if idempotency_key:
            wire["idempotency_key"] = idempotency_key
        self._dispatch(wire)

    # -------------------------------------------------------------- #

    def _dispatch(self, wire: dict) -> None:
        self._respond(response_from_wire(self.server.dispatcher.dispatch(wire)))  # type: ignore[attr-defined]

    def _refuse_body(self, message: str) -> None:
        """Answer 400 without reading the body, and close the connection:
        the unread bytes would otherwise be parsed as the next request."""
        self.close_connection = True
        self._respond(error_response(ERR_BAD_REQUEST, message))

    def _read_body(self) -> Optional[dict]:
        if "Transfer-Encoding" in self.headers:
            self._refuse_body("Transfer-Encoding is not accepted; send Content-Length")
            return None
        declared = self.headers.get("Content-Length", "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            self._refuse_body(f"Content-Length {declared!r} is not a non-negative integer")
            return None
        length = int(declared)
        if length > _MAX_BODY_BYTES:
            self._refuse_body("request body too large")
            return None
        raw = self.rfile.read(length) if length else b"{}"
        try:
            body = json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            self._respond(error_response(ERR_BAD_REQUEST, f"invalid JSON body: {exc}"))
            return None
        if not isinstance(body, dict):
            self._respond(error_response(ERR_BAD_REQUEST, "body must be a JSON object"))
            return None
        return body

    def _respond(self, response: ServeResponse) -> None:
        headers = {}
        if response.retry_after_s is not None:
            # Ceil to a whole second: Retry-After is integer seconds, and
            # rounding down to 0 would invite an instant retry storm.
            headers["Retry-After"] = str(max(1, math.ceil(response.retry_after_s)))
        self._send(response.http_status, response.to_wire(), headers)

    def handle_expect_100(self):
        """Send ``100 Continue`` at once: the client holds the body back
        until it arrives, and ``_send`` flushes only after the body."""
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def send_error(self, code, message=None, explain=None):
        """Answer a request no ``do_*`` method sees with typed JSON.

        The stdlib calls this for an unparsable request line or header
        block, an over-long URI and a method without a handler. Each gets
        ``bad_request``, and the connection closes: the rest of the
        request is unread.
        """
        self.close_connection = True
        # An unparsable request line leaves the stdlib's HTTP/0.9 default,
        # under which no status line or header would be written.
        self.request_version = self.protocol_version
        self._respond(error_response(ERR_BAD_REQUEST, message or self.responses[code][0]))

    def _send(self, status: int, payload: dict, headers: Optional[dict] = None) -> None:
        try:
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up; its deadline already accounted for it.
            # Close the connection and drop the answer still buffered,
            # which the stdlib would flush again after the handler returns.
            self.close_connection = True
            unsent, self.wfile = self.wfile, io.BytesIO()
            with contextlib.suppress(OSError):
                unsent.close()


def make_http_server(front_end: FleetFrontEnd, host: str, port: int) -> ThreadingHTTPServer:
    """Bind the HTTP skin to a front end (``port`` 0 picks a free one); calls
    reach it through one dispatcher counting into its tracer, if it has one."""
    server = ThreadingHTTPServer((host, port), SDBRequestHandler)
    server.daemon_threads = True
    server.front_end = front_end  # type: ignore[attr-defined]
    server.dispatcher = NodeDispatcher(  # type: ignore[attr-defined]
        "http", FrontEndBackend(front_end), tracer=getattr(front_end, "tracer", NULL_TRACER)
    )
    return server


class ServingFleet:
    """A live fleet run plus its battery-as-a-service front end.

    Owns three moving parts and their shutdown order: the
    :class:`~repro.fleet.FleetSupervisor` (on a background thread, bridge
    attached), the :class:`FleetFrontEnd`, and the HTTP server. Built for
    the ``repro serve`` CLI and the chaos harness; tests drive the front
    end directly.
    """

    def __init__(
        self,
        supervisor,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[ServeConfig] = None,
        tracer: Tracer = NULL_TRACER,
    ):
        if supervisor.bridge is None:
            supervisor.bridge = ServeBridge()
        self.supervisor = supervisor
        self.bridge: ServeBridge = supervisor.bridge
        self.front_end = FleetFrontEnd(self.bridge, config, tracer=tracer)
        self._host = host
        self._port = port
        self._http: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._fleet_thread: Optional[threading.Thread] = None
        self._result = None
        self._started = False

    @property
    def address(self) -> str:
        if self._http is None:
            raise ServeError("serving fleet is not started")
        host, port = self._http.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def result(self):
        """The :class:`~repro.fleet.FleetResult`, once the run finished."""
        return self._result

    def start(self, *, bind_timeout_s: float = 30.0) -> "ServingFleet":
        """Bind the port, launch the fleet, and answer HTTP once it is bound.

        The port is bound first so that one which cannot be bound (busy,
        out of range) is a :class:`ServeError` before any worker exists.
        """
        if self._started:
            raise ServeError("serving fleet already started")
        self._started = True
        try:
            self._http = make_http_server(self.front_end, self._host, self._port)
        except (OSError, OverflowError) as exc:
            raise ServeError(f"cannot bind {self._host}:{self._port}: {exc}") from None

        def _run_fleet():
            self._result = self.supervisor.run()

        self._fleet_thread = threading.Thread(
            target=_run_fleet, name="serve-fleet", daemon=True
        )
        self._fleet_thread.start()
        if not self.bridge.bound.wait(timeout=bind_timeout_s):
            self.supervisor.request_stop()
            # Never served, so shutdown() would wait forever: just close.
            self._http.server_close()
            self._http = None
            raise ServeError(
                f"fleet did not bind its serving queues within {bind_timeout_s:.0f} s"
            )
        self._http_thread = threading.Thread(
            target=self._http.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="serve-http",
            daemon=True,
        )
        self._http_thread.start()
        return self

    def export_node(self, name: str, *, host: str = "127.0.0.1", port: int = 0):
        """Export this whole fleet as one battery node on the TCP protocol.

        Every device the supervisor serves becomes reachable through a
        :class:`~repro.net.directory.BatteryDirectory` that registers
        this node — the multi-machine story: one fleet, one node, its
        shard/breaker/cache machinery intact behind the wire. Returns
        the started :class:`~repro.net.node.BatteryNodeServer`; the
        caller owns ``stop()``.
        """
        # Imported lazily: repro.net pulls serve submodules in, so a
        # top-level import here would cycle through repro.serve.
        from repro.net.node import BatteryNodeServer

        dispatcher = NodeDispatcher(
            name, FrontEndBackend(self.front_end), tracer=self.front_end.tracer
        )
        return BatteryNodeServer(dispatcher, host=host, port=port).start()

    def wait(self, timeout_s: Optional[float] = None) -> bool:
        """Block until the fleet run finishes; True when it did."""
        if self._fleet_thread is None:
            raise ServeError("serving fleet is not started")
        self._fleet_thread.join(timeout_s)
        return not self._fleet_thread.is_alive()

    def stop(self, *, timeout_s: float = 30.0):
        """Stop serving, wind the fleet down, and return its result."""
        if self._http is not None:
            self._http.shutdown()
            self._http.server_close()
            self._http = None
        if self._http_thread is not None:
            self._http_thread.join(timeout=5.0)
            self._http_thread = None
        self.supervisor.request_stop()
        if self._fleet_thread is not None:
            self._fleet_thread.join(timeout=timeout_s)
        return self._result
