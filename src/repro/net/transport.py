"""The wire seam: how a directory exchanges one message with a node.

A :class:`Transport` turns one JSON-safe request dict into one JSON-safe
reply dict, or raises :class:`~repro.errors.TransportError` — nothing
else. Every failure mode of a real network (refused connection, timeout,
torn frame, garbage bytes) is collapsed into that one exception type,
because the directory's retry loop, circuit breaker and lease machinery
all act on exactly one signal: *this exchange did not complete*.

Three implementations:

* :class:`TcpTransport` — one short-lived TCP connection per call,
  newline-delimited JSON. Deliberately connectionless-per-call: a
  partition can then never wedge a pooled socket, and the node side
  stays a trivial ``socketserver`` handler.
* :class:`InProcessTransport` — calls a dispatcher function directly;
  the unit tests' and single-process demos' transport.
* :class:`NetFaultInjector` — a decorator over any of the above that
  consults a :class:`~repro.faults.net.NetFaultSchedule` and injects
  drops, delays, duplicates, one-way partitions (request lands, reply
  lost — the idempotency-key case) and full partitions, emitting a
  ``net.fault`` trace event for every injection.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Callable, Optional

from repro.errors import TransportError
from repro.faults.net import NetFaultSchedule
from repro.obs import NULL_TRACER, Tracer

__all__ = ["Transport", "TcpTransport", "InProcessTransport", "NetFaultInjector"]

_MAX_FRAME_BYTES = 1024 * 1024


class Transport:
    """One request dict in, one reply dict out, or :class:`TransportError`."""

    def call(self, message: dict, timeout_s: float) -> dict:
        """Exchange one message with the node within ``timeout_s``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any held resources; calling after close is undefined."""


class TcpTransport(Transport):
    """One TCP connect / one JSON line each way / close, per call.

    Args:
        host: node host.
        port: node port.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = int(port)

    def __repr__(self) -> str:
        return f"TcpTransport({self.host!r}, {self.port})"

    def call(self, message: dict, timeout_s: float) -> dict:
        """Connect, send one JSON line, read one JSON line, disconnect."""
        if timeout_s <= 0:
            raise TransportError("no time left for a wire exchange")
        try:
            frame = json.dumps(message).encode() + b"\n"
        except (TypeError, ValueError) as exc:
            raise TransportError(f"request is not JSON-safe: {exc}") from exc
        try:
            with socket.create_connection((self.host, self.port), timeout=timeout_s) as conn:
                conn.settimeout(timeout_s)
                conn.sendall(frame)
                reply = self._read_line(conn)
        except TransportError:
            raise
        except (OSError, ValueError) as exc:
            raise TransportError(
                f"exchange with {self.host}:{self.port} failed: {exc}"
            ) from exc
        try:
            decoded = json.loads(reply)
        except json.JSONDecodeError as exc:
            raise TransportError(f"garbled reply from {self.host}:{self.port}") from exc
        if not isinstance(decoded, dict):
            raise TransportError(f"non-object reply from {self.host}:{self.port}")
        return decoded

    def _read_line(self, conn: socket.socket) -> bytes:
        chunks = []
        total = 0
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                if chunks and chunks[-1].endswith(b"\n"):
                    break
                raise TransportError(
                    f"connection to {self.host}:{self.port} closed mid-reply"
                )
            chunks.append(chunk)
            total += len(chunk)
            if chunk.endswith(b"\n") or b"\n" in chunk:
                break
            if total > _MAX_FRAME_BYTES:
                raise TransportError(f"reply from {self.host}:{self.port} exceeds frame cap")
        return b"".join(chunks).split(b"\n", 1)[0]


class InProcessTransport(Transport):
    """Dispatch straight into a node's handler — no sockets, no copies.

    Args:
        dispatcher: ``message -> reply`` callable (typically
            :meth:`repro.serve.protocol.NodeDispatcher.dispatch`). Exceptions
            it raises surface as :class:`TransportError`, matching what
            a crashed node looks like over TCP.
    """

    def __init__(self, dispatcher: Callable[[dict], dict]):
        self._dispatcher = dispatcher

    def call(self, message: dict, timeout_s: float) -> dict:
        """Dispatch directly, JSON round-tripped to mimic the wire."""
        if timeout_s <= 0:
            raise TransportError("no time left for a wire exchange")
        try:
            # Round-trip through JSON so in-process behaves like the wire:
            # no shared mutable state, no non-serializable payloads.
            reply = self._dispatcher(json.loads(json.dumps(message)))
            return json.loads(json.dumps(reply))
        except TransportError:
            raise
        except Exception as exc:  # noqa: BLE001 - a dead dispatcher IS a transport failure
            raise TransportError(f"in-process dispatch failed: {exc}") from exc


class NetFaultInjector(Transport):
    """Inject scheduled wire faults between a directory and one node.

    Wraps any :class:`Transport`. On every call it asks the schedule
    what this exchange should suffer, relative to the injector's arm
    time (``t0``, captured at construction or via :meth:`arm`):

    * full partition — nothing crosses; raise without delivering;
    * one-way partition — deliver (the node executes!) then raise as if
      the reply was lost: the caller cannot tell this from a drop, which
      is exactly why mutations need idempotency keys;
    * drop — raise without delivering;
    * delay — sleep first; if the delay eats the whole timeout, raise
      (the caller's clock ran out while the frame sat in the queue);
    * duplicate — deliver twice, return the first reply (the node's
      idempotency table absorbs the second application).

    Args:
        inner: the real transport.
        schedule: the seeded fault schedule.
        node: node name, for schedule filters and trace events.
        clock: injectable monotonic-ish clock.
        sleep: injectable sleep (tests pass a no-op).
        tracer: receives ``net.fault`` events / ``net.faults_injected``.
    """

    def __init__(
        self,
        inner: Transport,
        schedule: NetFaultSchedule,
        node: str,
        *,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
        tracer: Tracer = NULL_TRACER,
    ):
        self.inner = inner
        self.schedule = schedule
        self.node = node
        self._clock = clock
        self._sleep = sleep
        self._tracer = tracer
        self._t0 = clock()

    def arm(self, t0: Optional[float] = None) -> None:
        """Re-zero the schedule clock (default: now)."""
        self._t0 = self._clock() if t0 is None else t0

    @property
    def elapsed_s(self) -> float:
        return self._clock() - self._t0

    def call(self, message: dict, timeout_s: float) -> dict:
        """Forward to the inner transport, minus whatever the schedule says."""
        t = self.elapsed_s
        decision = self.schedule.decide(t, self.node)
        if decision.clean:
            return self.inner.call(message, timeout_s)
        if decision.partition == "partition":
            self._record("partition", t)
            raise TransportError(f"full partition to node {self.node!r}")
        if decision.drop:
            self._record("drop", t)
            raise TransportError(f"request to node {self.node!r} dropped")
        if decision.delay_s > 0.0:
            self._record("delay", t, delay_s=decision.delay_s)
            self._sleep(min(decision.delay_s, timeout_s))
            if decision.delay_s >= timeout_s:
                raise TransportError(
                    f"exchange with node {self.node!r} delayed past its timeout"
                )
            timeout_s -= decision.delay_s
        reply = self.inner.call(message, timeout_s)
        if decision.duplicate:
            self._record("duplicate", t)
            try:
                self.inner.call(message, timeout_s)
            except TransportError:
                pass  # the duplicate dying changes nothing for the caller
        if decision.partition == "oneway":
            self._record("oneway", t)
            raise TransportError(f"reply from node {self.node!r} lost (one-way partition)")
        return reply

    def close(self) -> None:
        self.inner.close()

    def _record(self, kind: str, t: float, **fields) -> None:
        self._tracer.count("net.faults_injected")
        self._tracer.event("net.fault", t, node=self.node, kind=kind, **fields)
