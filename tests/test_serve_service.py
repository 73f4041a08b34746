"""The serving front end against a fake bridge: deadline propagation,
backpressure, degraded reads, breaker lifecycle, and the HTTP skin —
no worker processes, no fleet. The real-fleet integration runs in
``scripts/chaos_check.py serve-chaos`` (a CI ``chaos`` matrix entry).
"""

import contextlib
import http.client
import json
import queue
import socket
import statistics
import struct
import threading
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.obs import Tracer
from repro.serve import (
    OPEN,
    FleetFrontEnd,
    ServeBridge,
    ServeConfig,
    ServeRequest,
    ServeResponse,
    error_response,
    make_http_server,
)

DEVICES = ("dev-a", "dev-b")


def make_bridge():
    """A bound bridge over in-process queues: shard 0 owns dev-a/dev-b."""
    bridge = ServeBridge()
    plan = SimpleNamespace(
        shard_id=0, devices=[SimpleNamespace(device_id=d) for d in DEVICES]
    )
    requests: queue.Queue = queue.Queue()
    responses: queue.Queue = queue.Queue()
    bridge.bind([plan], {0: requests}, responses)
    return bridge, requests, responses


class FakeWorker(threading.Thread):
    """Answers (or ignores) mutation requests like a shard servicer."""

    def __init__(self, requests, responses, handler):
        super().__init__(daemon=True)
        self.requests = requests
        self.responses = responses
        self.handler = handler
        self._halt = threading.Event()

    def run(self):
        while not self._halt.is_set():
            try:
                wire = self.requests.get(timeout=0.02)
            except queue.Empty:
                continue
            reply = self.handler(wire)
            if reply is not None:
                self.responses.put(reply)

    def stop(self):
        self._halt.set()
        self.join(timeout=2.0)


def echo_ok(wire):
    return {"request_id": wire["request_id"], "ok": True, "result": {"applied": True}}


def front_end(bridge, **overrides) -> FleetFrontEnd:
    config = ServeConfig(
        capacity=overrides.pop("capacity", 8),
        retry_after_s=0.2,
        default_timeout_s=overrides.pop("default_timeout_s", 0.5),
        stale_after_s=overrides.pop("stale_after_s", 5.0),
        breaker_failures=overrides.pop("breaker_failures", 2),
        breaker_reset_s=overrides.pop("breaker_reset_s", 0.1),
        **overrides,
    )
    return FleetFrontEnd(bridge, config, tracer=Tracer())


def healthy(bridge):
    bridge.update_shard(0, status="running", booted=True, beat=True, pid=123)


# --------------------------------------------------------------------- #
# Reads
# --------------------------------------------------------------------- #


def test_read_answers_from_cache_and_flags_staleness():
    bridge, _, _ = make_bridge()
    fe = front_end(bridge, stale_after_s=0.05)
    healthy(bridge)
    bridge.publish_status(0, "dev-a", [{"soc": 0.7}])
    resp = fe.handle(fe.make_request("QueryBatteryStatus", "dev-a"))
    assert resp.ok and resp.degraded is False
    assert resp.result["statuses"] == [{"soc": 0.7}]
    time.sleep(0.08)  # outlive the freshness bound
    resp = fe.handle(fe.make_request("QueryBatteryStatus", "dev-a"))
    assert resp.ok and resp.degraded is True and resp.stale_s > 0.05
    assert fe.tracer.counters["serve.degraded_reads"] == 1


def test_read_degrades_when_shard_is_down_even_if_entry_is_fresh():
    bridge, _, _ = make_bridge()
    fe = front_end(bridge)
    bridge.publish_status(0, "dev-a", [{"soc": 0.7}])
    bridge.update_shard(0, status="waiting", booted=False)  # dead/restarting
    resp = fe.handle(fe.make_request("QueryBatteryStatus", "dev-a"))
    assert resp.ok and resp.degraded is True  # still an answer, flagged


def test_read_before_any_publish_is_retryable_not_running():
    bridge, _, _ = make_bridge()
    fe = front_end(bridge)
    healthy(bridge)
    resp = fe.handle(fe.make_request("QueryBatteryStatus", "dev-a"))
    assert not resp.ok and resp.error == "not_running" and resp.retryable
    bridge.update_shard(0, status="quarantined", booted=False)
    resp = fe.handle(fe.make_request("QueryBatteryStatus", "dev-b"))
    assert not resp.ok and resp.error == "quarantined" and not resp.retryable


def test_unknown_device_and_op_are_non_retryable():
    bridge, _, _ = make_bridge()
    fe = front_end(bridge)
    resp = fe.handle(fe.make_request("QueryBatteryStatus", "nope"))
    assert resp.error == "not_found" and resp.http_status == 404
    resp = fe.handle(fe.make_request("EatBattery", "dev-a"))
    assert resp.error == "bad_request" and resp.http_status == 400


# --------------------------------------------------------------------- #
# Mutations: deadline propagation and worker answers
# --------------------------------------------------------------------- #


def test_mutation_round_trip_carries_deadline_to_the_worker():
    bridge, requests, responses = make_bridge()
    fe = front_end(bridge)
    healthy(bridge)
    seen = {}

    def handler(wire):
        seen.update(wire)
        return echo_ok(wire)

    worker = FakeWorker(requests, responses, handler)
    worker.start()
    try:
        before = time.time()
        resp = fe.handle(
            fe.make_request("SetCharge", "dev-a", ratios=(0.5, 0.5), timeout_s=2.0)
        )
        assert resp.ok and resp.result == {"applied": True}
        assert seen["op"] == "SetCharge" and seen["ratios"] == [0.5, 0.5]
        # The absolute deadline crossed the wire intact.
        assert seen["deadline_t"] == pytest.approx(before + 2.0, abs=0.5)
    finally:
        worker.stop()


def test_mutation_times_out_against_a_silent_worker():
    bridge, _, _ = make_bridge()
    fe = front_end(bridge, default_timeout_s=0.15)
    healthy(bridge)
    t0 = time.monotonic()
    resp = fe.handle(fe.make_request("SetDischarge", "dev-a", ratios=(1.0,)))
    elapsed = time.monotonic() - t0
    assert resp.error == "deadline_exceeded" and resp.retryable
    assert elapsed < 1.0  # bounded by the deadline, not a hang
    assert fe.tracer.counters["serve.deadline_timeouts"] == 1


def test_mutation_on_completed_device_is_gone():
    bridge, _, _ = make_bridge()
    fe = front_end(bridge)
    healthy(bridge)
    bridge.mark_completed(0, "dev-a", [{"soc": 0.0}])
    resp = fe.handle(fe.make_request("SetCharge", "dev-a", ratios=(1.0,)))
    assert resp.error == "completed" and resp.http_status == 410

    resp = fe.handle(fe.make_request("QueryBatteryStatus", "dev-a"))
    assert resp.ok and resp.result["completed"] and resp.degraded is False


def test_worker_side_logical_errors_pass_through_typed():
    bridge, requests, responses = make_bridge()
    fe = front_end(bridge)
    healthy(bridge)
    worker = FakeWorker(
        requests,
        responses,
        lambda wire: {
            "request_id": wire["request_id"],
            "ok": False,
            "error": "not_running",
            "message": "between devices",
        },
    )
    worker.start()
    try:
        resp = fe.handle(fe.make_request("SetCharge", "dev-a", ratios=(1.0,)))
        assert resp.error == "not_running" and resp.retryable
        # A logical error is a *transport success*: no breaker damage.
        assert fe._breaker(0).state != OPEN
    finally:
        worker.stop()


# --------------------------------------------------------------------- #
# Breaker lifecycle over the mutation path
# --------------------------------------------------------------------- #


def test_breaker_opens_after_timeouts_then_fast_fails_then_recovers():
    bridge, requests, responses = make_bridge()
    fe = front_end(bridge, default_timeout_s=0.1, breaker_failures=2, breaker_reset_s=0.15)
    healthy(bridge)
    # Two consecutive deadline timeouts trip the breaker.
    for _ in range(2):
        resp = fe.handle(fe.make_request("SetCharge", "dev-a", ratios=(1.0,)))
        assert resp.error == "deadline_exceeded"
    assert fe._breaker(0).state == OPEN
    # While open: fail fast (no deadline burned) with a retry hint.
    t0 = time.monotonic()
    resp = fe.handle(fe.make_request("SetCharge", "dev-a", ratios=(1.0,)))
    assert resp.error == "unavailable" and resp.retry_after_s is not None
    assert time.monotonic() - t0 < 0.05
    # Reads keep answering (degraded) while the breaker is open.
    bridge.publish_status(0, "dev-a", [{"soc": 0.4}])
    read = fe.handle(fe.make_request("QueryBatteryStatus", "dev-a"))
    assert read.ok and read.degraded is True
    # After reset_after_s a probe goes through; a healthy worker closes it.
    worker = FakeWorker(requests, responses, echo_ok)
    worker.start()
    try:
        time.sleep(0.2)
        resp = fe.handle(fe.make_request("SetCharge", "dev-a", ratios=(1.0,)))
        assert resp.ok
        assert fe._breaker(0).state == "closed"
    finally:
        worker.stop()
    events = [r.name for r in fe.tracer.records if r.name == "serve.breaker"]
    assert len(events) >= 3  # closed->open, open->half_open, half_open->closed


# --------------------------------------------------------------------- #
# Overload and backpressure
# --------------------------------------------------------------------- #


def test_a_call_sent_to_its_worker_is_never_shed():
    """A full queue answers the newcomer 429 and sends it nowhere. It used
    to evict the admitted call with the soonest deadline instead and answer
    that one 429, although its mutation was already on the worker's queue
    and was still applied."""
    bridge, requests, responses = make_bridge()
    fe = front_end(bridge, capacity=2, default_timeout_s=5.0)
    healthy(bridge)
    applied = []

    def slow(wire):
        time.sleep(0.3)
        applied.append(tuple(wire["ratios"]))
        return echo_ok(wire)

    results = {}

    def call(name, ratios, timeout_s):
        request = fe.make_request("SetCharge", "dev-a", ratios=ratios, timeout_s=timeout_s)
        results[name] = fe.handle(request)

    worker = FakeWorker(requests, responses, slow)
    worker.start()
    admitted = [
        threading.Thread(target=call, args=("early", (0.9, 0.1), 1.5)),
        threading.Thread(target=call, args=("late", (0.5, 0.5), 5.0)),
    ]
    try:
        for thread in admitted:
            thread.start()
        deadline = time.monotonic() + 2.0
        while fe.tracer.counters.get("serve.mutations_sent", 0) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert fe.tracer.counters["serve.mutations_sent"] == 2
        t0 = time.monotonic()
        call("newcomer", (0.2, 0.8), 3.0)
        assert time.monotonic() - t0 < 0.2
        newcomer = results["newcomer"]
        assert newcomer.error == "overloaded" and newcomer.http_status == 429
        assert newcomer.retry_after_s is not None
        for thread in admitted:
            thread.join(timeout=3.0)
        assert results["early"].http_status == 200 and results["late"].http_status == 200
        assert sorted(applied) == [(0.5, 0.5), (0.9, 0.1)]
        assert fe.tracer.counters["serve.mutations_sent"] == 2
        assert fe.tracer.counters.get("serve.orphan_responses", 0) == 0
        snap = fe.admission.snapshot()
        assert snap["shed_total"] == 1 and snap["in_flight"] == 0
    finally:
        worker.stop()


def test_saturated_queue_sheds_hopeless_newcomers_immediately():
    bridge, _, _ = make_bridge()
    fe = front_end(bridge, capacity=1, default_timeout_s=5.0)
    healthy(bridge)
    blocker = threading.Thread(
        target=lambda: fe.handle(
            fe.make_request("SetCharge", "dev-a", ratios=(1.0,), timeout_s=1.0)
        )
    )
    blocker.start()
    time.sleep(0.1)
    t0 = time.monotonic()
    resp = fe.handle(
        fe.make_request("SetCharge", "dev-a", ratios=(1.0,), timeout_s=0.5)
    )
    assert resp.error == "overloaded" and time.monotonic() - t0 < 0.2
    blocker.join(timeout=3.0)


def test_blown_deadline_rejected_at_the_door():
    bridge, _, _ = make_bridge()
    fe = front_end(bridge)
    healthy(bridge)
    req = fe.make_request("SetCharge", "dev-a", ratios=(1.0,), timeout_s=0.0)
    time.sleep(0.01)
    resp = fe.handle(req)
    assert resp.error == "deadline_exceeded"
    assert fe.admission.snapshot()["rejected_total"] == 1


# --------------------------------------------------------------------- #
# healthz and the HTTP skin
# --------------------------------------------------------------------- #


def test_healthz_reports_breaker_and_heartbeat_state():
    bridge, _, _ = make_bridge()
    fe = front_end(bridge, default_timeout_s=0.05, breaker_failures=1)
    healthy(bridge)
    payload = fe.healthz()
    assert payload["ok"] and payload["bound"]
    (shard,) = payload["shards"]
    assert shard["healthy"] and shard["breaker"]["state"] == "closed"
    assert shard["last_beat_age_s"] is not None
    fe.handle(fe.make_request("SetCharge", "dev-a", ratios=(1.0,)))  # trips breaker
    payload = fe.healthz()
    assert payload["shards"][0]["breaker"]["state"] == "open"
    assert set(payload["admission"]) >= {"capacity", "in_flight", "shed_total"}
    assert set(payload["cache"]) >= {"devices_cached", "stale_after_s"}


def test_http_skin_maps_typed_errors_and_retry_after():
    bridge, requests, responses = make_bridge()
    fe = front_end(bridge, default_timeout_s=0.5)
    healthy(bridge)
    bridge.publish_status(0, "dev-a", [{"soc": 0.9}])
    worker = FakeWorker(requests, responses, echo_ok)
    worker.start()
    server = make_http_server(fe, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"

    def get(path):
        try:
            with urllib.request.urlopen(base + path, timeout=5) as r:
                return r.status, json.loads(r.read()), dict(r.headers)
        except urllib.error.HTTPError as e:
            return e.code, json.loads(e.read()), dict(e.headers)

    def post(path, body):
        req = urllib.request.Request(
            base + path, data=json.dumps(body).encode(), method="POST"
        )
        try:
            with urllib.request.urlopen(req, timeout=5) as r:
                return r.status, json.loads(r.read()), dict(r.headers)
        except urllib.error.HTTPError as e:
            return e.code, json.loads(e.read()), dict(e.headers)

    try:
        code, body, _ = get("/healthz")
        assert code == 200 and body["ok"]
        code, body, _ = get("/v1/devices")
        assert code == 200 and body["devices"] == list(DEVICES)
        code, body, _ = get("/v1/status/dev-a?timeout_s=2")
        assert code == 200 and body["result"]["statuses"] == [{"soc": 0.9}]
        assert body["degraded"] is False
        code, body, _ = post("/v1/charge/dev-a", {"ratios": [0.5, 0.5]})
        assert code == 200 and body["ok"]
        code, body, _ = get("/v1/status/ghost")
        assert code == 404 and body["error"] == "not_found"
        code, body, _ = post("/v1/profile/dev-a", {"profile": 5, "timeout_s": "x"})
        assert code == 400
        code, body, _ = get("/v1/nope")
        assert code == 400
        # Backpressure surfaces as HTTP 429 + Retry-After: silence the
        # worker and shrink admission to one slot.
        worker.stop()
        fe.admission.capacity = 1
        blocker = threading.Thread(
            target=lambda: post("/v1/charge/dev-a", {"ratios": [1.0], "timeout_s": 1.0})
        )
        blocker.start()
        time.sleep(0.15)
        code, body, headers = post(
            "/v1/charge/dev-a", {"ratios": [1.0], "timeout_s": 0.5}
        )
        assert code == 429 and body["error"] == "overloaded"
        assert int(headers["Retry-After"]) >= 1
        blocker.join(timeout=3.0)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=2.0)
        worker.stop()


class StubFrontEnd:
    """Answers every handled call at once with one fixed response."""

    def __init__(self, response: ServeResponse, delay_s: float = 0.0):
        self.response = response
        self.delay_s = delay_s
        self.answered = threading.Event()

    def make_request(self, op, device_id, timeout_s=None, **kwargs):
        return ServeRequest(op, device_id, "r", time.time() + 1.0)

    def handle(self, request):
        time.sleep(self.delay_s)
        self.answered.set()
        return self.response


OK_ANSWER = ServeResponse(ok=True, result={"applied": True})


@contextlib.contextmanager
def http_skin(front):
    """The HTTP skin over ``front`` on a free loopback port."""
    server = make_http_server(front, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield server.server_address[:2]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=2.0)


def test_http_skin_rejects_non_finite_timeouts_and_ceils_retry_after():
    """Two HTTP-edge contracts: NaN/inf budgets never reach the deadline
    arithmetic (NaN poisons every comparison, inf parks a slot forever),
    and Retry-After is a *ceiling* — 1.0005 s must round to 2, because
    rounding down invites the client back before the window opens."""
    stub = StubFrontEnd(error_response("overloaded", "full", retry_after_s=1.0005))
    with http_skin(stub) as (host, port):
        base = f"http://{host}:{port}"

        def fetch(path, body=None):
            req = urllib.request.Request(
                base + path,
                data=json.dumps(body).encode() if body is not None else None,
                method="GET" if body is None else "POST",
            )
            try:
                with urllib.request.urlopen(req, timeout=5) as r:
                    return r.status, json.loads(r.read()), dict(r.headers)
            except urllib.error.HTTPError as e:
                return e.code, json.loads(e.read()), dict(e.headers)

        for query in ("timeout_s=inf", "timeout_s=-inf", "timeout_s=nan", "timeout_s=abc"):
            code, body, _ = fetch(f"/v1/status/dev-a?{query}")
            assert code == 400 and body["error"] == "bad_request", query
        for bad in (float("inf"), float("nan"), True, "2.0"):
            code, body, _ = fetch("/v1/charge/dev-a", {"ratios": [1.0], "timeout_s": bad})
            assert code == 400 and body["error"] == "bad_request", bad
        # A well-formed budget reaches the stub, whose 429 carries the
        # fractional retry_after_s: the header must ceil, never truncate.
        code, body, headers = fetch("/v1/status/dev-a?timeout_s=2")
        assert code == 429
        assert headers["Retry-After"] == "2"


@pytest.mark.parametrize("ratios", [5, True, "0.5", {"a": 1}], ids=["int", "bool", "string", "object"])
def test_http_skin_answers_ratios_that_are_not_an_array_with_a_typed_400(ratios):
    """A scalar used to raise inside ``do_POST``: the server printed a
    traceback and closed the connection without an answer."""
    bridge, requests, _ = make_bridge()
    healthy(bridge)
    with http_skin(front_end(bridge)) as (host, port):
        conn = http.client.HTTPConnection(host, port, timeout=5)
        try:
            conn.request("POST", "/v1/discharge/dev-a", body=json.dumps({"ratios": ratios}))
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
    assert response.status == 400 and body["error"] == "bad_request"
    assert requests.empty()  # nothing was sent to the shard


def test_http_skin_answers_a_timeout_beyond_the_float_range_with_a_typed_400():
    # JSON integers are unbounded; math.isfinite on one this large raised
    # OverflowError inside do_POST and the connection closed unanswered.
    with http_skin(StubFrontEnd(OK_ANSWER)) as (host, port):
        conn = http.client.HTTPConnection(host, port, timeout=5)
        try:
            body = json.dumps({"ratios": [1.0], "timeout_s": 10**400})
            conn.request("POST", "/v1/charge/dev-a", body=body)
            response = conn.getresponse()
            answer = json.loads(response.read())
        finally:
            conn.close()
    assert response.status == 400 and answer["error"] == "bad_request"


# --------------------------------------------------------------------- #
# Kept-open connections
# --------------------------------------------------------------------- #


def test_kept_open_connection_answers_without_a_delayed_ack_stall():
    """Each answer leaves in one write. Sent as headers then body, the
    body waits under Nagle for the client's delayed ACK: >= 40 ms per
    request on Linux, on every request of a kept-open connection."""
    with http_skin(StubFrontEnd(OK_ANSWER)) as (host, port):
        conn = http.client.HTTPConnection(host, port, timeout=5)
        latencies, local_ends = [], set()
        try:
            for i in range(20):
                t0 = time.perf_counter()
                if i % 2:
                    conn.request("POST", "/v1/charge/dev-a", body=json.dumps({"ratios": [1.0]}))
                else:
                    conn.request("GET", "/v1/status/dev-a")
                response = conn.getresponse()
                assert json.loads(response.read())["ok"] is True
                latencies.append(time.perf_counter() - t0)
                local_ends.add(conn.sock.getsockname())
        finally:
            conn.close()
    assert len(local_ends) == 1  # all 20 on one connection
    assert statistics.median(latencies) < 0.020


def test_answers_that_leave_the_body_unread_close_the_connection():
    """An unknown route or an oversized body is answered without reading
    the body; left on the connection, it would be parsed as the next
    request. The answer says ``Connection: close``, so the same client
    reconnects and its next request gets typed JSON."""
    with http_skin(StubFrontEnd(OK_ANSWER)) as (host, port):
        conn = http.client.HTTPConnection(host, port, timeout=5)
        try:
            for path, body in (
                ("/v1/nope/dev-a", json.dumps({"ratios": [1.0]})),
                ("/v1/charge/dev-a", b" " * (64 * 1024 + 1)),
            ):
                conn.request("POST", path, body=body)
                response = conn.getresponse()
                assert response.status == 400 and response.getheader("Connection") == "close"
                assert json.loads(response.read())["error"] == "bad_request"
                conn.request("GET", "/v1/status/dev-a")
                response = conn.getresponse()
                assert response.getheader("Content-Type") == "application/json", path
                assert json.loads(response.read())["ok"] is True, path
        finally:
            conn.close()


@pytest.mark.parametrize(
    "raw",
    [
        # Bad framing: where the body ends is unknown, so the server must
        # answer without waiting for it, and close.
        b"POST /v1/charge/dev-a HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
        b"POST /v1/charge/dev-a HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
        b"POST /v1/charge/dev-a HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        # What the stdlib refuses before any do_* method runs.
        b"PUT /v1/charge/dev-a HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        b"GARBAGE\r\n\r\n",
        b"GET /" + b"a" * 65532,  # one byte past the stdlib's request-line limit
    ],
    ids=["negative-length", "non-integer-length", "chunked", "put", "garbage-line", "long-uri"],
)
def test_malformed_requests_get_a_typed_400_and_a_closed_connection(raw):
    with http_skin(StubFrontEnd(OK_ANSWER)) as address:
        with socket.create_connection(address, timeout=2.0) as sock:
            sock.sendall(raw)
            response = http.client.HTTPResponse(sock)
            response.begin()
            body = json.loads(response.read())
            assert response.status == 400
            assert response.getheader("Content-Type") == "application/json"
            assert response.getheader("Connection") == "close"
            assert body["ok"] is False and body["error"] == "bad_request"
            assert sock.recv(1) == b""  # the server closed its end


def test_expect_100_continue_is_sent_before_the_body_is_read():
    """The interim answer leaves at once: the client holds its body back
    until it sees ``100 Continue``."""
    body = json.dumps({"ratios": [1.0]}).encode()
    with http_skin(StubFrontEnd(OK_ANSWER)) as address:
        with socket.create_connection(address, timeout=2.0) as sock:
            sock.sendall(
                b"POST /v1/charge/dev-a HTTP/1.1\r\nExpect: 100-continue\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
            )
            assert sock.recv(64) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 200 and json.loads(response.read())["ok"] is True


def test_client_hang_up_before_the_answer_is_quiet(capsys):
    """A client that resets its connection before a slow answer costs the
    server nothing but that connection: no traceback, and the next client
    is served."""
    stub = StubFrontEnd(OK_ANSWER, delay_s=0.2)
    with http_skin(stub) as address:
        sock = socket.create_connection(address, timeout=2.0)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.sendall(b"GET /v1/status/dev-a HTTP/1.1\r\n\r\n")
        time.sleep(0.05)
        sock.close()  # SO_LINGER 0: a reset, not a FIN
        assert stub.answered.wait(timeout=2.0)
        time.sleep(0.2)  # the handler's failed write and its clean-up
        stub.delay_s = 0.0
        conn = http.client.HTTPConnection(*address, timeout=5)
        try:
            conn.request("GET", "/v1/status/dev-a")
            assert json.loads(conn.getresponse().read())["ok"] is True
        finally:
            conn.close()
    assert "Traceback" not in capsys.readouterr().err


def test_orphan_responses_are_dropped_and_counted():
    bridge, requests, responses = make_bridge()
    fe = front_end(bridge, default_timeout_s=0.1)
    healthy(bridge)

    def late(wire):
        time.sleep(0.3)  # past the caller's deadline
        return echo_ok(wire)

    worker = FakeWorker(requests, responses, late)
    worker.start()
    try:
        resp = fe.handle(fe.make_request("SetCharge", "dev-a", ratios=(1.0,)))
        assert resp.error == "deadline_exceeded"
        deadline = time.monotonic() + 2.0
        while (
            fe.tracer.counters.get("serve.orphan_responses", 0) == 0
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        assert fe.tracer.counters["serve.orphan_responses"] == 1
    finally:
        worker.stop()
