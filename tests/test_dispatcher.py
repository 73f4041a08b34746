"""One dispatcher behind every door to a device, on a real device runtime.

A serving fleet here is a bridge over plain queues and one in-process
shard ``_Servicer`` holding a live ``watch-day`` runtime, as in
``test_servicer.py``; nothing is spawned. Its HTTP skin and its
``export_node`` TCP node both decode into wire dicts for the same
:class:`~repro.serve.protocol.NodeDispatcher`, so they must give the same
answers; the tests below also pin what the shared path fixed: per-call
keys for in-flight work, a TCP ``timeout_s`` that sets the budget, and
exactly-once mutations across an HTTP retry after a 504.
"""

import contextlib
import http.client
import json
import math
import os
import queue
import socket
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.fleet.spec import DeviceSpec, build_device_emulator
from repro.fleet.worker import _Servicer
from repro.obs import Tracer
from repro.serve import HTTP_STATUS, ServeBridge, ServeConfig, make_http_server
from repro.serve.server import ServingFleet

DEVICE = "watch-day-00000"


@contextlib.contextmanager
def serving_fleet(config=None):
    """A fleet of one in-process shard: its runtime, front end, HTTP and TCP addresses."""
    emulator = build_device_emulator(
        DeviceSpec(DEVICE, "watch-day", 0, 7), {"duration_s": 600.0, "dt_s": 1.0}
    )
    bridge = ServeBridge()
    requests, responses = queue.Queue(), queue.Queue()
    plan = SimpleNamespace(shard_id=0, devices=[SimpleNamespace(device_id=DEVICE)])
    bridge.bind([plan], {0: requests}, responses)
    bridge.update_shard(0, status="running", booted=True, beat=True, pid=1)
    bridge.publish_status(0, DEVICE, [{"soc": 0.5}])
    servicer = _Servicer(requests, responses, 0, {"emulator": emulator, "device_id": DEVICE}, {})
    servicer.start()
    fleet = ServingFleet(SimpleNamespace(bridge=bridge), config=config, tracer=Tracer())
    http_server = make_http_server(fleet.front_end, "127.0.0.1", 0)
    http_thread = threading.Thread(
        target=http_server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    http_thread.start()
    node = fleet.export_node("fleet-node")
    try:
        yield SimpleNamespace(
            runtime=emulator.runtime,
            front_end=fleet.front_end,
            http=http_server.server_address[:2],
            tcp=node.address,
        )
    finally:
        node.stop()
        http_server.shutdown()
        http_server.server_close()
        http_thread.join(timeout=2.0)
        bridge.close()
        servicer.stop()
        servicer.join(timeout=2.0)


def over_tcp(address, wire: dict) -> dict:
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(json.dumps(wire).encode() + b"\n")
        return json.loads(sock.makefile("rb").readline())


_ROUTES = {"SetCharge": "charge", "SetDischarge": "discharge", "SelectChargingProfile": "profile"}


def over_http(address, wire: dict, headers=None):
    """The wire dict as the HTTP call that means the same; (status, body)."""
    conn = http.client.HTTPConnection(*address, timeout=10.0)
    try:
        device = wire.get("device_id", DEVICE)
        if wire["op"] == "QueryBatteryStatus":
            query = f"?timeout_s={wire['timeout_s']}" if "timeout_s" in wire else ""
            conn.request("GET", f"/v1/status/{device}{query}")
        else:
            body = {k: v for k, v in wire.items() if k not in ("op", "device_id")}
            conn.request(
                "POST", f"/v1/{_ROUTES[wire['op']]}/{device}", json.dumps(body), headers or {}
            )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


CALLS = {
    "read": {"op": "QueryBatteryStatus"},
    "read-budget": {"op": "QueryBatteryStatus", "timeout_s": 1.5},
    "discharge": {"op": "SetDischarge", "ratios": [0.4, 0.6]},
    "charge": {"op": "SetCharge", "ratios": [1.0, 0.0], "timeout_s": 1.0},
    "profile": {"op": "SelectChargingProfile", "profile": "gentle", "battery_index": 0},
    "ghost": {"op": "SetCharge", "device_id": "ghost", "ratios": [1.0, 0.0]},
    "nan-ratio": {"op": "SetDischarge", "ratios": [math.nan, 1.0]},
    "wrong-sum": {"op": "SetCharge", "ratios": [0.3, 0.6]},
    "scalar-ratios": {"op": "SetDischarge", "ratios": 5},
    "profile-unknown": {"op": "SelectChargingProfile", "profile": "turbo"},
    "index-range": {"op": "SelectChargingProfile", "profile": "fast", "battery_index": 2},
    "timeout-string": {"op": "SetCharge", "ratios": [1.0, 0.0], "timeout_s": "x"},
    "timeout-inf": {"op": "SetCharge", "ratios": [1.0, 0.0], "timeout_s": math.inf},
    "read-timeout-nan": {"op": "QueryBatteryStatus", "timeout_s": math.nan},
    "timeout-spent": {"op": "SetCharge", "ratios": [1.0, 0.0], "timeout_s": -1},
}


def test_http_and_tcp_doors_give_the_same_answers():
    with serving_fleet() as fleet:
        for name, call in CALLS.items():
            wire = dict({"device_id": DEVICE}, **call)
            status, by_http = over_http(fleet.http, wire)
            by_tcp = over_tcp(fleet.tcp, wire)
            for key in ("ok", "result", "error"):
                assert by_http.get(key) == by_tcp.get(key), (name, key, by_http, by_tcp)
            assert status == (200 if by_http["ok"] else HTTP_STATUS[by_http["error"]]), name


@pytest.mark.parametrize("request_id", ["shared", None], ids=["shared-id", "no-id"])
def test_concurrent_fleet_node_mutations_each_get_their_own_answer(request_id):
    """Two in-flight mutations used to share a waiter and an admission slot
    when their request ids matched (a call without one was keyed ``net``):
    the first was applied, yet answered 504 after its whole budget."""
    with serving_fleet() as fleet:
        sent = ([0.2, 0.8], [0.7, 0.3])
        replies = [None, None]

        def call(k):
            wire = {"op": "SetDischarge", "device_id": DEVICE, "ratios": sent[k], "timeout_s": 5.0}
            if request_id is not None:
                wire["request_id"] = request_id
            replies[k] = over_tcp(fleet.tcp, wire)

        counters = fleet.front_end.tracer.counters
        threads = [threading.Thread(target=call, args=(k,)) for k in range(2)]
        with fleet.runtime.lock:  # both calls are in flight before either applies
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 5.0
            while counters.get("serve.mutations_sent", 0) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert counters.get("serve.mutations_sent", 0) == 2
        for thread in threads:
            thread.join(timeout=10.0)
        for k in range(2):
            assert replies[k]["ok"], replies[k]
            assert replies[k]["result"]["ratios"] == sent[k]
        assert counters.get("serve.deadline_timeouts", 0) == 0
        assert fleet.front_end.healthz()["shards"][0]["breaker"]["consecutive_failures"] == 0


def test_many_concurrent_mutations_sharing_one_request_id_each_get_their_own_answer():
    """The per-call token under contention: more threads than cores, short
    switch interval, every call naming the same request id."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with serving_fleet(ServeConfig(capacity=1024, default_timeout_s=20.0)) as fleet:
            front_end, wrong = fleet.front_end, []

            def caller(k):
                for j in range(5):
                    share = (10 * k + j + 1) / 4096  # a ratio vector no other call sends
                    request = front_end.make_request(
                        "SetDischarge", DEVICE, ratios=[share, 1.0 - share], request_id="shared"
                    )
                    answer = front_end.handle(request)
                    if not answer.ok or answer.result["ratios"] != [share, 1.0 - share]:
                        wrong.append(answer)

            threads = [
                threading.Thread(target=caller, args=(k,)) for k in range(2 * (os.cpu_count() or 2))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert wrong == []
            assert front_end.tracer.counters.get("serve.orphan_responses", 0) == 0
    finally:
        sys.setswitchinterval(switch)


def test_a_tcp_timeout_sets_the_fleet_node_budget():
    """A 0.3 s budget over TCP used to become the front end's default."""
    with serving_fleet(ServeConfig(default_timeout_s=5.0)) as fleet:
        with fleet.runtime.lock:  # the worker cannot apply: only the budget ends the call
            t0 = time.monotonic()
            reply = over_tcp(
                fleet.tcp,
                {"op": "SetCharge", "device_id": DEVICE, "ratios": [1.0, 0.0], "timeout_s": 0.3},
            )
            waited = time.monotonic() - t0
    assert reply["error"] == "deadline_exceeded"
    assert 0.25 <= waited < 2.5


def test_an_http_retry_after_a_504_applies_the_mutation_once():
    with serving_fleet() as fleet:
        applied = []
        apply_discharge = fleet.runtime.apply_discharge

        def counting(ratios, *args, **kwargs):
            applied.append(list(ratios))
            return apply_discharge(ratios, *args, **kwargs)

        fleet.runtime.apply_discharge = counting
        wire = {"op": "SetDischarge", "device_id": DEVICE, "ratios": [0.3, 0.7], "timeout_s": 0.3}
        key = {"Idempotency-Key": "retry-1"}
        with fleet.runtime.lock:  # held past the deadline: the first POST gets 504
            status, body = over_http(fleet.http, wire, key)
            assert status == 504 and body["error"] == "deadline_exceeded"
        # Released: the worker applies the first attempt after its caller gave up.
        counters = fleet.front_end.tracer.counters
        deadline = time.monotonic() + 5.0
        while counters.get("serve.orphan_responses", 0) == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert applied == [[0.3, 0.7]]
        status, body = over_http(fleet.http, dict(wire, timeout_s=2.0), key)
        assert status == 200 and body["result"] == {"applied": True, "ratios": [0.3, 0.7]}
        assert applied == [[0.3, 0.7]]  # the retry was answered, not applied again
        status, body = over_http(fleet.http, dict(wire, timeout_s=2.0), {"Idempotency-Key": "retry-2"})
        assert status == 200 and len(applied) == 2  # a new key is a new application
