"""The networking layer's pure parts: wire-fault schedules, the lease
state machine, the idempotency table, the node dispatcher, and the
transports (in-process, TCP, and the fault injector) — no directory.
The directory's routing/retry/degradation policy lives in
``test_net_directory.py`` and the process-level partition chaos in
``scripts/chaos_check.py directory-chaos`` (a CI ``chaos`` matrix entry).
"""

import json
import threading
import time

import pytest

from repro.errors import NetError, TransportError
from repro.faults.net import (
    NET_FAULT_KINDS,
    NetFaultDecision,
    NetFaultSchedule,
    NetFaultWindow,
)
from repro.net import (
    BatteryNodeServer,
    IdempotencyTable,
    InProcessTransport,
    NetFaultInjector,
    NodeDispatcher,
    TcpTransport,
)
from repro.obs import Tracer


class FakeClock:
    def __init__(self, t: float = 1000.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class FakeBackend:
    """A battery backend without batteries: canned statuses, counted
    mutation applications — just enough to exercise the dispatcher."""

    def __init__(self, device_id="dev-x"):
        self.device_id = device_id
        self.applications = 0
        self.fail_next = False

    def devices(self):
        return [self.device_id]

    def statuses(self):
        return {self.device_id: [{"soc": 0.5, "capacity_mah": 300.0}]}

    def handle(self, wire):
        if wire.get("op") == "QueryBatteryStatus":
            return {"ok": True, "result": {"statuses": self.statuses()[self.device_id]}}
        if self.fail_next:
            self.fail_next = False
            return {"ok": False, "error": "unavailable", "retryable": True}
        self.applications += 1
        return {"ok": True, "result": {"applied": True}}


# --------------------------------------------------------------------- #
# Fault schedule
# --------------------------------------------------------------------- #


def test_fault_window_validation():
    with pytest.raises(ValueError):
        NetFaultWindow("gremlins", 0.0, 1.0)
    with pytest.raises(ValueError):
        NetFaultWindow("drop", 2.0, 1.0)  # ends before it starts
    with pytest.raises(ValueError):
        NetFaultWindow("drop", 0.0, 1.0, probability=1.5)
    with pytest.raises(ValueError):
        NetFaultWindow("delay", 0.0, 1.0, delay_s=-0.1)
    window = NetFaultWindow("drop", 1.0, 2.0, nodes=("node-b",))
    assert window.applies(1.5, "node-b")
    assert not window.applies(1.5, "node-a")  # filtered out
    assert not window.applies(2.0, "node-b")  # end is exclusive
    assert not window.applies(0.5, "node-b")


def test_decision_precedence_full_partition_dominates():
    schedule = (
        NetFaultSchedule()
        .partition(0.0, 10.0)
        .delay(0.0, 10.0, 0.5)
        .duplicate(0.0, 10.0)
    )
    decision = schedule.decide(5.0, "any")
    # When nothing crosses, nothing else can matter.
    assert decision == NetFaultDecision(partition="partition")
    assert not decision.clean


def test_decision_oneway_composes_with_delay_and_duplicate():
    schedule = (
        NetFaultSchedule()
        .oneway(0.0, 10.0)
        .delay(0.0, 10.0, 0.25)
        .duplicate(0.0, 10.0)
    )
    decision = schedule.decide(5.0, "any")
    assert decision.partition == "oneway"
    assert decision.delay_s == 0.25
    assert decision.duplicate
    assert schedule.decide(20.0, "any").clean  # outside every window


def test_probabilistic_windows_replay_per_seed():
    def draw(seed):
        schedule = NetFaultSchedule(seed=seed).drop(0.0, 100.0, probability=0.5)
        return [schedule.decide(float(t), "n").drop for t in range(50)]

    assert draw(7) == draw(7)  # same seed, same coin flips
    assert draw(7) != draw(8)  # and the coin is actually flipping
    assert 0 < sum(draw(7)) < 50


def test_chaos_schedule_is_seed_deterministic_and_well_formed():
    a = NetFaultSchedule.chaos(11, duration_s=30.0, nodes=("node-b",))
    b = NetFaultSchedule.chaos(11, duration_s=30.0, nodes=("node-b",))
    assert a.windows == b.windows
    kinds = [w.kind for w in a.windows]
    assert kinds == ["drop", "partition", "delay"]  # degrade, die, come back
    partition = a.windows[1]
    assert 10.0 <= partition.t0_s <= 15.0  # somewhere in the middle third
    assert partition.t1_s > partition.t0_s
    assert all(w.nodes == ("node-b",) for w in a.windows)
    assert NetFaultSchedule.chaos(12, duration_s=30.0).windows != a.windows
    with pytest.raises(ValueError):
        NetFaultSchedule.chaos(0, duration_s=0.0)
    assert set(kinds) < set(NET_FAULT_KINDS)


# --------------------------------------------------------------------- #
# Lease state machine
# --------------------------------------------------------------------- #


def test_lease_walks_live_suspect_dead_and_renewal_resets():
    from repro.net import Lease, LeaseConfig

    clock = FakeClock()
    lease = Lease(LeaseConfig(ttl_s=1.0, dead_after_s=3.0), clock())
    assert lease.state(clock()) == "live"
    clock.advance(1.0)
    assert lease.state(clock()) == "live"  # age == ttl is still live
    clock.advance(0.1)
    assert lease.state(clock()) == "suspect"
    clock.advance(2.0)
    assert lease.state(clock()) == "dead"
    lease.renew(clock())
    assert lease.state(clock()) == "live" and lease.renewals == 1
    # A heartbeat delivered late must never rewind the lease.
    lease.renew(clock() - 50.0)
    assert lease.age_s(clock()) == 0.0


def test_lease_config_validation():
    from repro.net import LeaseConfig

    with pytest.raises(ValueError):
        LeaseConfig(ttl_s=0.0)
    with pytest.raises(ValueError):
        LeaseConfig(ttl_s=2.0, dead_after_s=2.0)  # suspect must exist


# --------------------------------------------------------------------- #
# Idempotency table
# --------------------------------------------------------------------- #


def test_idempotency_replays_stored_reply_and_evicts_fifo():
    table = IdempotencyTable(capacity=2)
    assert table.check("k1") is None
    table.record("k1", {"ok": True, "result": {"applied": True}})
    replay = table.check("k1")
    assert replay == {"ok": True, "result": {"applied": True}}
    assert table.replays == 1
    replay["mutated"] = True  # the caller gets a copy, not the stored dict
    assert "mutated" not in table.check("k1")
    table.record("k2", {"ok": True})
    table.record("k3", {"ok": True})  # capacity 2: k1 is the FIFO victim
    assert table.check("k1") is None
    assert table.check("k3") is not None
    assert len(table) == 2
    with pytest.raises(ValueError):
        IdempotencyTable(capacity=0)


def test_dispatcher_dedups_mutations_but_not_failures():
    backend = FakeBackend()
    tracer = Tracer()
    dispatcher = NodeDispatcher("n1", backend, tracer=tracer)
    wire = {
        "op": "SetCharge",
        "device_id": "dev-x",
        "ratios": [1.0],
        "idempotency_key": "key-1",
    }
    first = dispatcher.dispatch(dict(wire))
    second = dispatcher.dispatch(dict(wire))  # the retry after a lost reply
    assert first["ok"] and second["ok"]
    assert backend.applications == 1  # applied exactly once
    assert second.get("replayed") is True and "replayed" not in first
    assert tracer.counters["node.idempotent_replays"] == 1
    # A failed attempt is not recorded: the retry must re-apply for real.
    backend.fail_next = True
    dispatcher.dispatch({**wire, "idempotency_key": "key-2"})
    assert backend.applications == 1
    retry = dispatcher.dispatch({**wire, "idempotency_key": "key-2"})
    assert retry["ok"] and backend.applications == 2


def test_dispatcher_ping_deadlines_and_unknown_ops():
    dispatcher = NodeDispatcher("n1", FakeBackend())
    ping = dispatcher.dispatch({"op": "Ping"})
    assert ping["ok"] and ping["node"] == "n1" and ping["devices"] == ["dev-x"]
    assert "dev-x" in ping["statuses"] and ping["idempotent_replays"] == 0
    assert dispatcher.dispatch({"op": "EatBattery"})["error"] == "bad_request"
    assert dispatcher.dispatch("not a dict")["error"] == "bad_request"
    expired = dispatcher.dispatch(
        {"op": "QueryBatteryStatus", "device_id": "dev-x", "deadline_t": time.time() - 1}
    )
    assert expired["error"] == "deadline_exceeded"


def test_dispatcher_never_raises():
    class ExplodingBackend(FakeBackend):
        def handle(self, wire):
            raise RuntimeError("boom")

    reply = NodeDispatcher("n1", ExplodingBackend()).dispatch(
        {"op": "QueryBatteryStatus", "device_id": "dev-x"}
    )
    assert reply["error"] == "internal" and "boom" in reply["message"]


@pytest.mark.parametrize("deadline_t", ["abc", float("nan"), True], ids=["string", "nan", "bool"])
def test_dispatcher_rejects_a_deadline_that_is_not_a_finite_number(deadline_t):
    # "abc" used to raise inside float(), NaN never expired and true read
    # as the epoch second 1.0; none of them may reach the backend.
    backend = FakeBackend()
    reply = NodeDispatcher("n1", backend).dispatch(
        {"op": "SetCharge", "device_id": "dev-x", "ratios": [1.0], "deadline_t": deadline_t}
    )
    assert reply["error"] == "bad_request" and reply["retryable"] is False
    assert backend.applications == 0


def test_front_end_backend_gives_a_request_without_deadline_the_default_budget():
    from repro.net import FrontEndBackend
    from repro.serve import FleetFrontEnd, ServeBridge, ServeConfig, ServeResponse

    class RecordingFrontEnd(FleetFrontEnd):
        def handle(self, request):
            self.seen = request
            return ServeResponse(ok=True, result={"applied": True})

    front = RecordingFrontEnd(
        ServeBridge(), ServeConfig(default_timeout_s=0.7), clock=FakeClock(1000.0)
    )
    dispatcher = NodeDispatcher("fleet", FrontEndBackend(front))
    wire = {"op": "SetCharge", "device_id": "dev-a", "ratios": [1.0], "request_id": "r1"}
    assert dispatcher.dispatch(dict(wire))["ok"]
    assert front.seen.deadline_t == pytest.approx(1000.7)
    assert front.seen.ratios == (1.0,) and front.seen.request_id == "r1"
    # A received deadline is carried through as it came, not re-derived.
    carried = time.time() + 60.0
    assert dispatcher.dispatch(dict(wire, deadline_t=carried))["ok"]
    assert front.seen.deadline_t == carried


@pytest.mark.parametrize(
    "ratios", [5, True, 1.5, "ab", {"a": 1}], ids=["int", "bool", "float", "string", "object"]
)
def test_fleet_node_refuses_ratios_that_are_not_an_array_at_the_door(ratios):
    # The HTTP skin's body check, now shared: over TCP the first three
    # used to fail inside stamp_request (internal) and the last two were
    # handed on to the shard worker.
    import queue
    from types import SimpleNamespace

    from repro.net import FrontEndBackend
    from repro.serve import FleetFrontEnd, ServeBridge, ServeConfig

    bridge = ServeBridge()
    requests: queue.Queue = queue.Queue()
    plan = SimpleNamespace(shard_id=0, devices=[SimpleNamespace(device_id="dev-a")])
    bridge.bind([plan], {0: requests}, queue.Queue())
    bridge.update_shard(0, status="running", booted=True, beat=True, pid=123)
    front = FleetFrontEnd(bridge, ServeConfig(default_timeout_s=0.5))
    dispatcher = NodeDispatcher("fleet", FrontEndBackend(front))
    reply = dispatcher.dispatch({"op": "SetDischarge", "device_id": "dev-a", "ratios": ratios})
    assert reply["error"] == "bad_request" and reply["retryable"] is False, reply
    assert requests.empty()


def test_a_ping_to_a_fleet_node_counts_no_status_read():
    import queue
    from types import SimpleNamespace

    from repro.net import FrontEndBackend
    from repro.serve import FleetFrontEnd, ServeBridge

    bridge = ServeBridge()
    plan = SimpleNamespace(shard_id=0, devices=[SimpleNamespace(device_id="dev-a")])
    bridge.bind([plan], {0: queue.Queue()}, queue.Queue())
    bridge.publish_status(0, "dev-a", [{"name": "a", "soc": 0.5}])
    dispatcher = NodeDispatcher("fleet", FrontEndBackend(FleetFrontEnd(bridge)))
    for _ in range(3):
        assert dispatcher.dispatch({"op": "Ping"})["statuses"] == {"dev-a": [{"name": "a", "soc": 0.5}]}
    cache = bridge.cache.snapshot()
    assert (cache["fresh_reads"], cache["stale_reads"]) == (0, 0)
    bridge.close()


# --------------------------------------------------------------------- #
# Transports
# --------------------------------------------------------------------- #


def test_in_process_transport_json_roundtrips_and_wraps_crashes():
    dispatcher = NodeDispatcher("n1", FakeBackend())
    transport = InProcessTransport(dispatcher.dispatch)
    reply = transport.call({"op": "Ping"}, timeout_s=1.0)
    assert reply["ok"] and reply["node"] == "n1"
    with pytest.raises(TransportError):
        transport.call({"op": "Ping"}, timeout_s=0.0)  # no time left
    with pytest.raises(TransportError):
        transport.call({"op": "Ping", "bad": object()}, timeout_s=1.0)  # not JSON-safe
    with pytest.raises(TransportError):
        InProcessTransport(lambda m: (_ for _ in ()).throw(RuntimeError("dead"))).call(
            {"op": "Ping"}, timeout_s=1.0
        )


def test_tcp_transport_round_trip_against_a_live_node():
    server = BatteryNodeServer(NodeDispatcher("n1", FakeBackend())).start()
    try:
        host, port = server.address
        transport = TcpTransport(host, port)
        reply = transport.call({"op": "Ping"}, timeout_s=2.0)
        assert reply["ok"] and reply["devices"] == ["dev-x"]
        mutated = transport.call(
            {"op": "SetCharge", "device_id": "dev-x", "ratios": [1.0]}, timeout_s=2.0
        )
        assert mutated["ok"] and mutated["result"]["applied"] is True
        with pytest.raises(NetError):
            server.start()  # double start is a programming error
    finally:
        server.stop()
    # The node is gone: the same transport now fails as a TransportError.
    with pytest.raises(TransportError):
        transport.call({"op": "Ping"}, timeout_s=0.5)


def test_a_node_restarts_on_its_own_port():
    # The node closes each connection first, so after serving calls its
    # port holds TIME_WAIT entries; a node started again there must bind.
    first = BatteryNodeServer(NodeDispatcher("n1", FakeBackend())).start()
    try:
        host, port = first.address
        transport = TcpTransport(host, port)
        for op in ("Ping", "QueryBatteryStatus", "Ping"):
            assert transport.call({"op": op, "device_id": "dev-x"}, timeout_s=2.0)["ok"]
    finally:
        first.stop()
    second = BatteryNodeServer(NodeDispatcher("n1", FakeBackend()), host=host, port=port).start()
    try:
        assert TcpTransport(host, port).call({"op": "Ping"}, timeout_s=2.0)["ok"]
    finally:
        second.stop()


def test_tcp_transport_rejects_garbage_replies():
    import socketserver

    class GarbageHandler(socketserver.StreamRequestHandler):
        def handle(self):
            self.rfile.readline(65536)
            self.wfile.write(b"this is not json\n")

    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), GarbageHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        host, port = server.server_address[:2]
        with pytest.raises(TransportError):
            TcpTransport(host, port).call({"op": "Ping"}, timeout_s=2.0)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=2.0)


# --------------------------------------------------------------------- #
# Fault injector
# --------------------------------------------------------------------- #


def injector_over(backend, schedule, clock):
    dispatcher = NodeDispatcher("node-b", backend)
    return NetFaultInjector(
        InProcessTransport(dispatcher.dispatch),
        schedule,
        "node-b",
        clock=clock,
        sleep=lambda s: None,
        tracer=Tracer(),
    )


def test_injector_partition_blocks_and_drop_loses_the_request():
    clock = FakeClock()
    backend = FakeBackend()
    schedule = NetFaultSchedule().partition(0.0, 5.0).drop(5.0, 10.0)
    injector = injector_over(backend, schedule, clock)
    injector.arm()
    wire = {"op": "SetCharge", "device_id": "dev-x", "ratios": [1.0]}
    with pytest.raises(TransportError):
        injector.call(dict(wire), timeout_s=1.0)
    assert backend.applications == 0  # a partitioned request never lands
    clock.advance(6.0)
    with pytest.raises(TransportError):
        injector.call(dict(wire), timeout_s=1.0)
    assert backend.applications == 0  # dropped on the way out
    clock.advance(6.0)  # past every window
    assert injector.call(dict(wire), timeout_s=1.0)["ok"]
    assert backend.applications == 1
    kinds = [r.fields["kind"] for r in injector._tracer.records if r.name == "net.fault"]
    assert kinds == ["partition", "drop"]


def test_injector_oneway_applies_then_loses_the_reply():
    clock = FakeClock()
    backend = FakeBackend()
    injector = injector_over(backend, NetFaultSchedule().oneway(0.0, 5.0), clock)
    injector.arm()
    with pytest.raises(TransportError):
        injector.call({"op": "SetCharge", "device_id": "dev-x", "ratios": [1.0]}, 1.0)
    # The whole reason idempotency keys exist: the side effect landed
    # even though the caller saw a transport failure.
    assert backend.applications == 1


def test_injector_duplicate_delivers_twice_and_dedup_absorbs_it():
    clock = FakeClock()
    backend = FakeBackend()
    injector = injector_over(backend, NetFaultSchedule().duplicate(0.0, 5.0), clock)
    injector.arm()
    reply = injector.call(
        {
            "op": "SetCharge",
            "device_id": "dev-x",
            "ratios": [1.0],
            "idempotency_key": "k",
        },
        1.0,
    )
    assert reply["ok"] and "replayed" not in reply  # caller sees the first answer
    assert backend.applications == 1  # the node's table ate the duplicate


def test_injector_delay_eating_the_timeout_is_a_transport_failure():
    clock = FakeClock()
    slept = []
    dispatcher = NodeDispatcher("node-b", FakeBackend())
    injector = NetFaultInjector(
        InProcessTransport(dispatcher.dispatch),
        NetFaultSchedule().delay(0.0, 5.0, 0.4),
        "node-b",
        clock=clock,
        sleep=slept.append,
    )
    injector.arm()
    reply = injector.call({"op": "Ping"}, timeout_s=1.0)
    assert reply["ok"] and slept == [0.4]  # held, then delivered
    with pytest.raises(TransportError):
        injector.call({"op": "Ping"}, timeout_s=0.3)  # the delay ate the budget
    assert slept == [0.4, 0.3]  # never sleeps past the caller's budget
