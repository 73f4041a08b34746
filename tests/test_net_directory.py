"""The battery directory's policy layer: registration and routing,
lease-driven membership, degraded reads, fail-fast mutations, bounded
retries with idempotency keys, the vdag's :class:`RemoteBattery` view,
and a serving fleet joining a directory as a node. The wire-level parts live
in ``test_net.py``; the process-level partition chaos in
``scripts/chaos_check.py directory-chaos`` (a CI ``chaos`` matrix entry).
"""

import json
import math
import queue
import time
from types import SimpleNamespace

import pytest

from repro.cell import new_cell
from repro.core.vdag import AggregateBattery, BatteryDAG, PhysicalBattery, RemoteBattery
from repro.errors import NetError, RatioError, ServeError, TransportError
from repro.hardware import SDBMicrocontroller
from repro.net import (
    BatteryDirectory,
    DirectoryConfig,
    InProcessTransport,
    LeaseConfig,
    NodeDispatcher,
    TcpTransport,
    Transport,
)
from repro.obs import Tracer
from repro.retry import RetryPolicy
from repro.serve import FleetFrontEnd, ServeBridge, ServeConfig


class FakeClock:
    """Starts at the real wall clock so node-side deadline checks (which
    use ``time.time()``) agree with directory-side stamps, then advances
    only when told — lease ages and cache staleness stay deterministic."""

    def __init__(self):
        self.t = time.time()

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class FakeBackend:
    """Two canned cells and a mutation counter — no emulator."""

    def __init__(self, device_id="dev-x"):
        self.device_id = device_id
        self.applications = 0

    def devices(self):
        return [self.device_id]

    def statuses(self):
        return {
            self.device_id: [
                {"soc": 0.8, "capacity_mah": 100.0, "terminal_voltage": 4.0,
                 "is_empty": False, "is_full": False},
                {"soc": 0.4, "capacity_mah": 300.0, "terminal_voltage": 3.8,
                 "is_empty": False, "is_full": False},
            ]
        }

    def handle(self, wire):
        if wire.get("op") == "QueryBatteryStatus":
            return {"ok": True, "result": {"statuses": self.statuses()[self.device_id]}}
        self.applications += 1
        return {"ok": True, "result": {"applied": True}}


class ScriptedTransport(Transport):
    """An in-process link with a kill switch and a flake counter."""

    def __init__(self, dispatcher: NodeDispatcher):
        self._inner = InProcessTransport(dispatcher.dispatch)
        self.down = False
        self.fail_times = 0
        self.calls = []  # every message that actually crossed

    def call(self, message, timeout_s):
        if self.down:
            raise TransportError("link down")
        if self.fail_times > 0:
            self.fail_times -= 1
            raise TransportError("flaky link")
        self.calls.append(dict(message))
        return self._inner.call(message, timeout_s)


def make_directory(clock, **overrides):
    config = DirectoryConfig(
        lease=overrides.pop("lease", LeaseConfig(ttl_s=1.0, dead_after_s=3.0)),
        attempt_timeout_s=0.5,
        default_timeout_s=2.0,
        stale_after_s=overrides.pop("stale_after_s", 5.0),
        breaker_failures=overrides.pop("breaker_failures", 3),
        breaker_reset_s=1.0,
        retry=RetryPolicy(
            max_restarts=2, base_delay_s=0.01, backoff_factor=2.0,
            max_delay_s=0.02, jitter_frac=0.0,
        ),
        **overrides,
    )
    return BatteryDirectory(config, tracer=Tracer(), clock=clock, sleep=lambda s: None)


def register(directory, name="node-a", device_id="dev-x"):
    backend = FakeBackend(device_id)
    transport = ScriptedTransport(NodeDispatcher(name, backend))
    entry = directory.register_node(name, transport)
    return entry, transport, backend


# --------------------------------------------------------------------- #
# Registration and routing
# --------------------------------------------------------------------- #


def test_registration_discovers_devices_and_rejects_duplicates():
    clock = FakeClock()
    directory = make_directory(clock)
    entry, transport, _ = register(directory)
    assert entry.devices == ("dev-x",)  # discovered via Ping
    assert directory.route_for("dev-x") is entry
    assert directory.devices() == ["dev-x"]
    with pytest.raises(NetError, match="already has an entry"):
        directory.register_node("node-a", transport)
    other = ScriptedTransport(NodeDispatcher("node-b", FakeBackend("dev-x")))
    with pytest.raises(NetError, match="already routed"):
        directory.register_node("node-b", other)  # one device, one owner


def test_unreachable_node_needs_a_roster_and_starts_suspect():
    clock = FakeClock()
    directory = make_directory(clock)
    dead = ScriptedTransport(NodeDispatcher("node-a", FakeBackend()))
    dead.down = True
    with pytest.raises(NetError, match="unreachable"):
        directory.register_node("node-a", dead)
    # With an explicit roster the partitioned-at-startup node registers
    # anyway; its lease is already past TTL, so it cannot serve mutations
    # until a heartbeat actually lands.
    entry = directory.register_node("node-b", dead, devices=["dev-x"])
    assert entry.state(clock()) == "suspect"
    row = directory.snapshot()["entries"][0]
    assert row["state"] == "suspect" and row["devices"] == ["dev-x"]


def test_local_entries_dispatch_in_process_and_never_expire():
    clock = FakeClock()
    directory = make_directory(clock)
    backend = FakeBackend("dev-local")
    entry = directory.register_local("here", backend)
    clock.advance(1e6)  # no lease to age out
    assert entry.state(clock()) == "live"
    resp = directory.call("QueryBatteryStatus", "dev-local")
    assert resp.ok and len(resp.result["statuses"]) == 2
    resp = directory.call("SetCharge", "dev-local", ratios=[1.0, 1.0])
    assert resp.ok and backend.applications == 1


def test_unknown_ops_and_devices_answer_typed():
    directory = make_directory(FakeClock())
    assert directory.call("EatBattery", "dev-x").error == "bad_request"
    resp = directory.call("QueryBatteryStatus", "ghost")
    assert resp.error == "not_found" and not resp.retryable


def test_config_validation():
    for bad in (
        dict(heartbeat_every_s=0.0),
        dict(attempt_timeout_s=0.0),
        dict(default_timeout_s=-1.0),
        dict(retry_after_s=0.0),
    ):
        with pytest.raises(NetError):
            DirectoryConfig(**bad)


# --------------------------------------------------------------------- #
# Reads: fresh, degraded, and unservable
# --------------------------------------------------------------------- #


def test_reads_degrade_to_cache_when_the_link_dies():
    clock = FakeClock()
    directory = make_directory(clock)
    _, transport, _ = register(directory)
    fresh = directory.call("QueryBatteryStatus", "dev-x")
    assert fresh.ok and fresh.degraded is not True
    transport.down = True
    clock.advance(2.0)
    degraded = directory.call("QueryBatteryStatus", "dev-x")
    assert degraded.ok and degraded.degraded is True
    assert degraded.stale_s == pytest.approx(2.0)
    assert degraded.result["statuses"] == fresh.result["statuses"]
    assert directory.tracer.counters["net.degraded_reads"] == 1
    clock.advance(1.0)
    assert directory.call("QueryBatteryStatus", "dev-x").stale_s == pytest.approx(3.0)


def test_read_with_no_cache_is_retryable_unavailable():
    clock = FakeClock()
    directory = make_directory(clock)
    dead = ScriptedTransport(NodeDispatcher("node-a", FakeBackend()))
    dead.down = True
    directory.register_node("node-a", dead, devices=["dev-x"])
    resp = directory.call("QueryBatteryStatus", "dev-x")
    assert resp.error == "unavailable" and resp.retryable
    assert directory.tracer.counters["net.fail_fast"] == 1


def test_a_degraded_read_leaves_the_half_open_probe_slot_free():
    clock = FakeClock()
    directory = make_directory(clock, breaker_failures=1)
    entry, transport, _ = register(directory)  # Ping fills the cache
    entry.breaker._clock = clock  # the breaker's reset timer follows the pinned clock
    transport.down = True
    directory.heartbeat_tick()  # one failed ping opens the breaker
    assert entry.breaker.state == "open"
    clock.advance(2.0)  # lease suspect, breaker past its reset: half-open
    assert entry.state(clock()) == "suspect"
    assert entry.breaker.state == "half_open"
    resp = directory.call("QueryBatteryStatus", "dev-x")
    assert resp.ok and resp.degraded is True
    assert transport.calls == [{"op": "Ping"}]  # the read never touched the wire
    # The cached answer did not take the probe: the next caller gets it.
    assert entry.breaker.allow()


# --------------------------------------------------------------------- #
# Mutations: fail fast, retry, exactly-once
# --------------------------------------------------------------------- #


def test_mutations_fail_fast_against_a_suspect_node():
    clock = FakeClock()
    directory = make_directory(clock)
    entry, transport, backend = register(directory)
    transport.down = True
    clock.advance(1.5)  # past ttl_s: live -> suspect
    assert entry.state(clock()) == "suspect"
    resp = directory.call("SetCharge", "dev-x", ratios=[1.0, 1.0])
    assert resp.error == "unavailable" and resp.retryable
    assert resp.retry_after_s == directory.config.retry_after_s
    assert backend.applications == 0  # nothing crossed, nothing burned


def test_mutation_retries_carry_one_idempotency_key():
    clock = FakeClock()
    directory = make_directory(clock)
    _, transport, backend = register(directory)
    transport.fail_times = 1  # first attempt dies on the wire
    resp = directory.call("SetCharge", "dev-x", ratios=[1.0, 1.0], request_id="mut-1")
    assert resp.ok and backend.applications == 1
    assert directory.tracer.counters["net.retries"] == 1
    assert directory.tracer.counters["net.transport_failures"] == 1
    mutations = [m for m in transport.calls if m.get("op") == "SetCharge"]
    # The request id doubles as the idempotency key, stable across retries.
    assert [m["idempotency_key"] for m in mutations] == ["mut-1"]


def test_retry_budget_exhaustion_opens_the_breaker_then_fail_fasts():
    clock = FakeClock()
    directory = make_directory(clock, breaker_failures=3)
    entry, transport, backend = register(directory)
    transport.down = True
    resp = directory.call("SetCharge", "dev-x", ratios=[1.0, 1.0])
    assert resp.error == "unavailable" and resp.retryable
    # Three attempts, three transport failures: the breaker is now open,
    # so the next mutation does not even touch the wire.
    assert directory.tracer.counters["net.transport_failures"] == 3
    assert directory.tracer.counters["net.breaker_open"] == 1
    assert not entry.breaker.allow()
    resp = directory.call("SetDischarge", "dev-x", ratios=[1.0, 1.0])
    assert resp.error == "unavailable"
    assert resp.retry_after_s == directory.config.breaker_reset_s
    assert backend.applications == 0


# --------------------------------------------------------------------- #
# The lease pump
# --------------------------------------------------------------------- #


def test_heartbeats_walk_the_lease_through_suspect_dead_and_back():
    clock = FakeClock()
    directory = make_directory(clock)
    entry, transport, _ = register(directory)
    transport.down = True
    clock.advance(1.5)
    directory.heartbeat_tick()
    clock.advance(2.0)  # age 3.5 > dead_after_s
    directory.heartbeat_tick()
    transport.down = False  # the node comes back
    directory.heartbeat_tick()
    assert entry.state(clock()) == "live" and entry.lease.renewals >= 1
    edges = [
        (r.fields["from"], r.fields["to"])
        for r in directory.tracer.records
        if r.name == "net.lease"
    ]
    assert edges == [("live", "suspect"), ("suspect", "dead"), ("dead", "live")]
    for counter in ("net.lease_suspect", "net.lease_dead", "net.lease_live"):
        assert directory.tracer.counters[counter] == 1
    # The healing heartbeat also refreshed the cache: reads are fresh again.
    assert directory.call("QueryBatteryStatus", "dev-x").degraded is not True


# --------------------------------------------------------------------- #
# The vdag's view of a remote battery
# --------------------------------------------------------------------- #


def test_remote_status_rollup_is_capacity_weighted():
    clock = FakeClock()
    directory = make_directory(clock)
    register(directory)  # Ping publishes both cells
    rollup = directory.remote_status("dev-x")
    assert rollup["n_cells"] == 2 and rollup["node"] == "node-a"
    assert rollup["soc"] == pytest.approx((0.8 * 100 + 0.4 * 300) / 400.0)
    assert rollup["capacity_mah"] == pytest.approx(400.0)
    assert rollup["terminal_voltage"] == pytest.approx(4.0)  # max, not mean
    assert rollup["degraded"] is False
    assert directory.remote_status("ghost") is None


def test_vdag_merges_remote_batteries_and_guards_ratio_routing():
    controller = SDBMicrocontroller([new_cell("B06", soc=1.0)])
    remote_view = {
        "n_cells": 2, "soc": 0.5, "capacity_mah": 400.0, "terminal_voltage": 4.0,
        "is_empty": False, "is_full": False, "degraded": True, "stale_s": 4.2,
    }
    away = RemoteBattery("away", "dev-x", lambda: remote_view)
    root = AggregateBattery("root", [PhysicalBattery("cell0", 0), away])
    dag = BatteryDAG(root, 1)  # remote nodes contribute no leaf indices
    dag.bind(controller)
    statuses = controller.query_status()
    local_cap = statuses[0].capacity_mah
    merged = dag.status("root", statuses)
    assert merged.n_cells == 3
    assert merged.soc == pytest.approx(
        (1.0 * local_cap + 0.5 * 400.0) / (local_cap + 400.0)
    )
    assert merged.degraded is True and merged.stale_s == pytest.approx(4.2)
    # Local ratio vectors must never route at a remote subtree...
    with pytest.raises(RatioError, match="remote"):
        dag.expand("root", [0.5, 0.5])
    # ...but a zero share for the remote child is an explicit no-op.
    assert dag.expand("root", [1.0, 0.0]) == [1.0]
    assert '"device": "dev-x"' in json.dumps(dag.signature())


def test_remote_battery_without_a_provider_is_degraded_empty():
    away = RemoteBattery("away", "dev-x")
    view = away.view()
    assert view["degraded"] is True and view["n_cells"] == 0
    assert away.leaf_indices() == () and not away.dischargeable()
    away.bind_provider(lambda: {"n_cells": 1, "soc": 0.9, "capacity_mah": 50.0})
    assert away.view()["soc"] == pytest.approx(0.9)


# --------------------------------------------------------------------- #
# The serve front end's request checks and a fleet exported as a node
# --------------------------------------------------------------------- #


def make_bridge(device_id="dev-local"):
    bridge = ServeBridge()
    plan = SimpleNamespace(shard_id=0, devices=[SimpleNamespace(device_id=device_id)])
    bridge.bind([plan], {0: queue.Queue()}, queue.Queue())
    return bridge


@pytest.mark.parametrize(
    "field, value",
    [
        ("timeout_s", "x"),
        ("timeout_s", 10**400),
        ("timeout_s", math.inf),
        ("ratios", 5),
        ("ratios", True),
    ],
    ids=["timeout-string", "timeout-huge-int", "timeout-inf", "ratios-int", "ratios-bool"],
)
def test_an_unusable_field_is_bad_request_not_an_exception(field, value):
    """Values every wire door answers as bad_request are refused when the
    request is built: a typed ServeError naming the field, which the
    directory's call answers as bad_request (it used to raise TypeError,
    ValueError or OverflowError, and serve an infinite timeout)."""
    directory = make_directory(FakeClock())
    backend = FakeBackend("dev-local")
    directory.register_local("here", backend)
    fields = {"ratios": [1.0, 0.0], field: value}
    resp = directory.call("SetCharge", "dev-local", **fields)
    assert resp.error == "bad_request" and field in resp.message
    assert backend.applications == 0
    fe = FleetFrontEnd(make_bridge(), ServeConfig(), tracer=Tracer())
    with pytest.raises(ServeError, match=field):
        fe.make_request("SetCharge", "dev-local", **fields)


def test_export_node_serves_the_whole_fleet_over_tcp():
    from repro.serve.server import ServingFleet

    bridge = make_bridge("dev-a")
    bridge.update_shard(0, status="running", booted=True, beat=True, pid=123)
    bridge.publish_status(0, "dev-a", [{"soc": 0.7, "capacity_mah": 120.0}])
    fleet = ServingFleet(SimpleNamespace(bridge=bridge))
    server = fleet.export_node("fleet-node")
    try:
        host, port = server.address
        directory = BatteryDirectory()
        entry = directory.register_node("fleet-node", TcpTransport(host, port))
        assert entry.devices == ("dev-a",)
        resp = directory.call("QueryBatteryStatus", "dev-a")
        assert resp.ok and resp.result["statuses"] == [
            {"soc": 0.7, "capacity_mah": 120.0}
        ]
    finally:
        server.stop()
