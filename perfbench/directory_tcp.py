"""``directory-tcp``: the four SDB calls routed by a ``BatteryDirectory``.

Why: ``repro.net`` does almost all the work here and none in
``serve-http``, so connection reuse or a merged dispatcher must move this
workload and leave that one unchanged. Four in-process
``BatteryNodeServer``s each export one idle device through
``RuntimeBackend``; the directory reaches them over ``TcpTransport`` with
its lease pump at the default cadence, and the same closed-loop op mix as
``serve-http`` comes from :data:`~perfbench.common.CLIENTS` clients. A run
sends each node more mutations than its 1024-entry ``IdempotencyTable``
holds, so eviction is on the measured path.

Set-up is nodes up and registered; it is timed :data:`SETUPS` times.
The whole process runs on one CPU (:func:`pin_to_one_cpu`), so set-up
and the closed loop are CPU-bound there: a reference sample
(:mod:`perfbench.machine`) follows each set-up, precedes the closed loop
and separates its :data:`SLICE_S` slices, and the untraced run reports
both at the reference speed. The set-ups all come before the closed
loop, and the machine's speed can change in between, so each phase is
adjusted by its own samples.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter
from contextlib import nullcontext
from typing import List, Tuple

from repro.fleet.spec import DeviceSpec, build_device_emulator
from repro.net import BatteryDirectory, BatteryNodeServer, NodeDispatcher, RuntimeBackend, TcpTransport
from repro.obs import NULL_TRACER, Tracer
from repro.serve.protocol import MUTATING_OPS

from .common import Call, CheckFailed, RunResult, call_report, closed_loop, derive_seed, mean_latency
from .env import is_loopback
from .machine import MachineSpeed

SCENARIOS = ("watch-day", "phone-day", "tablet-day", "watch-day")
SETUPS = 21
#: Length of one closed-loop slice between two reference samples.
SLICE_S = 0.5


def pin_to_one_cpu() -> int:
    """Keep clients, directory and nodes on one CPU; returns the CPU count.

    Every call hands off between threads four times (client, node handler,
    and back). Across CPUs each handoff is a cross-CPU wakeup whose latency
    follows the host's load; unpinned, set medians on a shared 2-vCPU VM
    ranged threefold while the other workloads held. On one CPU the calls
    are CPU-bound there, which the reference samples can follow. The two
    client threads and their connections stay; they share the CPU. Threads
    inherit the affinity, so this runs before any node or client thread
    starts.
    """
    if not hasattr(os, "sched_setaffinity"):
        return os.cpu_count() or 1
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
    return len(os.sched_getaffinity(0))


class CountingBackend:
    """Counts mutations the node actually applied (after idempotency)."""

    def __init__(self, inner: RuntimeBackend):
        self.inner = inner
        self.applied = 0
        self._lock = threading.Lock()

    def devices(self):
        return self.inner.devices()

    def statuses(self):
        return self.inner.statuses()

    def handle(self, wire: dict) -> dict:
        reply = self.inner.handle(wire)
        if wire.get("op") in MUTATING_OPS and reply.get("ok"):
            with self._lock:
                self.applied += 1
        return reply


class Cluster:
    """Four nodes and the directory in front of them."""

    def __init__(self, seed: int, tracers=(None, None)):
        self.directory = BatteryDirectory(seed=derive_seed(seed, 8), tracer=tracers[0] or NULL_TRACER)
        self.servers: List[BatteryNodeServer] = []
        self.backends: List[CountingBackend] = []
        self.dispatchers: List[NodeDispatcher] = []
        self.devices: List[Tuple[str, int]] = []
        for k, scenario in enumerate(SCENARIOS):
            device = DeviceSpec(f"{scenario}-{k:05d}", scenario, k, derive_seed(seed, 9, k))
            emulator = build_device_emulator(device, {"duration_s": 24 * 3600.0, "dt_s": 60.0})
            backend = CountingBackend(RuntimeBackend(device.device_id, emulator.runtime))
            dispatcher = NodeDispatcher(f"node-{k}", backend, tracer=tracers[1] or NULL_TRACER)
            server = BatteryNodeServer(dispatcher).start()
            self.servers.append(server)
            host, port = server.address
            if not is_loopback(host):
                raise CheckFailed(f"node address {host} is not loopback")
            self.directory.register_node(f"node-{k}", TcpTransport(host, port))
            self.backends.append(backend)
            self.dispatchers.append(dispatcher)
            self.devices.append((device.device_id, emulator.controller.n))
        self.directory.start_heartbeats()

    def close(self) -> None:
        self.directory.close()
        for server in self.servers:
            server.stop()


def start(seed: int, tracers=(None, None)) -> Tuple[Cluster, float]:
    t0 = time.perf_counter()
    cluster = Cluster(seed, tracers)
    return cluster, time.perf_counter() - t0


def client_factory(cluster: Cluster, sent: List[Counter], probe=None):
    n_cells = dict(cluster.devices)

    def make_client(k: int):
        mutations = Counter()
        sent.append(mutations)

        def send(call: dict) -> Call:
            op, device = call["op"], call["device"]
            cls = "read" if op == "QueryBatteryStatus" else "mutate"
            with probe.span("bench.request", cls=cls, op=op) if probe is not None else nullcontext():
                t0 = time.perf_counter()
                response = cluster.directory.call(
                    op, device, ratios=call.get("ratios"), profile=call.get("profile")
                )
                latency = time.perf_counter() - t0
            if not response.ok:
                raise CheckFailed(f"{op} on {device}: {response.error} {response.message}")
            if response.degraded or response.stale_s is not None:
                raise CheckFailed(f"{op} on {device} was answered from the cache, not the node")
            result = response.result or {}
            if cls == "read":
                if len(result.get("statuses") or ()) != n_cells[device]:
                    raise CheckFailed(f"read of {device} carried {result.get('statuses')!r}")
            else:
                mutations[device] += 1
                sent_value = call.get("ratios") if "ratios" in call else call.get("profile")
                echoed = result.get("ratios") if "ratios" in call else result.get("profile")
                if result.get("applied") is not True or echoed != sent_value:
                    raise CheckFailed(f"{op} sent {sent_value!r}, answer {result!r}")
            return Call(cls, op, latency, "ok")

        return send

    return make_client


def directory_phase(seed, seconds, cluster, probe=None, speed: MachineSpeed = None):
    """The closed loop, cut into :data:`SLICE_S` slices with a reference
    sample between two when ``speed`` is given."""
    sent: List[Counter] = []
    slices = max(1, round(seconds / SLICE_S)) if speed is not None else 1
    calls, wall = closed_loop(
        seconds, seed, cluster.devices, client_factory(cluster, sent, probe),
        slices=slices, between=speed.sample if speed is not None else None,
    )
    total = sum(sent, Counter())
    for (device, _), backend, dispatcher in zip(cluster.devices, cluster.backends, cluster.dispatchers):
        if backend.applied != total[device] or dispatcher.idempotency.replays:
            raise CheckFailed(
                f"{device}: {total[device]} mutations sent, {backend.applied} applied, "
                f"{dispatcher.idempotency.replays} replayed"
            )
    return calls, wall, total


def run(seed: int, seconds: float, work_dir: str) -> RunResult:
    cpus = pin_to_one_cpu()
    setup_speed, speed = MachineSpeed(), MachineSpeed()
    setups: List[float] = []
    cluster = None
    try:
        for _ in range(SETUPS):
            if cluster is not None:
                cluster.close()
            cluster, setup_s = start(seed)
            setups.append(setup_s)
            setup_speed.sample()
        speed.sample()
        calls, wall, sent = directory_phase(seed, seconds, cluster, speed=speed)
    finally:
        if cluster is not None:
            cluster.close()
    report = call_report(calls, wall)
    report["mutations_per_node_min"] = (min(sent.values()), "count")
    report["cpus"] = (cpus, "count")
    return RunResult(
        setups_s=setups,
        completed=len(calls),
        wall_s=wall,
        outcomes=[c.outcome for c in calls],
        report=report,
        speed=speed,
        setup_speed=setup_speed,
        adjusted=("setup_s", "throughput_per_s"),
    )


def traced(seed: int, seconds: float, work_dir: str, probe) -> dict:
    """An untraced phase for the overhead ratio, then a traced one."""
    pin_to_one_cpu()
    cluster, _ = start(seed)
    try:
        untraced, _, _ = directory_phase(seed, seconds, cluster)
    finally:
        cluster.close()
    probe.install()
    tracers = (Tracer(), Tracer())
    cluster, _ = start(seed, tracers)
    try:
        calls, wall, _ = directory_phase(seed, seconds, cluster, probe)
        replays = sum(d.idempotency.replays for d in cluster.dispatchers)
    finally:
        cluster.close()
    return {
        "traced_over_untraced": mean_latency(calls) / mean_latency(untraced),
        "phase_wall_s": wall,
        "tracers": {"directory": [tracers[0]], "node": [tracers[1]]},
        "idempotent_replays": replays,
        "outcomes": [c.outcome for c in calls],
    }
