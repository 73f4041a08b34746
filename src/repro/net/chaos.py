"""The scripted partition-and-heal cycle behind ``repro directory``.

One deterministic scenario, reused by the CLI subcommand and
``scripts/chaos_check.py directory-chaos``: two emulated devices
exported as two TCP battery nodes, a directory routing to both through
fault-injecting transports, and a seeded **full partition** of one node
driven through four phases::

    warm       both nodes live, cache warm, fresh reads from both
    partition  node-b unreachable: reads degrade to cache (degraded:
               true, stale_s growing), mutations fail fast as
               unavailable, the lease walks live -> suspect (-> dead)
    heal       the partition lifts: heartbeats renew the lease
               (suspect -> live in the trace), reads return fresh
    replay     a mutation is sent through a one-way window (applied
               node-side, reply lost) and retried with the same
               idempotency key: applied exactly once

The returned summary carries every check's verdict plus the raw
evidence (stale samples, lease transitions, application counts);
:func:`cycle_ok` folds it to one bool. All scheduling is explicit
wall-clock windows around ``time.time()`` — no background pump — so a
seeded run is reproducible call-for-call.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.errors import NetError, require_positive
from repro.faults.net import NetFaultSchedule
from repro.fleet.spec import DeviceSpec, build_device_emulator, require_scenario
from repro.net.directory import BatteryDirectory, DirectoryConfig
from repro.net.lease import LeaseConfig
from repro.net.node import BatteryNodeServer, NodeDispatcher, RuntimeBackend
from repro.net.transport import NetFaultInjector, TcpTransport
from repro.obs import NULL_TRACER, Tracer
from repro.serve.protocol import ERR_UNAVAILABLE, MUTATING_OPS

__all__ = ["run_partition_cycle", "cycle_ok"]


class _CountingBackend:
    """Count actual mutation *applications* (post-idempotency-dedup)."""

    def __init__(self, inner):
        self.inner = inner
        self.mutations = 0

    def devices(self):
        return self.inner.devices()

    def statuses(self):
        return self.inner.statuses()

    def handle(self, wire: dict) -> dict:
        if wire.get("op") in MUTATING_OPS:
            self.mutations += 1
        return self.inner.handle(wire)


def run_partition_cycle(
    *,
    seed: int = 0,
    partition_s: float = 1.2,
    tick_s: float = 0.15,
    tracer: Optional[Tracer] = None,
    scenario: str = "watch-day",
) -> dict:
    """Drive a two-node directory through partition, heal, and replay.

    Args:
        seed: seeds the device emulators, retry jitter, and the fault
            schedule — same seed, same cycle.
        partition_s: how long node-b stays fully partitioned.
        tick_s: driver cadence (heartbeat + probe reads per tick).
        tracer: receives the whole ``net.*`` event stream.
        scenario: fleet scenario both devices run.

    Returns:
        A JSON-safe summary dict; feed it to :func:`cycle_ok`.
    """
    require_scenario(scenario, NetError)
    require_positive(partition_s, "partition_s", NetError)
    require_positive(tick_s, "tick_s", NetError)
    tracer = tracer if tracer is not None else NULL_TRACER
    lease = LeaseConfig(ttl_s=3.0 * tick_s, dead_after_s=12.0 * tick_s)
    config = DirectoryConfig(
        lease=lease,
        heartbeat_every_s=tick_s,
        attempt_timeout_s=0.5,
        default_timeout_s=1.0,
        stale_after_s=2.0 * tick_s,
        breaker_failures=3,
        breaker_reset_s=2.0 * tick_s,
    )

    servers: List[BatteryNodeServer] = []
    backends = {}
    dispatchers = {}
    summary: dict = {
        "seed": seed,
        "partition_s": partition_s,
        "checks": {},
        "stale_samples": [],
    }
    try:
        for i, name in enumerate(("node-a", "node-b")):
            device = f"dev-{name[-1]}"
            emulator = build_device_emulator(
                DeviceSpec(device, scenario, i, seed + i),
                {"duration_s": 600.0, "dt_s": 1.0},
            )
            backend = _CountingBackend(RuntimeBackend(device, emulator.runtime))
            dispatcher = NodeDispatcher(name, backend, tracer=tracer)
            server = BatteryNodeServer(dispatcher).start()
            servers.append(server)
            backends[name] = backend
            dispatchers[name] = dispatcher

        # The fault arc, all on node-b: a full partition starting at the
        # end of the warm phase, then (post-heal) a one-way window for
        # the idempotency replay.
        warm_s = 6.0 * tick_s
        heal_t = warm_s + partition_s
        replay_t0 = heal_t + 6.0 * tick_s
        replay_t1 = replay_t0 + 4.0 * tick_s
        schedule = (
            NetFaultSchedule(seed=seed)
            .partition(warm_s, heal_t, nodes=("node-b",))
            .oneway(replay_t0, replay_t1, nodes=("node-b",))
        )

        directory = BatteryDirectory(config, tracer=tracer, seed=seed)
        injectors = {}
        for name, server in zip(("node-a", "node-b"), servers):
            host, port = server.address
            injector = NetFaultInjector(
                TcpTransport(host, port), schedule, name, tracer=tracer
            )
            injectors[name] = injector
            directory.register_node(name, injector)
        t0 = time.time()
        for injector in injectors.values():
            injector.arm(t0)

        def elapsed() -> float:
            return time.time() - t0

        def tick_until(t_target: float, probe: Optional[str] = None) -> None:
            while elapsed() < t_target:
                directory.heartbeat_tick()
                if probe is not None:
                    response = directory.call(
                        "QueryBatteryStatus", probe, timeout_s=2.0 * tick_s
                    )
                    if response.ok and response.degraded:
                        summary["stale_samples"].append(round(response.stale_s, 4))
                time.sleep(tick_s)

        # -- warm (reads taken strictly before the partition window) --- #
        tick_until(warm_s - 2.0 * tick_s)
        fresh_a = directory.call("QueryBatteryStatus", "dev-a")
        fresh_b = directory.call("QueryBatteryStatus", "dev-b")
        summary["checks"]["warm_fresh_reads"] = bool(
            fresh_a.ok and fresh_b.ok and not fresh_a.degraded and not fresh_b.degraded
        )
        tick_until(warm_s)

        # -- partition ------------------------------------------------- #
        # Let the lease actually expire before asserting degradation.
        tick_until(warm_s + 4.0 * tick_s, probe="dev-b")
        degraded = directory.call("QueryBatteryStatus", "dev-b", timeout_s=2.0 * tick_s)
        summary["checks"]["partition_degraded_read"] = bool(
            degraded.ok and degraded.degraded and degraded.stale_s is not None
        )
        mutation = directory.call(
            "SetCharge", "dev-b", ratios=[1.0, 0.0], timeout_s=2.0 * tick_s
        )
        summary["checks"]["partition_mutation_fails_fast"] = bool(
            (not mutation.ok) and mutation.error == ERR_UNAVAILABLE and mutation.retryable
        )
        summary["partition_mutation_error"] = mutation.error
        healthy = directory.call("QueryBatteryStatus", "dev-a")
        summary["checks"]["partition_isolates_node_a"] = bool(
            healthy.ok and not healthy.degraded
        )
        tick_until(heal_t, probe="dev-b")
        samples = summary["stale_samples"]
        summary["checks"]["stale_s_grows"] = bool(
            len(samples) >= 2 and samples[-1] > samples[0]
        )
        summary["partition_states"] = [
            entry.snapshot(time.time())["state"] for entry in directory.entries()
        ]

        # -- heal ------------------------------------------------------ #
        tick_until(heal_t + 4.0 * tick_s)
        healed = directory.call("QueryBatteryStatus", "dev-b")
        summary["checks"]["healed_fresh_read"] = bool(healed.ok and not healed.degraded)
        # Bit-consistency: the directory's healed answer is the node's
        # own answer, byte for byte (no residue of the degraded path).
        direct = injectors["node-b"].inner.call(
            {"op": "QueryBatteryStatus", "device_id": "dev-b", "request_id": "direct"},
            config.attempt_timeout_s,
        )
        again = directory.call("QueryBatteryStatus", "dev-b")
        summary["checks"]["healed_bit_consistent"] = bool(
            again.ok and again.result["statuses"] == direct["result"]["statuses"]
        )

        # -- replay (one-way window: applied, reply lost, retried) ----- #
        tick_until(replay_t0 + tick_s)
        before = backends["node-b"].mutations
        replayed = directory.call(
            "SetDischarge", "dev-b", ratios=[1.0, 0.0],
            timeout_s=replay_t1 - replay_t0, request_id="replay-probe",
        )
        applied = backends["node-b"].mutations - before
        summary["replay_applications"] = applied
        summary["replay_node_replays"] = dispatchers["node-b"].idempotency.replays
        # The reply is lost for the whole window, so the *call* reports
        # unavailable — but the mutation must have landed exactly once.
        summary["checks"]["replay_applied_exactly_once"] = bool(
            applied == 1 and dispatchers["node-b"].idempotency.replays >= 1
        )
        summary["replay_response_error"] = replayed.error

        summary["roster"] = directory.snapshot()
        directory.close()
    finally:
        for server in servers:
            server.stop()
    return summary


def cycle_ok(summary: dict) -> bool:
    """Every check in a :func:`run_partition_cycle` summary passed."""
    checks = summary.get("checks", {})
    return bool(checks) and all(checks.values())
