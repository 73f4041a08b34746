"""``repro.fleet``: sharded, fault-tolerant multi-device fleet runs.

The paper's end state is SDB managing batteries across whole device
fleets; this package is the robustness spine for that scale. A
:class:`FleetSpec` (device population x per-device seed streams) is
planned into :class:`ShardPlan` blocks; a pool of shard worker
processes (forked for an offline fleet on Linux, spawned otherwise)
runs them with layered checkpoints (per-device
``repro.ckpt/v3`` snapshots + per-shard completion maps); a
:class:`FleetSupervisor` watches heartbeats, restarts dead or silent
workers with exponential backoff, and quarantines shards that exhaust
their retry budget instead of failing the fleet. See ``docs/fleet.md``.

Front ends: ``python -m repro fleet`` (CLI) or::

    from repro.fleet import FleetSpec, FleetSupervisor

    spec = FleetSpec(population=(("watch-day", 200),), seed=7)
    result = FleetSupervisor(spec, "fleet.ckpt.d", n_shards=8).run()
    print(result.summary())
"""

from repro.fleet.rollup import fleet_rollup, percentile
from repro.fleet.spec import (
    FLEET_SCENARIOS,
    DeviceSpec,
    FleetSpec,
    ShardPlan,
    build_device_emulator,
    parse_population,
    plan_shards,
)
from repro.fleet.supervisor import ChaosSpec, FleetResult, FleetSupervisor
from repro.fleet.worker import device_metrics, run_shard_worker

__all__ = [
    "FLEET_SCENARIOS",
    "DeviceSpec",
    "FleetSpec",
    "ShardPlan",
    "ChaosSpec",
    "FleetResult",
    "FleetSupervisor",
    "build_device_emulator",
    "device_metrics",
    "fleet_rollup",
    "parse_population",
    "percentile",
    "plan_shards",
    "run_shard_worker",
]
