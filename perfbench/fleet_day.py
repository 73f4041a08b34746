"""``fleet-day``: the offline user path, ``FleetSupervisor.run()``.

Why: spawn, the scalar emulator step, policy ticks, checkpoint writes
and completion maps do most of their work here and none in the serving
workloads. With checkpoints counted, a watch device costs several times
a tablet device and writes the largest checkpoints, so shard stragglers
show up in ``throughput_per_s``.

Settings are the ``repro fleet`` defaults: dt 60 s, reference engine,
hourly device checkpoints, 4 shards over ``min(4, nproc)`` workers,
retry policy ``RetryPolicy(max_restarts=3, base_delay_s=0.5,
heartbeat_deadline_s=10.0)``. Fleets run back to back until the run's
seconds are used up; each fleet is a fresh seeded population in a fresh
checkpoint directory. Set-up and the workers' emulation are CPU-bound,
so a reference sample (:mod:`perfbench.machine`) precedes each fleet and
the untraced run reports both at the reference speed.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from contextlib import nullcontext
import numpy as np

from repro.fleet import FleetSpec, FleetSupervisor, build_device_emulator, device_metrics, plan_shards
from repro.fleet.worker import run_shard_worker
from repro.obs import Tracer
from repro.retry import RetryPolicy

from .common import CheckFailed, RunResult, derive_seed, fresh_dir
from .machine import MachineSpeed

#: Device mix of every fleet, in roster order (shards are contiguous
#: blocks, so the watch devices land together and make the straggler).
POPULATION = (("watch-day", 4), ("phone-day", 4), ("tablet-day", 4))
N_SHARDS = 4
CHECKPOINT_EVERY_S = 3600.0
HEARTBEAT_EVERY_S = 0.5
#: Devices re-run solo after the timed phase and compared bit for bit.
SOLO_SAMPLE = 2
#: Set-up takes well under a millisecond, so each fleet's is timed this
#: many times and the run reports the median of all of them.
SETUP_REPEATS = 20


def cli_retry_policy() -> RetryPolicy:
    """The retry policy ``repro fleet`` and ``repro serve`` build by default."""
    return RetryPolicy(max_restarts=3, base_delay_s=0.5, heartbeat_deadline_s=10.0)


def fleet_spec(seed: int, index: int) -> FleetSpec:
    return FleetSpec(population=POPULATION, seed=derive_seed(seed, 1, index), dt_s=60.0, engine="reference")


def _supervisor(spec: FleetSpec, ckpt_dir: str, tracer=None) -> FleetSupervisor:
    return FleetSupervisor(
        spec,
        ckpt_dir,
        n_shards=N_SHARDS,
        max_workers=min(N_SHARDS, os.cpu_count() or 1),
        retry=cli_retry_policy(),
        checkpoint_every_s=CHECKPOINT_EVERY_S,
        heartbeat_every_s=HEARTBEAT_EVERY_S,
        tracer=tracer,
    )


def run_fleets(seed: int, seconds: float, work_dir: str, tracer_factory=None, speed: MachineSpeed = None):
    """Run fleets until ``seconds`` of ``run()`` time are spent, with a
    reference sample before each fleet's set-ups when ``speed`` is given.

    Returns ``(setups_s, run_walls_s, results, tracers)``.
    """
    setups, walls, results, tracers = [], [], [], []
    index = 0
    while not walls or sum(walls) < seconds:
        ckpt_dir = fresh_dir(work_dir, f"fleet-{index}")
        tracer = tracer_factory() if tracer_factory is not None else None
        if speed is not None:
            speed.sample()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            spec = fleet_spec(seed, index)
            supervisor = _supervisor(spec, ckpt_dir, tracer)
            setups.append(time.perf_counter() - t0)
        t1 = time.perf_counter()
        result = supervisor.run()
        walls.append(time.perf_counter() - t1)
        results.append(result)
        tracers.append(tracer)
        index += 1
    return setups, walls, results, tracers


def run(seed: int, seconds: float, work_dir: str) -> RunResult:
    speed = MachineSpeed()
    setups, walls, results, _ = run_fleets(seed, seconds, work_dir, speed=speed)
    for result in results:
        if not result.ok:
            raise CheckFailed(f"fleet seed {result.spec.seed} degraded: {result.summary()}")
    check_solo(seed, results)
    devices = sum(len(r.devices) for r in results)
    wall = sum(walls)
    return RunResult(
        setups_s=setups,
        completed=devices,
        wall_s=wall,
        outcomes=["ok"] * devices,
        report={
            "devices_per_s": (devices / wall, "1/s"),
            "fleets": (len(results), "count"),
            "devices": (devices, "count"),
        },
        speed=speed,
        adjusted=("setup_s", "throughput_per_s"),
    )


def check_solo(seed: int, results) -> None:
    """A seeded sample of devices must equal a solo in-process run exactly."""
    rng = np.random.default_rng(derive_seed(seed, 2))
    for pick in rng.choice(sum(len(r.devices) for r in results), size=SOLO_SAMPLE, replace=False):
        pick = int(pick)
        for result in results:
            if pick < len(result.devices):
                break
            pick -= len(result.devices)
        device = result.spec.devices()[pick]
        solo = device_metrics(device, build_device_emulator(device, result.spec.config_dict()).run())
        if solo != result.devices[device.device_id]:
            raise CheckFailed(f"{device.device_id} (fleet seed {result.spec.seed}) differs from its solo run")


def replicate_shards(spec: FleetSpec, work_dir: str, name: str, span=None) -> float:
    """Run the fleet's shards one after another in this process.

    Spawned workers cannot be wrapped from outside, so per-device numbers
    come from this replica: the same shard entry point on the same seeded
    devices at the same checkpoint cadence. Returns its wall time.
    """
    ckpt_dir = fresh_dir(work_dir, name)
    config = dict(spec.config_dict())
    config.update(
        checkpoint_dir=ckpt_dir,
        checkpoint_every_s=CHECKPOINT_EVERY_S,
        heartbeat_every_s=HEARTBEAT_EVERY_S,
        attempt=1,
    )
    t0 = time.perf_counter()
    for plan in plan_shards(spec, N_SHARDS):
        with span("bench.shard", shard=plan.shard_id) if span is not None else nullcontext():
            code = run_shard_worker(plan.to_dict(), config, queue.Queue(), threading.Event())
        if code != 0:
            raise CheckFailed(f"in-process replica of shard {plan.shard_id} exited {code}")
    return time.perf_counter() - t0


def traced(seed: int, seconds: float, work_dir: str, probe) -> dict:
    """Fleet events from traced fleets, per-device spans from a replica."""
    spec = fleet_spec(seed, 0)
    warm_up = spec.devices()[0]
    build_device_emulator(warm_up, spec.config_dict()).run()
    untraced_wall = replicate_shards(spec, work_dir, "replica-untraced")
    probe.install()
    _, walls, results, tracers = run_fleets(seed, seconds, work_dir, Tracer)
    traced_wall = replicate_shards(spec, work_dir, "replica-traced", span=probe.span)
    for result in results:
        if not result.ok:
            raise CheckFailed(f"traced fleet seed {result.spec.seed} degraded")
    return {
        "traced_over_untraced": traced_wall / untraced_wall,
        "phase_wall_s": sum(walls),
        "tracers": {"supervisor": tracers},
        "outcomes": ["ok"] * sum(len(r.devices) for r in results),
    }
