"""The fleet engine's pure parts: specs, sharding, retry math, rollups,
the shard worker run in-process, how the supervisor starts its workers,
and when a serving fleet first answers a status read (the only
subprocesses here — the process-level crash/recovery paths live in
``test_fleet_recovery.py``).
"""

import queue
import sys
import threading

import numpy as np
import pytest

from repro.errors import FleetError
from repro.fleet import (
    DeviceSpec,
    FleetSpec,
    FleetSupervisor,
    ShardPlan,
    build_device_emulator,
    fleet_rollup,
    parse_population,
    percentile,
    plan_shards,
)
from repro.fleet.worker import (
    EXIT_OK,
    device_checkpoint_path,
    device_metrics,
    read_shard_completed,
    run_shard_worker,
    shard_checkpoint_path,
    shard_is_done,
    worker_main,
)
from repro.obs.tracer import NULL_TRACER, Tracer, get_default_tracer, use_tracer
from repro.retry import RetryPolicy
from repro.serve.bridge import ServeBridge

SMALL = dict(duration_s=600.0, dt_s=10.0)


# --------------------------------------------------------------------- #
# FleetSpec and sharding
# --------------------------------------------------------------------- #


def test_roster_is_deterministic_and_seeded_per_device():
    spec = FleetSpec(population=(("watch-day", 3), ("phone-day", 2)), seed=11, **SMALL)
    roster = spec.devices()
    assert [d.device_id for d in roster] == [
        "watch-day-00000",
        "watch-day-00001",
        "watch-day-00002",
        "phone-day-00003",
        "phone-day-00004",
    ]
    assert roster == spec.devices()  # pure
    assert len({d.seed for d in roster}) == 5  # independent streams
    # Per-device seeds depend only on (fleet seed, index) — re-sharding or
    # reordering groups cannot change a device's workload.
    again = FleetSpec(population=(("watch-day", 5),), seed=11, **SMALL).devices()
    assert [d.seed for d in again] == [
        d.seed for d in FleetSpec(population=(("phone-day", 5),), seed=11, **SMALL).devices()
    ]
    other = FleetSpec(population=(("watch-day", 3), ("phone-day", 2)), seed=12, **SMALL)
    assert {d.seed for d in other.devices()}.isdisjoint({d.seed for d in roster})


def test_spec_validation():
    with pytest.raises(FleetError):
        FleetSpec(population=())
    with pytest.raises(FleetError):
        FleetSpec(population=(("no-such-scenario", 4),))
    with pytest.raises(FleetError):
        FleetSpec(population=(("watch-day", 0),))
    with pytest.raises(FleetError):
        FleetSpec(population=(("watch-day", 4),), dt_s=0.0)
    with pytest.raises(FleetError):
        FleetSpec(population=(("watch-day", 4),), duration_s=-1.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(FleetError, match="duration"):
            FleetSpec(population=(("watch-day", 4),), duration_s=bad)
        with pytest.raises(FleetError, match="dt"):
            FleetSpec(population=(("watch-day", 4),), dt_s=bad)
    with pytest.raises(FleetError, match="engine"):
        FleetSpec(population=(("watch-day", 4),), engine="bogus")
    with pytest.raises(FleetError, match="protection"):
        FleetSpec(population=(("watch-day", 4),), protection="bogus")


def test_plan_shards_partitions_the_roster():
    spec = FleetSpec(population=(("phone-day", 10),), seed=1, **SMALL)
    shards = plan_shards(spec, 3)
    assert [s.shard_id for s in shards] == [0, 1, 2]
    ids = [d.device_id for s in shards for d in s.devices]
    assert ids == [d.device_id for d in spec.devices()]  # disjoint, ordered, complete
    assert max(s.n_devices for s in shards) - min(s.n_devices for s in shards) <= 1
    # More shards than devices: clamped, never empty.
    tiny = plan_shards(FleetSpec(population=(("phone-day", 2),), **SMALL), 8)
    assert len(tiny) == 2 and all(s.n_devices == 1 for s in tiny)
    with pytest.raises(FleetError):
        plan_shards(spec, 0)


def test_shard_plan_round_trips_through_dicts():
    spec = FleetSpec(population=(("tablet-day", 3),), seed=5, **SMALL)
    shard = plan_shards(spec, 1)[0]
    assert ShardPlan.from_dict(shard.to_dict()) == shard


def test_parse_population():
    assert parse_population("watch-day", default_count=7) == (("watch-day", 7),)
    assert parse_population("watch-day=100,phone-day=50") == (
        ("watch-day", 100),
        ("phone-day", 50),
    )
    with pytest.raises(FleetError):
        parse_population("watch-day=lots")
    with pytest.raises(FleetError):
        parse_population("watch-day,,phone-day")


# --------------------------------------------------------------------- #
# RetryPolicy (shared by RunSupervisor and FleetSupervisor)
# --------------------------------------------------------------------- #


def test_retry_policy_backoff_growth_and_cap():
    policy = RetryPolicy(base_delay_s=1.0, backoff_factor=2.0, max_delay_s=5.0, jitter_frac=0.0)
    assert [policy.delay_for(n) for n in (1, 2, 3, 4)] == [1.0, 2.0, 4.0, 5.0]
    assert policy.max_attempts == 4


def test_retry_policy_jitter_is_bounded_and_seeded():
    policy = RetryPolicy(base_delay_s=1.0, backoff_factor=1.0, jitter_frac=0.5)
    delays = [policy.delay_for(1, np.random.default_rng(9)) for _ in range(20)]
    assert all(1.0 <= d <= 1.5 for d in delays)
    assert delays == [policy.delay_for(1, np.random.default_rng(9)) for _ in range(20)]
    assert policy.delay_for(1) == 1.0  # no rng -> no jitter


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_restarts=-1)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay_s=-0.1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter_frac=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(heartbeat_deadline_s=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(boot_deadline_s=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(kill_join_timeout_s=0.0)
    with pytest.raises(ValueError):
        RetryPolicy().delay_for(0)


def test_retry_policy_boot_deadline_derives_from_heartbeat_deadline():
    # Explicit wins; otherwise 6x the heartbeat deadline; disabled
    # liveness disables the boot deadline too.
    assert RetryPolicy(heartbeat_deadline_s=5.0, boot_deadline_s=42.0).effective_boot_deadline_s == 42.0
    assert RetryPolicy(heartbeat_deadline_s=5.0).effective_boot_deadline_s == 30.0
    assert RetryPolicy(heartbeat_deadline_s=None).effective_boot_deadline_s is None
    assert RetryPolicy(heartbeat_deadline_s=None, boot_deadline_s=9.0).effective_boot_deadline_s == 9.0


def test_supervisor_liveness_clock_starts_at_first_heartbeat():
    """Satellite fix: a tight heartbeat deadline must not misfire on a
    slow boot — silence only counts from the first heartbeat received."""
    from repro.fleet.supervisor import _RUNNING, FleetSupervisor, _ShardState

    spec = FleetSpec(population=(("watch-day", 2),), seed=0, **SMALL)
    retry = RetryPolicy(heartbeat_deadline_s=0.5, boot_deadline_s=30.0)
    supervisor = FleetSupervisor.__new__(FleetSupervisor)
    supervisor.retry = retry
    state = _ShardState(plan_shards(spec, 1)[0])
    state.status = _RUNNING
    state.launched_t = 100.0
    state.last_beat = 100.0
    state.booted = False
    # 10 s after launch with no beat: way past the heartbeat deadline but
    # inside the boot deadline — NOT a stall (pre-fix this killed boots).
    assert supervisor._stall_reason(state, now=110.0) is None
    # Past the boot deadline without a first beat: a boot stall.
    assert "boot deadline" in supervisor._stall_reason(state, now=131.0)
    # Once booted, the heartbeat deadline runs from the last beat.
    state.booted = True
    state.last_beat = 200.0
    assert supervisor._stall_reason(state, now=200.4) is None
    assert "heartbeat deadline" in supervisor._stall_reason(state, now=200.6)


# --------------------------------------------------------------------- #
# Rollups
# --------------------------------------------------------------------- #


def _ok_device(i, life_h, trips=0, downtime=0.0):
    return {
        "device_id": f"d{i}",
        "ok": True,
        "completed": True,
        "battery_life_h": life_h,
        "delivered_j": 100.0,
        "n_steps": 10,
        "downtime_s": downtime,
        "incident_count": trips,
        "protection_trips": trips,
    }


def test_fleet_rollup_percentiles_and_accounting():
    devices = {f"d{i}": _ok_device(i, float(i + 1)) for i in range(10)}
    devices["d3"]["protection_trips"] = 2
    devices["dead"] = {"device_id": "dead", "ok": False, "error": "quarantined"}
    shards = [
        {"shard_id": 0, "status": "done", "attempts": 1, "retries": 0},
        {"shard_id": 1, "status": "done", "attempts": 3, "retries": 2},
        {"shard_id": 2, "status": "quarantined", "attempts": 4, "retries": 3},
    ]
    rollup = fleet_rollup(devices, shards)
    assert rollup["n_devices"] == 11
    assert rollup["n_ok"] == 10 and rollup["n_failed"] == 1
    assert rollup["coverage"] == pytest.approx(10 / 11)
    assert rollup["battery_life_h"]["p50"] == 5.0  # nearest-rank over 1..10
    assert rollup["battery_life_h"]["p90"] == 9.0
    assert rollup["battery_life_h"]["min"] == 1.0
    assert rollup["battery_life_h"]["max"] == 10.0
    assert rollup["protection_trip_rate"] == pytest.approx(0.1)
    assert rollup["protection_trips"] == 2
    assert rollup["shards"] == {
        "total": 3,
        "retried": 2,
        "quarantined": 1,
        "worker_restarts": 5,
    }


def test_percentile_nearest_rank():
    assert percentile([], 0.5) == 0.0
    assert percentile([4.0], 0.99) == 4.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0


# --------------------------------------------------------------------- #
# The shard worker, run in-process
# --------------------------------------------------------------------- #


def _worker_config(tmp_path, **extra):
    config = {
        "duration_s": 600.0,
        "dt_s": 10.0,
        "engine": "reference",
        "protection": "off",
        "checkpoint_dir": str(tmp_path),
        "checkpoint_every_s": 120.0,
        "heartbeat_every_s": 0.05,
        "attempt": 1,
    }
    config.update(extra)
    return config


def test_worker_runs_a_shard_and_records_every_device(tmp_path):
    spec = FleetSpec(population=(("phone-day", 3),), seed=2, **SMALL)
    shard = plan_shards(spec, 1)[0]
    beats = queue.Queue()
    code = run_shard_worker(shard.to_dict(), _worker_config(tmp_path), beats, None)
    assert code == EXIT_OK
    path = shard_checkpoint_path(str(tmp_path), 0)
    assert shard_is_done(path)
    completed = read_shard_completed(path)
    assert sorted(completed) == [d.device_id for d in shard.devices]
    for device in shard.devices:
        metrics = completed[device.device_id]
        assert metrics["ok"] and metrics["n_steps"] > 0
        assert metrics["seed"] == device.seed
        # The in-flight device checkpoint was cleaned up after completion.
        assert not (tmp_path / f"device-{device.device_id}.ckpt.json").exists()
    kinds = []
    while not beats.empty():
        kinds.append(beats.get()["kind"])
    assert kinds[0] == "started"
    assert "done" in kinds
    assert kinds.count("checkpoint") == 3


def test_worker_resume_skips_completed_devices(tmp_path):
    spec = FleetSpec(population=(("phone-day", 3),), seed=2, **SMALL)
    shard = plan_shards(spec, 1)[0]
    config = _worker_config(tmp_path)
    assert run_shard_worker(shard.to_dict(), config, queue.Queue(), None) == EXIT_OK
    path = shard_checkpoint_path(str(tmp_path), 0)
    first = read_shard_completed(path)

    # Re-running the same shard on the same directory re-runs nothing and
    # changes nothing — the metrics are byte-for-byte the ones on disk.
    beats = queue.Queue()
    assert run_shard_worker(shard.to_dict(), config, beats, None) == EXIT_OK
    assert read_shard_completed(path) == first
    kinds = [beats.get()["kind"] for _ in range(beats.qsize())]
    assert "checkpoint" not in kinds  # no device was (re-)emulated


def test_worker_resumes_mid_device_from_its_checkpoint(tmp_path):
    """Simulate death mid-device: a device checkpoint exists but the shard
    checkpoint does not record it. The next attempt resumes the device
    and its metrics equal an uninterrupted run's."""
    spec = FleetSpec(population=(("phone-day", 1),), seed=4, **SMALL)
    shard = plan_shards(spec, 1)[0]
    device = shard.devices[0]
    config = _worker_config(tmp_path)

    # Uninterrupted baseline, in a sibling directory.
    baseline_dir = tmp_path / "baseline"
    baseline_dir.mkdir()
    run_shard_worker(shard.to_dict(), _worker_config(baseline_dir), queue.Queue(), None)
    baseline = read_shard_completed(shard_checkpoint_path(str(baseline_dir), 0))

    # Partial run: abort deterministically mid-trace (the abort signal is
    # duck-typed — anything with ``is_set()`` works), leaving only the
    # device checkpoint written at t=120 s behind.
    class _AbortAfter:
        def __init__(self, n_checks):
            self.remaining = n_checks

        def is_set(self):
            self.remaining -= 1
            return self.remaining < 0

    partial = build_device_emulator(
        device,
        config,
        checkpoint_path=device_checkpoint_path(str(tmp_path), device.device_id),
        checkpoint_every_s=120.0,
    )
    partial.abort_signal = _AbortAfter(30)  # ~half of the 60 steps

    from repro.errors import EmulationAborted

    with pytest.raises(EmulationAborted):
        partial.run()
    assert (tmp_path / f"device-{device.device_id}.ckpt.json").exists()

    # The worker picks the device up from its snapshot and finishes it.
    assert run_shard_worker(shard.to_dict(), config, queue.Queue(), None) == EXIT_OK
    resumed = read_shard_completed(shard_checkpoint_path(str(tmp_path), 0))
    assert resumed == baseline


def _beats(q):
    return [q.get() for _ in range(q.qsize())]


def _run_serving_worker(shard, config, beats) -> int:
    """Run a serving worker in-process; return once its servicer thread,
    which the worker stops but does not join, has ended too."""
    code = run_shard_worker(shard.to_dict(), config, beats, None, queue.Queue(), queue.Queue())
    for thread in threading.enumerate():
        if thread.name.startswith("fleet-servicer-"):
            thread.join(timeout=5.0)
            assert not thread.is_alive()
    return code


def test_only_a_serving_worker_attaches_statuses_to_its_beats(tmp_path):
    """Offline beats carry no statuses (the supervisor has no cache to put
    them in); a serving worker's ``device_started`` beat carries the
    device's statuses. Both announce every device they start."""
    spec = FleetSpec(population=(("phone-day", 2),), seed=2, **SMALL)
    shard = plan_shards(spec, 1)[0]
    roster = [d.device_id for d in shard.devices]

    offline = queue.Queue()
    config = _worker_config(tmp_path / "offline")
    assert run_shard_worker(shard.to_dict(), config, offline, None) == EXIT_OK
    beats = _beats(offline)
    assert [b["device"] for b in beats if b["kind"] == "device_started"] == roster
    assert not any("statuses" in b for b in beats)

    serving = queue.Queue()
    config = _worker_config(tmp_path / "serving")
    assert _run_serving_worker(shard, config, serving) == EXIT_OK
    started = [b for b in _beats(serving) if b["kind"] == "device_started"]
    assert [b["device"] for b in started] == roster
    n_cells = len(build_device_emulator(shard.devices[0], config).controller.cells)
    assert all(len(b["statuses"]) == n_cells for b in started)


def test_a_resumed_device_is_first_published_in_its_checkpointed_state(tmp_path):
    """A serving worker restores a device's snapshot before anything
    publishes it: the first statuses published for the device are the
    checkpointed gauge state, and the freshly built state never is."""
    from repro.errors import EmulationAborted
    from repro.serve.protocol import status_to_wire

    spec = FleetSpec(population=(("phone-day", 1),), seed=4, **SMALL)
    shard = plan_shards(spec, 1)[0]
    device = shard.devices[0]
    config = _worker_config(tmp_path)
    path = device_checkpoint_path(str(tmp_path), device.device_id)

    class _AbortMidRun:
        checks = 30  # about half of the 60 steps

        def is_set(self):
            self.checks -= 1
            return self.checks < 0

    partial = build_device_emulator(device, config, checkpoint_path=path, checkpoint_every_s=120.0)
    partial.abort_signal = _AbortMidRun()
    with pytest.raises(EmulationAborted):
        partial.run()

    def statuses(emulator):
        return [status_to_wire(status) for status in emulator.runtime.query_status()]

    fresh = statuses(build_device_emulator(device, config))
    restored = build_device_emulator(device, config)
    assert restored.load_checkpoint(path).times_s
    checkpointed = statuses(restored)
    assert checkpointed != fresh

    beats = queue.Queue()
    assert _run_serving_worker(shard, config, beats) == EXIT_OK
    published = [b["statuses"] for b in _beats(beats) if b.get("device") == device.device_id and b.get("statuses")]
    assert published[0] == checkpointed
    assert fresh not in published


def test_worker_survives_a_corrupt_device_checkpoint(tmp_path):
    spec = FleetSpec(population=(("phone-day", 1),), seed=4, **SMALL)
    shard = plan_shards(spec, 1)[0]
    device = shard.devices[0]
    bad = tmp_path / f"device-{device.device_id}.ckpt.json"
    bad.write_text("definitely not a checkpoint")
    assert run_shard_worker(shard.to_dict(), _worker_config(tmp_path), queue.Queue(), None) == EXIT_OK
    completed = read_shard_completed(shard_checkpoint_path(str(tmp_path), 0))
    assert completed[device.device_id]["ok"]


def test_corrupt_shard_checkpoint_reads_as_empty(tmp_path):
    path = tmp_path / "shard-0000.ckpt.json"
    path.write_text("{broken")
    assert read_shard_completed(str(path)) == {}
    assert not shard_is_done(str(path))


def test_device_metrics_shape():
    spec = FleetSpec(population=(("watch-day", 1),), seed=6, **SMALL)
    device = spec.devices()[0]
    emulator = build_device_emulator(device, spec.config_dict())
    result = emulator.run()
    metrics = device_metrics(device, result)
    assert metrics["ok"] is True
    assert metrics["device_id"] == device.device_id
    assert metrics["n_steps"] == len(result.times_s)
    assert metrics["battery_life_h"] == result.battery_life_h
    import json

    assert json.loads(json.dumps(metrics)) == metrics  # JSON-safe


def test_device_spec_round_trip():
    device = DeviceSpec(device_id="watch-day-00000", scenario="watch-day", index=0, seed=42)
    assert DeviceSpec.from_dict(device.to_dict()) == device


# --------------------------------------------------------------------- #
# How the supervisor starts its workers
# --------------------------------------------------------------------- #


def _small_fleet(tmp_path, name, tracer):
    spec = FleetSpec(population=(("phone-day", 2), ("watch-day", 1)), seed=5, **SMALL)
    supervisor = FleetSupervisor(
        spec,
        str(tmp_path / name),
        n_shards=2,
        max_workers=2,
        retry=RetryPolicy(max_restarts=0, heartbeat_deadline_s=30.0),
        checkpoint_every_s=120.0,
        heartbeat_every_s=0.1,
        tracer=tracer,
    )
    return supervisor.run()


@pytest.mark.skipif(sys.platform != "linux", reason="workers are forked only on Linux")
def test_forked_and_spawned_workers_give_equal_results(tmp_path):
    """The same fleet, forked and then spawned through the real rule (a
    second thread alive across run() forces spawn), gives equal devices
    and rollups, and each run's fleet.start event names its method."""
    assert threading.active_count() == 1, threading.enumerate()
    forked_trace = Tracer()
    forked = _small_fleet(tmp_path, "forked", forked_trace)

    release = threading.Event()
    held = threading.Thread(target=release.wait, name="held-across-run")
    held.start()
    try:
        spawned_trace = Tracer()
        spawned = _small_fleet(tmp_path, "spawned", spawned_trace)
    finally:
        release.set()
        held.join(timeout=5.0)
    assert not held.is_alive()

    for tracer, method in ((forked_trace, "fork"), (spawned_trace, "spawn")):
        (start,) = tracer.events_named("fleet.start")
        assert start.fields["start_method"] == method
    assert forked.ok and spawned.ok
    assert forked.devices == spawned.devices
    assert forked.rollup == spawned.rollup


def test_start_method_spawns_for_a_bridge_a_second_thread_or_another_platform(tmp_path, monkeypatch):
    spec = FleetSpec(population=(("watch-day", 1),), seed=0, **SMALL)
    offline = FleetSupervisor(spec, str(tmp_path / "offline"))
    serving = FleetSupervisor(spec, str(tmp_path / "serving"), bridge=ServeBridge())
    monkeypatch.setattr(sys, "platform", "linux")
    assert threading.active_count() == 1, threading.enumerate()
    assert offline.start_method() == "fork"
    assert serving.start_method() == "spawn"

    release = threading.Event()
    held = threading.Thread(target=release.wait, name="held-during-check")
    held.start()
    try:
        assert offline.start_method() == "spawn"
    finally:
        release.set()
        held.join(timeout=5.0)
    assert not held.is_alive()

    for platform in ("darwin", "win32"):
        monkeypatch.setattr(sys, "platform", platform)
        assert offline.start_method() == "spawn"


def test_worker_main_resets_the_inherited_default_tracer(tmp_path):
    """A forked worker inherits the supervisor's default tracer; worker_main
    drops it, so the worker starts as a spawned one does and records
    nothing into a copy no one reads."""
    spec = FleetSpec(population=(("phone-day", 1),), seed=2, **SMALL)
    shard = plan_shards(spec, 1)[0]
    inherited = Tracer()
    with use_tracer(inherited):
        with pytest.raises(SystemExit) as exited:
            worker_main(shard.to_dict(), _worker_config(tmp_path), queue.Queue(), None)
        assert get_default_tracer() is NULL_TRACER
    assert exited.value.code == EXIT_OK
    assert inherited.records == [] and not inherited.counters


# --------------------------------------------------------------------- #
# A serving fleet
# --------------------------------------------------------------------- #


def test_a_serving_fleet_answers_a_fresh_status_long_before_its_first_heartbeat(tmp_path):
    """A shard publishes a device the moment it starts it, so with a 30 s
    heartbeat a fresh QueryBatteryStatus comes within 5 s of start(), and
    the supervisor traces the start. A full day at a 10 ms step keeps the
    device mid-run, so no final snapshot can answer instead."""
    import time

    from repro.serve import ServingFleet

    spec = FleetSpec(population=(("watch-day", 1),), seed=11, duration_s=24 * 3600.0, dt_s=0.01)
    device = spec.devices()[0].device_id
    tracer = Tracer()
    supervisor = FleetSupervisor(
        spec,
        str(tmp_path / "serving"),
        n_shards=1,
        max_workers=1,
        retry=RetryPolicy(max_restarts=0, heartbeat_deadline_s=120.0),
        heartbeat_every_s=30.0,
        tracer=tracer,
        bridge=ServeBridge(),
    )
    serving = ServingFleet(supervisor)
    front = serving.front_end
    t0 = time.monotonic()
    serving.start()
    try:
        answer = front.handle(front.make_request("QueryBatteryStatus", device))
        while not answer.ok and time.monotonic() - t0 < 5.0:
            assert answer.error == "not_running", answer
            time.sleep(0.01)
            answer = front.handle(front.make_request("QueryBatteryStatus", device))
        waited_s = time.monotonic() - t0
    finally:
        serving.stop()
    assert answer.ok and not answer.degraded, answer
    assert waited_s < 5.0
    assert not answer.result["completed"]
    (started,) = tracer.events_named("fleet.device_started")
    assert started.fields["device"] == device
    assert (started.fields["shard"], started.fields["attempt"], started.fields["from_step"]) == (0, 1, 0)
    assert 0.0 < started.fields["since_launch_s"] < waited_s
    # The bridge's router ends once the run closes it: later tests may
    # fork their fleets again.
    deadline = time.monotonic() + 5.0
    while threading.active_count() > 1 and time.monotonic() < deadline:
        time.sleep(0.05)
    assert threading.active_count() == 1, threading.enumerate()
