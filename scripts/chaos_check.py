#!/usr/bin/env python
"""End-to-end chaos checks: the four SDB calls survive kills, partitions, replays.

Usage::

    python scripts/chaos_check.py CHECK [--out DIR]

Each ``CHECK`` is one entry of the CI ``chaos`` matrix job and leaves its
artifacts (``*.json`` and ``*.jsonl``, plus checkpoint directories) in
``--out``, by default ``chaos-out/CHECK``:

``supervised-smoke``
    For each engine: launch ``repro supervise watch-day`` with a
    checkpoint and a replay manifest, SIGKILL it as soon as its first
    ``repro.ckpt/v3`` checkpoint lands, re-invoke the identical command
    (it resumes from the surviving checkpoint and records the manifest),
    and ``repro replay`` that manifest, which re-runs the scenario from
    scratch and demands bit-for-bit equality. See docs/checkpointing.md.
``chaos-protection``
    ``repro chaos --preset gauge-storm --protection enforce`` must trace
    ``protection.*`` events. Then, for each engine, ``gauge-fault-tablet``
    freezes the base battery's gauge ten minutes in; under enforcement
    the estimator council must flag it and the manager derate it, a
    recorded ``repro.replay/v1`` manifest must replay bit-for-bit, and a
    run resumed from a checkpoint taken while the derate is active must
    match the uninterrupted run exactly.
``vdag-tenants``
    For each engine, ``tenants-tablet`` shares the tablet pack between
    two tenants; ``sync`` triples its claimed draw an hour in. It (and
    only it) must be throttled and exhaust its reserve, in the DAG and
    as ``vdag.*`` events in the JSONL trace; no tenant may consume past
    its reserve; a run resumed from a checkpoint taken while the
    throttle is active must match exactly; and both engines must agree
    (the vectorized engine routes the load shaper through the reference
    loop).
``fleet-chaos``
    Three ``repro fleet`` legs over 200 devices: *clean* sets the
    reference; *chaos* SIGKILLs one shard's worker after its first
    durable shard checkpoint, and must recover (exit 0, full coverage,
    ``fleet.restart`` and an exit ``-9`` ``fleet.worker_exit`` in the
    trace) to per-device metrics and rollups equal to the clean run's;
    *quarantine* kills beyond the retry budget and must degrade, not
    crash: exit 1, a quarantined shard, and a coverage strictly between
    0 and 1. See docs/fleet.md.
``serve-chaos``
    A live ``ServingFleet`` (one device per shard) under scripted HTTP
    traffic, with one shard's worker SIGKILLed: reads of its device keep
    answering 200 from the cache flagged ``degraded`` while the other
    shard reads fresh; mutations time out (504) until the breaker opens,
    then fail fast (503 with retry advice); the worker restarts, a
    half-open probe closes the breaker and reads are fresh again; the
    breaker's closed -> open -> half_open -> closed arc is in the trace,
    as is a ``fleet.device_started`` of the victim device by the restarted
    worker; and no answer is an HTTP 500 or a non-JSON body. See
    docs/serving.md.
``directory-chaos``
    The seeded partition-and-heal cycle of :mod:`repro.net.chaos`, twice:
    degraded reads with growing ``stale_s``, fail-fast mutations, the
    ``live -> suspect -> live`` lease arc of node-b in the trace, a
    healed read equal to the node's own, and a replayed mutation
    applied exactly once; the second run must pass the same checks and
    inject the same fault kinds. See docs/networking.md.

A failed assertion exits 1 and is named on the last stderr line. The
serve and directory checks run under a wall-clock watchdog that exits 3.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro import units  # noqa: E402
from repro.checkpoint.format import read_checkpoint  # noqa: E402
from repro.fleet import FleetSpec, FleetSupervisor, parse_population  # noqa: E402
from repro.net.chaos import cycle_ok, run_partition_cycle  # noqa: E402
from repro.obs import Tracer, export  # noqa: E402
from repro.obs.scenarios import build_scenario  # noqa: E402
from repro.replay import build_manifest, recorded_metrics, replay, write_manifest  # noqa: E402
from repro.retry import RetryPolicy  # noqa: E402
from repro.serve import ServeBridge, ServeConfig, ServingFleet  # noqa: E402

ENGINES = ("reference", "vectorized")
CHILD_ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}
#: Hard wall-clock budgets for the checks that drive live servers.
WATCHDOG_S = {"serve-chaos": 300.0, "directory-chaos": 120.0}
#: Emulation step of the in-process scenario runs.
SCENARIO_DT_S = 10.0


class CheckFailed(Exception):
    """An end-to-end assertion did not hold."""


def require(ok, message: str) -> None:
    """Fail the check with ``message`` unless ``ok``."""
    if not ok:
        raise CheckFailed(message)


def repro_cmd(*args: str) -> list:
    return [sys.executable, "-m", "repro", *args]


def run_repro(*args: str, expect_exit: int = 0) -> None:
    """Run ``python -m repro ARGS`` to completion and require its exit code."""
    proc = subprocess.run(repro_cmd(*args), env=CHILD_ENV, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != expect_exit:
        sys.stderr.write(proc.stderr)
        raise CheckFailed(f"`repro {args[0]}` exited {proc.returncode}, expected {expect_exit}")


def load_trace(path: pathlib.Path) -> list:
    return export.load_jsonl(path.read_text())


def exported(tracer: Tracer, path: pathlib.Path) -> list:
    """Write ``tracer`` to ``path`` as JSONL and return the records read back."""
    export.write_jsonl(tracer, path)
    return load_trace(path)


def events(records: list, name: str, **match) -> list:
    """Fields of the ``name`` trace events whose fields include ``match``."""
    return [
        r["fields"]
        for r in records
        if r["kind"] == "event" and r["name"] == name and all(r["fields"].get(k) == v for k, v in match.items())
    ]


def wait_for(what: str, predicate, deadline_s: float = 60.0, every_s: float = 0.1) -> None:
    t0 = time.monotonic()
    while time.monotonic() - t0 < deadline_s:
        if predicate():
            return
        time.sleep(every_s)
    raise CheckFailed(f"timed out after {deadline_s:.0f} s waiting for {what}")


def both_engines(check_one, out: pathlib.Path) -> dict:
    """Run ``check_one(engine, out)`` for each engine; {engine: result}."""
    return {engine: check_one(engine, out) for engine in ENGINES}


def check_resume(scenario: str, engine: str, out: pathlib.Path, baseline: dict, every_s: float, **kwargs) -> dict:
    """Checkpoint-resume bit-identity for one in-process scenario run.

    Re-runs ``scenario`` writing a ``repro.ckpt/v3`` checkpoint every
    ``every_s`` simulated seconds, then resumes a fresh emulator from
    the last one; both runs must reproduce ``baseline`` exactly. Returns
    the checkpoint payload so the caller can assert the state it holds.
    """
    ckpt = out / f"{scenario}-{engine}.ckpt.json"
    checkpointed = build_scenario(scenario, engine=engine, dt_s=SCENARIO_DT_S, **kwargs)
    checkpointed.checkpoint_path = str(ckpt)
    checkpointed.checkpoint_every_s = every_s
    require(recorded_metrics(checkpointed.run()) == baseline, f"[{engine}] enabling checkpoints perturbed the run")
    payload = read_checkpoint(str(ckpt))
    resumed = build_scenario(scenario, engine=engine, dt_s=SCENARIO_DT_S, **kwargs)
    require(
        recorded_metrics(resumed.run(resume_from=str(ckpt))) == baseline,
        f"[{engine}] resume from the t={payload['sim_t_s']:.0f} s checkpoint is NOT bit-identical",
    )
    print(f"[{engine}] resume from t={payload['sim_t_s']:.0f} s matched the uninterrupted run")
    return payload


# --------------------------------------------------------------------- #
# supervised-smoke
# --------------------------------------------------------------------- #

#: Small enough that the kill lands mid-run.
SMOKE_DT_S = 1.0


def smoke_one_engine(engine: str, out: pathlib.Path) -> None:
    ckpt = out / f"watch-day-{engine}.ckpt.json"
    manifest = out / f"watch-day-{engine}.replay.json"
    args = ("supervise", "watch-day", "--engine", engine, "--dt", str(SMOKE_DT_S),
            "--checkpoint", str(ckpt), "--manifest", str(manifest))

    print(f"[{engine}] supervised run started (SIGKILL incoming)")
    victim = subprocess.Popen(
        repro_cmd(*args), env=CHILD_ENV, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    try:
        wait_for("the first checkpoint", lambda: ckpt.exists() or victim.poll() is not None, 300.0, 0.005)
    finally:
        killed = victim.poll() is None
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60.0)
    if killed:
        print(f"[{engine}] SIGKILLed pid {victim.pid} mid-run")
    else:
        # The run outraced the kill; the resume path below still re-runs
        # from the leftover checkpoint, but flag it so a chronically fast
        # runner gets noticed and the dt lowered.
        print(f"[{engine}] WARNING: run finished before the kill landed")
    require(ckpt.exists(), f"[{engine}] the atomic checkpoint did not survive the SIGKILL")

    print(f"[{engine}] resuming from {ckpt.name}")
    run_repro(*args)
    require(manifest.exists(), f"[{engine}] resumed run recorded no replay manifest")
    print(f"[{engine}] replaying {manifest.name} from scratch")
    # Exit 1 here means the killed-and-resumed run is NOT bit-identical
    # to an uninterrupted one.
    run_repro("replay", str(manifest))
    print(f"[{engine}] OK: resume was bit-identical to an uninterrupted run")


def supervised_smoke(out: pathlib.Path) -> None:
    both_engines(smoke_one_engine, out)


# --------------------------------------------------------------------- #
# chaos-protection
# --------------------------------------------------------------------- #

PROTECTION_SCENARIO = "gauge-fault-tablet"
FAULTED_BATTERY = 1
#: Cadence chosen so exactly one checkpoint lands mid-run, hours after
#: the derate engaged and hours before the trace ends.
PROTECTION_CHECKPOINT_EVERY_S = 9000.0


def protection_one_engine(engine: str, out: pathlib.Path) -> None:
    print(f"[{engine}] full run under --protection enforce")
    emulator = build_scenario(PROTECTION_SCENARIO, engine=engine, dt_s=SCENARIO_DT_S, protection="enforce")
    result = emulator.run()
    baseline = recorded_metrics(result)

    kinds = {(i.kind, i.battery_index) for i in emulator.runtime.protection.incidents}
    require(("council-flag", FAULTED_BATTERY) in kinds, f"[{engine}] the council never flagged the stuck gauge")
    require(("protect-derate", FAULTED_BATTERY) in kinds, f"[{engine}] no derate was applied to the faulted battery")
    print(f"[{engine}] council flagged and derated battery {FAULTED_BATTERY}")

    manifest = out / f"{PROTECTION_SCENARIO}-{engine}.replay.json"
    write_manifest(
        str(manifest),
        build_manifest(emulator, result, scenario=PROTECTION_SCENARIO, protection="enforce"),
    )
    report = replay(str(manifest))
    for diff in report.diffs:
        print(f"  {diff}", file=sys.stderr)
    require(report.matched, f"[{engine}] from-scratch replay is NOT bit-identical")
    print(f"[{engine}] from-scratch replay matched bit-for-bit")

    payload = check_resume(
        PROTECTION_SCENARIO, engine, out, baseline, PROTECTION_CHECKPOINT_EVERY_S, protection="enforce"
    )
    derating = payload["controller"]["protection_derating"]
    require(
        derating[FAULTED_BATTERY] < 1.0,
        f"[{engine}] checkpoint at t={payload['sim_t_s']} carries no active derate (protection_derating={derating})",
    )
    require(payload["runtime"]["protection"] is not None, f"[{engine}] checkpoint carries no protection state")
    print(f"[{engine}] OK: the checkpoint carried the active derate {derating}")


def chaos_protection(out: pathlib.Path) -> None:
    trace = out / "chaos-protection.trace.jsonl"
    run_repro("chaos", "--preset", "gauge-storm", "--protection", "enforce", "--trace", str(trace))
    protection = [r["name"] for r in load_trace(trace) if r["kind"] == "event" and r["name"].startswith("protection.")]
    require(protection, "no protection.* events in the chaos trace")
    print(f"{len(protection)} protection events in the trace: {', '.join(sorted(set(protection)))}")
    both_engines(protection_one_engine, out)


# --------------------------------------------------------------------- #
# vdag-tenants
# --------------------------------------------------------------------- #

VDAG_SCENARIO = "tenants-tablet"
#: Cadence chosen so one checkpoint lands while the rogue tenant is
#: throttled but before its reserve runs dry.
VDAG_CHECKPOINT_EVERY_S = 2 * 3600.0


def vdag_one_engine(engine: str, out: pathlib.Path) -> dict:
    print(f"[{engine}] full traced run of {VDAG_SCENARIO}")
    tracer = Tracer()
    emulator = build_scenario(VDAG_SCENARIO, engine=engine, dt_s=SCENARIO_DT_S, tracer=tracer)
    baseline = recorded_metrics(emulator.run())

    dag = emulator.runtime.dag
    sync, ui = dag.node("sync"), dag.node("ui")
    require(sync.throttled and sync.exhausted, f"[{engine}] the rogue tenant was never throttled/exhausted")
    require(not (ui.throttled or ui.exhausted), f"[{engine}] the well-behaved tenant was penalized")
    for tenant in dag.splitters[0].tenants:
        require(
            tenant.consumed_j <= tenant.reserved_j + 1e-6,
            f"[{engine}] tenant {tenant.name!r} consumed {tenant.consumed_j:.0f} J "
            f"of a {tenant.reserved_j:.0f} J reserve",
        )
    kinds = {i.kind for i in dag.incidents}
    require({"tenant-throttle", "tenant-exhausted"} <= kinds, f"[{engine}] missing tenant incidents; got {sorted(kinds)}")
    print(f"[{engine}] sync throttled and exhausted; budgets held")

    trace = out / f"{VDAG_SCENARIO}-{engine}.trace.jsonl"
    records = exported(tracer, trace)
    for required in ("vdag.throttle", "vdag.exhausted", "runtime.ratio_decision"):
        require(events(records, required), f"[{engine}] JSONL trace has no {required!r} event")
    offenders = {fields["tenant"] for fields in events(records, "vdag.throttle")}
    require(offenders == {"sync"}, f"[{engine}] throttled the wrong tenant(s): {sorted(offenders)}")
    print(f"[{engine}] vdag.* events in {trace.name}, every throttle on sync")

    payload = check_resume(VDAG_SCENARIO, engine, out, baseline, VDAG_CHECKPOINT_EVERY_S)
    vdag_state = payload["runtime"]["vdag"]
    require(vdag_state is not None, f"[{engine}] checkpoint carries no DAG state")
    require(
        vdag_state["splitters"]["contracts"]["tenants"]["sync"]["throttled"],
        f"[{engine}] checkpoint at t={payload['sim_t_s']} landed outside the throttle window",
    )
    print(f"[{engine}] OK: the checkpoint carried the active throttle")
    return baseline


def vdag_tenants(out: pathlib.Path) -> None:
    baselines = both_engines(vdag_one_engine, out)
    require(baselines["reference"] == baselines["vectorized"], "engines disagree on the tenant scenario")


# --------------------------------------------------------------------- #
# fleet-chaos
# --------------------------------------------------------------------- #

#: 200 devices across the three platform scenarios; a short simulated
#: window keeps each device cheap while leaving enough devices per shard
#: for the kill to land strictly mid-shard.
FLEET_ARGS = (
    "phone-day=100,watch-day=60,tablet-day=40", "--shards", "4", "--seed", "7",
    "--duration-h", "0.1", "--dt", "5", "--every-h", "0.02", "--base-delay-s", "0.1",
)


def fleet_leg(out: pathlib.Path, name: str, *extra: str, expect_exit: int = 0) -> dict:
    summary = out / f"{name}.summary.json"
    print(f"[{name}] repro fleet {' '.join(extra)}")
    run_repro(
        "fleet", *FLEET_ARGS, "--checkpoint-dir", str(out / f"{name}.ckpt.d"), "--summary", str(summary),
        *extra, expect_exit=expect_exit,
    )
    require(summary.exists(), f"[{name}] no summary artifact at {summary}")
    return json.loads(summary.read_text())


def fleet_chaos(out: pathlib.Path) -> None:
    clean = fleet_leg(out, "clean")
    require(clean["rollup"]["coverage"] == 1.0, "[clean] expected 100% coverage")
    n_devices = clean["rollup"]["n_devices"]
    require(n_devices >= 200, f"[clean] expected >= 200 devices, planned {n_devices}")

    trace = out / "chaos.trace.jsonl"
    chaos = fleet_leg(out, "chaos", "--chaos", "kill-worker", "--trace", str(trace))
    shards = chaos["rollup"]["shards"]
    require(chaos["rollup"]["coverage"] == 1.0, "[chaos] recovery left coverage below 100%")
    require(
        shards["retried"] >= 1 and shards["worker_restarts"] >= 1, "[chaos] no shard was retried — the kill never landed"
    )
    require(shards["quarantined"] == 0, "[chaos] a recoverable kill must not quarantine")
    records = load_trace(trace)
    for required in ("fleet.start", "fleet.worker_start", "fleet.restart", "fleet.rollup"):
        require(events(records, required), f"[chaos] no {required} event in the JSONL trace")
    require(events(records, "fleet.worker_exit", exitcode=-9), "[chaos] no SIGKILL (exit -9) worker_exit in the trace")
    require(
        chaos["devices"] == clean["devices"],
        "[chaos] per-device metrics differ from the clean run — crash recovery is NOT bit-identical",
    )
    for key, value in clean["rollup"].items():
        require(
            key == "shards" or chaos["rollup"][key] == value, f"[chaos] rollup field {key!r} differs from the clean run"
        )
    print(
        f"[chaos] OK: {n_devices} devices, worker SIGKILLed and recovered "
        f"({shards['worker_restarts']} restart(s)), bit-identical rollups"
    )

    quarantine = fleet_leg(
        out, "quarantine", "--chaos", "kill-worker", "--chaos-kills", "99", "--max-restarts", "2", expect_exit=1
    )
    q_rollup = quarantine["rollup"]
    require(q_rollup["shards"]["quarantined"] >= 1, "[quarantine] summary reports no quarantined shard")
    require(0.0 < q_rollup["coverage"] < 1.0, f"[quarantine] expected partial coverage, got {q_rollup['coverage']}")
    print(
        f"[quarantine] OK: degraded to {q_rollup['coverage']:.1%} coverage with "
        f"{q_rollup['shards']['quarantined']} quarantined shard(s), exit 1"
    )


# --------------------------------------------------------------------- #
# serve-chaos
# --------------------------------------------------------------------- #

#: One device per shard: the SIGKILL maps to exactly one served device,
#: and the other shard stays up as the isolation witness.
SERVE_POPULATION = "watch-day=2"
SERVE_SHARDS = 2
#: A full simulated day at a 10 ms step is minutes of emulation work per
#: device on any machine: every device stays mid-flight for the whole
#: (short) wall-clock life of this check, and ``stop()`` cancels the
#: remainder.
SERVE_DURATION_H = 24.0
SERVE_DT_S = 0.01


class HttpClient:
    """Scripted JSON traffic that counts every status and unhandled answer."""

    def __init__(self, base: str):
        self.base = base
        self.status_counts: dict = {}
        #: Any HTTP 500 or non-JSON body; one fails the check.
        self.unhandled: list = []

    def call(self, path: str, body: dict = None, timeout: float = 5.0):
        """GET (or POST ``body``) one request; every answer must parse as JSON."""
        url = self.base + path
        data = None if body is None else json.dumps(body).encode()
        req = urllib.request.Request(url, data=data, headers={"Content-Type": "application/json"} if data else {})
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                status, raw = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            status, raw = exc.code, exc.read()
        self.status_counts[status] = self.status_counts.get(status, 0) + 1
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError:
            self.unhandled.append(f"non-JSON body from {url} (HTTP {status})")
            payload = {}
        if status == 500:
            self.unhandled.append(f"HTTP 500 from {url}: {payload.get('message')}")
        return status, payload

    def shard(self, shard: int) -> dict:
        for entry in self.call("/healthz")[1].get("shards", ()):
            if entry["shard"] == shard:
                return entry
        raise CheckFailed(f"shard {shard} missing from /healthz")

    def fresh(self, device: str) -> bool:
        payload = self.call(f"/v1/status/{device}")[1]
        return bool(payload.get("ok")) and not payload.get("degraded")

    def degraded(self, device: str) -> bool:
        status, payload = self.call(f"/v1/status/{device}")
        return status == 200 and bool(payload.get("ok")) and bool(payload.get("degraded"))


def serving_fleet(out: pathlib.Path, tracer: Tracer) -> ServingFleet:
    spec = FleetSpec(
        population=parse_population(SERVE_POPULATION),
        seed=11,
        duration_s=SERVE_DURATION_H * units.SECONDS_PER_HOUR,
        dt_s=SERVE_DT_S,
    )
    supervisor = FleetSupervisor(
        spec,
        str(out / "serve.ckpt.d"),
        n_shards=SERVE_SHARDS,
        # Explicit: the default caps at os.cpu_count(), which would leave
        # shards waiting (and never "healthy") on single-core CI runners.
        max_workers=SERVE_SHARDS,
        # A real restart delay: with an instant relaunch the outage would
        # be over before the breaker (2 failures at 0.4 s deadlines) ever
        # opens, and the degraded-read window would be unobservable.
        retry=RetryPolicy(max_restarts=3, base_delay_s=4.0, heartbeat_deadline_s=5.0),
        checkpoint_every_s=3600.0,
        heartbeat_every_s=0.2,
        tracer=tracer,
        bridge=ServeBridge(),
    )
    config = ServeConfig(
        capacity=32, default_timeout_s=1.0, stale_after_s=1.0, breaker_failures=2, breaker_reset_s=1.0
    )
    return ServingFleet(supervisor, config=config, tracer=tracer)


def serve_traffic(serving: ServingFleet, http: HttpClient) -> dict:
    """Baseline, SIGKILL, outage and recovery; returns the outage tallies."""
    # ---- baseline: everything boots, reads go fresh, writes land ----
    wait_for("all shards healthy", lambda: all(s["healthy"] for s in http.call("/healthz")[1]["shards"]))
    devices = http.call("/v1/devices")[1]["devices"]
    require(len(devices) == SERVE_SHARDS, f"expected {SERVE_SHARDS} devices, got {devices}")
    victim = next(d for d in devices if serving.bridge.shard_for(d) == 0)
    witness = next(d for d in devices if serving.bridge.shard_for(d) != 0)
    for device in (victim, witness):
        wait_for(f"a fresh read of {device}", lambda d=device: http.fresh(d))
    status, payload = http.call(f"/v1/charge/{victim}", {"ratios": [0.5, 0.5]})
    require(status == 200 and payload.get("ok"), f"baseline SetCharge failed: HTTP {status} {payload}")
    print(f"[baseline] {len(devices)} devices fresh; SetCharge on {victim} ok")

    # ---- outage: SIGKILL shard 0's worker mid-traffic ----
    pid = http.shard(0)["pid"]
    os.kill(pid, signal.SIGKILL)
    print(f"[outage] SIGKILLed shard 0 worker (pid {pid})")
    tally = {"devices": devices, "victim_device": victim, "killed_pid": pid,
             "degraded_reads": 0, "deadline_misses": 0, "breaker_fast_fails": 0}

    def breaker_open() -> bool:
        # Mutations against the dead shard: 504 at the deadline while
        # the breaker counts failures, then instant 503 once open.
        status, payload = http.call(f"/v1/charge/{victim}", {"ratios": [0.5, 0.5], "timeout_s": 0.4})
        if status == 504:
            tally["deadline_misses"] += 1
        elif status == 503 and payload.get("error") == "unavailable":
            tally["breaker_fast_fails"] += 1
        # Reads keep answering from the cache, flagged degraded.
        tally["degraded_reads"] += http.degraded(victim)
        return http.shard(0)["breaker"]["state"] == "open"

    wait_for("the circuit breaker to open", breaker_open, deadline_s=30.0)
    require(tally["deadline_misses"] >= 1, "breaker opened without any observed 504 deadline miss")
    t0 = time.monotonic()
    status, payload = http.call(f"/v1/charge/{victim}", {"ratios": [0.5, 0.5], "timeout_s": 5.0})
    fast_fail_s = time.monotonic() - t0
    require(
        status == 503 and payload.get("error") == "unavailable", f"open breaker did not fail fast: HTTP {status} {payload}"
    )
    require(
        payload.get("retryable") and payload.get("retry_after_s") is not None,
        f"fail-fast answer is not retryable advice: {payload}",
    )
    require(fast_fail_s <= 1.0, f"fail-fast took {fast_fail_s:.2f} s — burned the deadline")
    tally["breaker_fast_fails"] += 1
    tally["degraded_reads"] += http.degraded(victim)
    require(tally["degraded_reads"] >= 1, "no degraded (stale-flagged) reads during the outage")
    status, payload = http.call(f"/v1/status/{witness}")
    require(status == 200 and payload.get("ok"), f"healthy shard's read failed during the outage: HTTP {status}")
    print(
        f"[outage] {tally['degraded_reads']} degraded read(s), {tally['deadline_misses']} deadline "
        f"miss(es), {tally['breaker_fast_fails']} fast-fail(s), fail-fast in {fast_fail_s * 1000:.0f} ms"
    )

    # ---- recovery: restart, half-open probe, breaker closes ----
    def recovered() -> bool:
        status, payload = http.call(f"/v1/charge/{victim}", {"ratios": [0.5, 0.5], "timeout_s": 1.0})
        return status == 200 and bool(payload.get("ok"))

    wait_for("SetCharge to succeed again", recovered, deadline_s=60.0, every_s=0.3)
    wait_for(
        "the breaker to close and the shard to report healthy",
        lambda: (lambda s: s["healthy"] and s["breaker"]["state"] == "closed")(http.shard(0)),
        deadline_s=30.0,
    )
    wait_for(f"a fresh post-recovery read of {victim}", lambda: http.fresh(victim), deadline_s=30.0)
    print("[recovery] worker restarted, breaker closed, reads fresh again")
    return tally


def serve_chaos(out: pathlib.Path) -> None:
    tracer = Tracer()
    serving = serving_fleet(out, tracer).start()
    http = HttpClient(serving.address)
    print(f"[serve] answering on {http.base}")
    try:
        tally = serve_traffic(serving, http)
    finally:
        serving.stop()

    # ---- the contract on every answer: typed JSON, never a 500 ----
    for line in http.unhandled:
        print(f"[unhandled] {line}", file=sys.stderr)
    require(not http.unhandled, f"{len(http.unhandled)} unhandled error(s) across scripted traffic")

    # ---- the breaker lifecycle must be visible in the JSONL trace ----
    records = exported(tracer, out / "serve-chaos.trace.jsonl")
    transitions = [(f["from_state"], f["to_state"]) for f in events(records, "serve.breaker", shard=0)]
    for leg in (("closed", "open"), ("open", "half_open"), ("half_open", "closed")):
        require(leg in transitions, f"breaker transition {leg[0]} -> {leg[1]} missing from the trace (saw {transitions})")
    restarts = events(records, "fleet.restart")
    require(restarts, "no fleet.restart recovery event in the trace")
    republished = [
        f for f in events(records, "fleet.device_started", shard=0, device=tally["victim_device"]) if f["attempt"] >= 2
    ]
    require(republished, "the restarted shard 0 worker did not start (and republish) the victim device")

    summary = {
        **tally,
        "http_status_counts": {str(k): v for k, v in sorted(http.status_counts.items())},
        "breaker_transitions": transitions,
        "worker_restarts": len(restarts),
    }
    (out / "serve-chaos.summary.json").write_text(json.dumps(summary, indent=2))
    print(
        f"{sum(http.status_counts.values())} requests, statuses "
        f"{summary['http_status_counts']}, breaker {transitions}"
    )


# --------------------------------------------------------------------- #
# directory-chaos
# --------------------------------------------------------------------- #

DIRECTORY_SEED = 7


def directory_chaos(out: pathlib.Path) -> None:
    failures = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        print(f"  {'ok' if ok else 'FAIL':4s} {name}" + (f"  ({detail})" if detail else ""))
        if not ok:
            failures.append(name)

    print(f"== partition-and-heal cycle (seed {DIRECTORY_SEED}) ==")
    tracer = Tracer()
    summary = run_partition_cycle(seed=DIRECTORY_SEED, tracer=tracer)
    for name, passed in summary["checks"].items():
        check(name, bool(passed))

    print("== trace evidence ==")
    records = exported(tracer, out / "directory-chaos-trace.jsonl")
    edges = [(f["from"], f["to"]) for f in events(records, "net.lease", node="node-b")]
    check("lease live->suspect in trace", ("live", "suspect") in edges, f"edges: {edges}")
    check("lease suspect->live in trace", ("suspect", "live") in edges, f"edges: {edges}")
    kinds = {f["kind"] for f in events(records, "net.fault")}
    check("partition faults injected", "partition" in kinds)
    samples = summary["stale_samples"]
    check("stale_s strictly grows", all(b > a for a, b in zip(samples, samples[1:])), f"samples: {samples}")
    check(
        "mutation applied exactly once",
        summary.get("replay_applications") == 1,
        f"applications: {summary.get('replay_applications')}, "
        f"node replays: {summary.get('replay_node_replays')}",
    )

    print("== determinism (same seed, second run) ==")
    tracer2 = Tracer()
    summary2 = run_partition_cycle(seed=DIRECTORY_SEED, tracer=tracer2)
    check("second run passes the same checks", cycle_ok(summary2))
    # Tick *counts* inside a window wobble with wall-clock jitter, so
    # determinism is asserted structurally: same fault vocabulary, same
    # canonical lease arc — not identical event-for-event timelines.
    records2 = export.load_jsonl(export.to_jsonl(tracer2))
    kinds2 = {f["kind"] for f in events(records2, "net.fault")}
    check("same fault kinds injected", kinds == kinds2, f"{sorted(kinds)} vs {sorted(kinds2)}")
    edges2 = [(f["from"], f["to"]) for f in events(records2, "net.lease", node="node-b")]
    check(
        "same canonical lease arc",
        ("live", "suspect") in edges2 and ("suspect", "live") in edges2,
        f"edges: {edges2}",
    )

    (out / "directory-chaos-summary.json").write_text(
        json.dumps({"run1": summary, "run2": summary2}, indent=2, sort_keys=True) + "\n"
    )
    require(not failures, f"{len(failures)} check(s) failed: {', '.join(failures)}")


# --------------------------------------------------------------------- #

#: The CI ``chaos`` job's matrix runs exactly these, one entry each.
CHECKS = {
    "supervised-smoke": supervised_smoke,
    "chaos-protection": chaos_protection,
    "vdag-tenants": vdag_tenants,
    "fleet-chaos": fleet_chaos,
    "serve-chaos": serve_chaos,
    "directory-chaos": directory_chaos,
}


def arm_watchdog(check: str, budget_s: float) -> None:
    """Kill the process hard if the check outlives its wall-clock budget.

    ``os._exit`` on purpose: a hung accept loop, a wedged pump thread or
    a worker stuck in boot cannot be joined politely, and a fast red job
    beats a slow hung one that stalls until the runner-level timeout.
    """

    def _fire() -> None:
        print(f"WATCHDOG: {check} exceeded {budget_s:.0f} s")
        os._exit(3)

    timer = threading.Timer(budget_s, _fire)
    timer.daemon = True
    timer.start()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("check", choices=list(CHECKS))
    parser.add_argument("--out", help="artifact directory (default chaos-out/CHECK)")
    args = parser.parse_args(argv)
    # Line-buffered, so progress interleaves in order with child output.
    sys.stdout.reconfigure(line_buffering=True)
    out = pathlib.Path(args.out or f"chaos-out/{args.check}")
    out.mkdir(parents=True, exist_ok=True)
    # A fresh run every time: a stale checkpoint would make a leg resume
    # (devices already completed, a kill that never lands) instead of run.
    for stale in out.glob("*.ckpt*"):
        shutil.rmtree(stale) if stale.is_dir() else stale.unlink()
    if args.check in WATCHDOG_S:
        arm_watchdog(args.check, WATCHDOG_S[args.check])
    try:
        CHECKS[args.check](out)
    except CheckFailed as exc:
        print(f"{args.check} FAILED: {exc}", file=sys.stderr)
        return 1
    print(f"{args.check} passed; artifacts in {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
