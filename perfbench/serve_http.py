"""``serve-http``: the four SDB calls over HTTP against a live fleet.

Why: SDB callers wait for each reply, so load is a closed loop of
:data:`~perfbench.common.CLIENTS` clients, each on one persistent
HTTP/1.1 connection, as pooling clients keep them; a client that
reconnected per request would hide the stall that lives on kept-open
connections. Reads touch only admission and the status cache; mutations
add the bridge queues and the shard worker, so a gain for one kind that
costs the other shows. One shard with one worker leaves a core for the
front end and the clients; its one device is held mid-emulation all run
by a 10 ms step over a full day.

Set-up is ``ServingFleet.start()`` until the shard is healthy and the
status cache holds the device; it is timed :data:`SETUPS` times per run,
each after a reference sample (:mod:`perfbench.machine`). Until the
shard is healthy the worker spawns and boots, which is CPU-bound and is
reported at the reference speed; the rest is the wait for the first
status publish, one heartbeat period, and is reported raw. The request
rate is set by the stall on kept-open connections, not by the CPU, and
is reported raw.

The held worker appends to its time series at every step and runs its
steps unpaced, so its memory grows with emulation speed times run time,
not with serving. The gated ``peak_rss_mb`` is therefore this process
alone; the worker's peak is printed as ``worker_peak_rss_mb``.
"""

from __future__ import annotations

import http.client
import json
import time
from contextlib import nullcontext
from typing import List, Optional, Tuple

from repro.emulator.devices import build_controller
from repro.fleet import FleetSpec, FleetSupervisor
from repro.obs import NULL_TRACER, Tracer
from repro.serve import ServeBridge, ServeConfig, ServingFleet

from .common import Call, CheckFailed, RunResult, call_report, closed_loop, derive_seed, fresh_dir, mean_latency
from .env import is_loopback
from .fleet_day import cli_retry_policy
from .machine import MachineSpeed
from .perlayer import TRACE_HEADER
from .stats import http_outcome

POPULATION = (("watch-day", 1),)
N_CELLS = build_controller("watch").n
DT_S = 0.01
SETUPS = 5
_ROUTES = {"SetCharge": "charge", "SetDischarge": "discharge", "SelectChargingProfile": "profile"}


def start(seed: int, work_dir: str, name: str, tracers=(None, None)) -> Tuple[ServingFleet, str, float, float]:
    """Start a serving fleet; returns it, its device, the set-up time and
    the part of it after the shard became healthy."""
    spec = FleetSpec(population=POPULATION, seed=derive_seed(seed, 6), duration_s=24 * 3600.0, dt_s=DT_S)
    device = spec.devices()[0].device_id
    ckpt_dir = fresh_dir(work_dir, name)
    t0 = time.perf_counter()
    supervisor = FleetSupervisor(
        spec,
        ckpt_dir,
        n_shards=1,
        max_workers=1,
        retry=cli_retry_policy(),
        heartbeat_every_s=0.5,
        tracer=tracers[0],
        bridge=ServeBridge(),
    )
    serving = ServingFleet(supervisor, config=ServeConfig(), tracer=tracers[1] or NULL_TRACER)
    serving.start()
    bridge = serving.bridge
    healthy_at = None
    while healthy_at is None or not bridge.cache.has(device):
        if time.perf_counter() - t0 > 60.0:
            serving.stop()
            raise CheckFailed("serving fleet did not become healthy within 60 s")
        time.sleep(0.002)
        if healthy_at is None and bridge.shard_health(0) is not None and bridge.shard_health(0).healthy:
            healthy_at = time.perf_counter()
    done = time.perf_counter()
    return serving, device, done - t0, done - healthy_at


def _address(serving: ServingFleet) -> Tuple[str, int]:
    host, port = serving.address[len("http://"):].rsplit(":", 1)
    if not is_loopback(host):
        raise CheckFailed(f"serving address {host} is not loopback")
    return host, int(port)


def _check_answer(call: dict, status: int, raw: bytes) -> Tuple[str, Optional[float]]:
    """Typed JSON, no 5xx, echoed mutations, one status per cell."""
    try:
        body = json.loads(raw)
    except json.JSONDecodeError:
        raise CheckFailed(f"{call['op']}: non-JSON answer (HTTP {status})") from None
    if not isinstance(body, dict) or not isinstance(body.get("ok"), bool):
        raise CheckFailed(f"{call['op']}: untyped answer {body!r}")
    if status >= 500:
        raise CheckFailed(f"{call['op']}: HTTP {status} {body}")
    outcome = http_outcome(status, body)
    if outcome != "ok":
        return outcome, None
    result = body.get("result") or {}
    if call["op"] == "QueryBatteryStatus":
        statuses = result.get("statuses")
        if not isinstance(statuses, list) or len(statuses) != N_CELLS:
            raise CheckFailed(f"read carried {statuses!r}, not {N_CELLS} statuses")
        return "ok", float(body["stale_s"])
    sent = call.get("ratios") if "ratios" in call else call.get("profile")
    echoed = result.get("ratios") if "ratios" in call else result.get("profile")
    if result.get("applied") is not True or echoed != sent:
        raise CheckFailed(f"{call['op']} sent {sent!r}, answer {result!r}")
    return "ok", None


def client_factory(serving: ServingFleet, conns: List[http.client.HTTPConnection], probe=None):
    host, port = _address(serving)

    def make_client(k: int):
        conn = http.client.HTTPConnection(host, port, timeout=30.0)
        conns.append(conn)

        def send(call: dict) -> Call:
            op, device = call["op"], call["device"]
            cls = "read" if op == "QueryBatteryStatus" else "mutate"
            if cls == "read":
                method, path, body, headers = "GET", f"/v1/status/{device}", None, {}
            else:
                payload = {"ratios": call["ratios"]} if "ratios" in call else {"profile": call["profile"]}
                method, path = "POST", f"/v1/{_ROUTES[op]}/{device}"
                body, headers = json.dumps(payload), {"Content-Type": "application/json"}
            with probe.span("bench.request", cls=cls, op=op) if probe is not None else nullcontext():
                if probe is not None:
                    headers[TRACE_HEADER] = ":".join(str(i) for i in probe.context())
                t0 = time.perf_counter()
                try:
                    conn.request(method, path, body=body, headers=headers)
                    response = conn.getresponse()
                    raw = response.read()
                except (OSError, http.client.HTTPException):
                    conn.close()  # the next request opens a fresh connection
                    return Call(cls, op, time.perf_counter() - t0, http_outcome(None, None))
                latency = time.perf_counter() - t0
            outcome, stale_s = _check_answer(call, response.status, raw)
            return Call(cls, op, latency, outcome, stale_s)

        return send

    return make_client


def serve_phase(seed, seconds, serving, device, probe=None):
    conns: List[http.client.HTTPConnection] = []
    try:
        return closed_loop(seconds, seed, [(device, N_CELLS)], client_factory(serving, conns, probe))
    finally:
        for conn in conns:
            conn.close()


def run(seed: int, seconds: float, work_dir: str) -> RunResult:
    speed = MachineSpeed()
    setups: List[float] = []
    waits: List[float] = []
    serving = None
    try:
        for i in range(SETUPS):
            if serving is not None:
                serving.stop()
            speed.sample()
            serving, device, setup_s, wait_s = start(seed, work_dir, f"serve-{i}")
            setups.append(setup_s)
            waits.append(wait_s)
        calls, wall = serve_phase(seed, seconds, serving, device)
    finally:
        if serving is not None:
            serving.stop()
    return RunResult(
        setups_s=setups,
        completed=sum(1 for c in calls if c.outcome == "ok"),
        wall_s=wall,
        outcomes=[c.outcome for c in calls],
        report=call_report(calls, wall),
        rss_counts_workers=False,
        speed=speed,
        adjusted=("setup_s",),
        setup_waits_s=waits,
    )


def traced(seed: int, seconds: float, work_dir: str, probe) -> dict:
    """An untraced phase for the overhead ratio, then a traced one."""
    serving, device, _, _ = start(seed, work_dir, "serve-untraced")
    try:
        untraced, _ = serve_phase(seed, seconds, serving, device)
    finally:
        serving.stop()
    probe.install()
    tracers = (Tracer(), Tracer())
    serving, device, _, _ = start(seed, work_dir, "serve-traced", tracers)
    try:
        calls, wall = serve_phase(seed, seconds, serving, device, probe)
    finally:
        serving.stop()
    return {
        "traced_over_untraced": mean_latency(calls) / mean_latency(untraced),
        "phase_wall_s": wall,
        "tracers": {"supervisor": [tracers[0]], "front_end": [tracers[1]]},
        "outcomes": [c.outcome for c in calls],
    }
