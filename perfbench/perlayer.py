"""The traced run's view: wrappers at each layer boundary, per-layer numbers.

:class:`LayerProbe` wraps the public functions below from outside, in
every traced run, whatever the workload; a layer that does no work on a
workload records no spans and reports 0. The program's own counters and
events come from the :class:`repro.obs.Tracer` objects each workload
passes to the layers' public constructors.

==========================  ==========================================
span                        wraps
==========================  ==========================================
``fleet.rollup``            ``repro.fleet.supervisor.fleet_rollup``
``fleet.completion_map``    the shard worker's ``write_checkpoint``
``fleet.build_device``      the shard worker's ``build_device_emulator``
``emulator.run``            ``SDBEmulator.run``
``checkpoint.save``         ``SDBEmulator.save_checkpoint``
``checkpoint.write``        ``repro.checkpoint.format.write_checkpoint``
``runtime.tick``            ``SDBRuntime.tick``
``sweep.plan``              ``BatchedSweep.plan``
``sweep.batch``             ``BatchedRunner.run``
``serve.http_handler``      ``SDBRequestHandler.do_GET`` / ``do_POST``
``serve.handle``            ``FleetFrontEnd.handle``
``serve.cache_read``        ``StatusCache.read``
``serve.bridge_send``       ``ServeBridge.send``
``serve.publish``           ``ServeBridge.publish_status``
``net.directory``           ``BatteryDirectory.handle``
``net.heartbeat``           ``BatteryDirectory.heartbeat_tick``
``net.transport``           ``TcpTransport.call``
``net.dispatch``            ``NodeDispatcher.dispatch``
``net.backend``             ``RuntimeBackend.handle``
==========================  ==========================================

The benchmark's own root spans are ``bench.request`` (one client call),
``bench.grid`` (one ``execute_runs``) and ``bench.shard`` (one shard of
the in-process fleet replica). A request's id crosses the HTTP hop in an
``X-Bench-Trace`` header and the TCP hop in a ``_bench_trace`` message
field, both added only in traced runs.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from .spans import SpanRecorder, self_time
from .stats import median, percentile, tail

TRACE_HEADER = "X-Bench-Trace"
TRACE_FIELD = "_bench_trace"

Metric = Tuple[float, str]


class LayerProbe(SpanRecorder):
    """A :class:`SpanRecorder` that knows the program's layer boundaries."""

    def install(self) -> None:
        from repro.checkpoint import format as checkpoint_format
        from repro.core.runtime import SDBRuntime
        from repro.emulator.batch import BatchedRunner
        from repro.emulator.emulator import SDBEmulator
        from repro.experiments.sweep import BatchedSweep
        from repro.fleet import supervisor as fleet_supervisor
        from repro.fleet import worker as fleet_worker
        from repro.net.directory import BatteryDirectory
        from repro.net.node import NodeDispatcher, RuntimeBackend
        from repro.net.transport import TcpTransport
        from repro.serve.bridge import ServeBridge
        from repro.serve.cache import StatusCache
        from repro.serve.server import SDBRequestHandler
        from repro.serve.service import FleetFrontEnd

        wrap = self.wrap
        wrap(fleet_supervisor, "fleet_rollup", "fleet.rollup")
        wrap(fleet_worker, "write_checkpoint", "fleet.completion_map")
        wrap(fleet_worker, "build_device_emulator", "fleet.build_device")
        wrap(SDBEmulator, "run", "emulator.run", annotate=_steps)
        wrap(SDBEmulator, "save_checkpoint", "checkpoint.save")
        wrap(checkpoint_format, "write_checkpoint", "checkpoint.write", annotate=_bytes)
        wrap(SDBRuntime, "tick", "runtime.tick")
        wrap(BatchedSweep, "plan", "sweep.plan")
        wrap(BatchedRunner, "run", "sweep.batch")
        for method in ("do_GET", "do_POST"):
            self.patch(SDBRequestHandler, method, self._http_handler)
        wrap(FleetFrontEnd, "handle", "serve.handle", attrs=lambda a, k: {"op": a[1].op})
        wrap(StatusCache, "read", "serve.cache_read")
        wrap(ServeBridge, "send", "serve.bridge_send")
        wrap(ServeBridge, "publish_status", "serve.publish")
        wrap(BatteryDirectory, "handle", "net.directory")
        wrap(BatteryDirectory, "heartbeat_tick", "net.heartbeat")
        self.patch(TcpTransport, "call", self._transport_call)
        self.patch(NodeDispatcher, "dispatch", self._dispatch)
        wrap(RuntimeBackend, "handle", "net.backend")

    def _http_handler(self, original):
        def handler(request_handler):
            raw = request_handler.headers.get(TRACE_HEADER)
            context = [int(part) for part in raw.split(":")] if raw else None
            with self.adopt(context), self.span("serve.http_handler"):
                return original(request_handler)

        return handler

    def _transport_call(self, original):
        def call(transport, message, timeout_s):
            with self.span("net.transport", op=message.get("op")):
                return original(transport, dict(message, **{TRACE_FIELD: self.context()}), timeout_s)

        return call

    def _dispatch(self, original):
        def dispatch(dispatcher, message):
            is_dict = isinstance(message, dict)
            context = message.pop(TRACE_FIELD, None) if is_dict else None
            with self.adopt(context), self.span("net.dispatch", op=message.get("op") if is_dict else None):
                return original(dispatcher, message)

        return dispatch


def _steps(span, args, result) -> None:
    span.attrs = {"steps": len(result.times_s)}


def _bytes(span, args, result) -> None:
    span.attrs = {"bytes": os.path.getsize(result)}


def _p50(values: List[float], scale: float = 1.0) -> float:
    return percentile(values, 50) * scale if values else 0.0


def _tail(values: List[float], scale: float, notes: Dict[str, str], name: str) -> float:
    """The supported tail of ``values``; ``notes[name]`` says which and of how many."""
    t = tail(values)
    notes[name] = f"p{t['percent']} of {t['n']}" if t["percent"] else f"no tail: {t['n']} samples"
    return t["value"] * scale


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _shard_skew(tracer) -> float:
    """Slowest over mean shard wall time, from one fleet's events."""
    started: Dict[int, float] = {}
    walls: List[float] = []
    for record in tracer.records:
        shard = record.fields.get("shard")
        if record.name == "fleet.worker_start":
            started[shard] = record.t_s
        elif record.name == "fleet.shard_done" and shard in started:
            walls.append(record.t_s - started[shard])
    return max(walls) / (sum(walls) / len(walls)) if walls else 0.0


def layer_metrics(
    probe: SpanRecorder, extras: dict, notes: Optional[Dict[str, str]] = None
) -> Dict[str, Metric]:
    """Every per-layer metric, 0 where the layer did no work.

    ``notes``, when given, receives the percentile and sample count behind
    each ``*_tail_*`` metric.
    """
    notes = {} if notes is None else notes
    by_name: Dict[str, list] = defaultdict(list)
    for span in probe.spans:
        by_name[span.name].append(span)
    kids = probe.children()
    tracers = extras["tracers"]

    def counter(role: str, name: str) -> int:
        return sum(t.counters.get(name, 0) for t in tracers.get(role, ()))

    def durations(name: str) -> List[float]:
        return [s.duration for s in by_name[name]]

    def child_named(span, name: str) -> list:
        return [c for c in kids.get(span.span_id, ()) if c.name == name]

    requests = by_name["bench.request"]
    window = (
        (min(s.start for s in requests), max(s.end for s in requests)) if requests else (0.0, 0.0)
    )

    def per_s_in_window(spans) -> float:
        lo, hi = window
        return _ratio(sum(1 for s in spans if lo <= s.start <= hi), hi - lo)

    m: Dict[str, Metric] = {}

    # repro.fleet
    supervisors = tracers.get("supervisor", ())
    boots = [r.fields["boot_s"] for t in supervisors for r in t.events_named("fleet.worker_booted")]
    skews = [s for s in (_shard_skew(t) for t in supervisors) if s]
    m["fleet.boot_p50_s"] = (_p50(boots), "s")
    m["fleet.shard_skew"] = (median(skews), "ratio")
    m["fleet.completion_map_p50_ms"] = (_p50(durations("fleet.completion_map"), 1e3), "ms")
    m["fleet.rollup_ms"] = (_p50(durations("fleet.rollup"), 1e3), "ms")
    m["fleet.restarts"] = (counter("supervisor", "fleet.worker_restarts"), "count")

    # repro.emulator and repro.core
    runs = by_name["emulator.run"]
    run_ids = {s.span_id for s in runs}
    device_s = [self_time(s, child_named(s, "checkpoint.save")) for s in runs]
    ticks = [s.duration for s in by_name["runtime.tick"] if s.parent_id in run_ids]
    m["emulator.device_p50_s"] = (_p50(device_s), "s")
    m["emulator.steps_per_s"] = (_ratio(sum(s.attrs["steps"] for s in runs), sum(device_s)), "1/s")
    m["runtime.tick_p50_us"] = (_p50(ticks, 1e6), "us")
    m["runtime.tick_share"] = (_ratio(sum(ticks), sum(device_s)), "share")

    # sweep, batch and engine (per executed grid)
    grids = extras.get("grids", 0)
    grid_ids = {s.span_id for s in by_name["bench.grid"]}
    modes = extras.get("modes", [])
    m["sweep.plan_s"] = (_ratio(sum(durations("sweep.plan")), extras.get("plannings", 0)), "s")
    m["sweep.batch_s"] = (_ratio(sum(durations("sweep.batch")), grids), "s")
    m["sweep.single_s"] = (_ratio(sum(s.duration for s in runs if s.parent_id in grid_ids), grids), "s")
    for mode in ("batched", "demoted", "fallback"):
        m[f"sweep.{mode}_share"] = (_ratio(modes.count(mode), len(modes)), "share")
    m["sweep.vector_steps"] = (_ratio(counter("sweep", "sweep.vector_steps"), grids), "count")
    m["sweep.chunks"] = (_ratio(counter("sweep", "sweep.chunks"), grids), "count")

    # repro.checkpoint
    writes = by_name["checkpoint.write"]
    capture = [self_time(s, child_named(s, "checkpoint.write")) for s in by_name["checkpoint.save"]]
    write_s = [s.duration for s in writes]
    m["checkpoint.write_p50_ms"] = (_p50(write_s, 1e3), "ms")
    m["checkpoint.write_tail_ms"] = (_tail(write_s, 1e3, notes, "checkpoint.write_tail_ms"), "ms")
    m["checkpoint.bytes_p50"] = (_p50([s.attrs["bytes"] for s in writes]), "B")
    m["checkpoint.writes_per_device"] = (_ratio(len(writes), len(runs)), "count")
    m["checkpoint.capture_p50_ms"] = (_p50(capture, 1e3), "ms")
    checkpoint_share = _ratio(sum(durations("checkpoint.save")), sum(durations("emulator.run")))
    m["checkpoint.share"] = (checkpoint_share, "share")

    # repro.serve
    handles = {s.trace_id: s for s in by_name["serve.handle"]}
    http = {"read": [], "mutate": []}
    for request in requests:
        handle = handles.get(request.trace_id)
        if handle is not None:
            http[request.attrs["cls"]].append(request.duration - handle.duration)
    read_handles = [s for s in handles.values() if s.attrs["op"] == "QueryBatteryStatus"]
    mutate_handles = [s for s in handles.values() if s.attrs["op"] != "QueryBatteryStatus"]
    mutate_s = [s.duration for s in mutate_handles]
    bridge_wait = []
    for handle in mutate_handles:
        sends = child_named(handle, "serve.bridge_send")
        if sends:
            bridge_wait.append(handle.end - sends[0].start)
    m["serve.http_read_p50_ms"] = (_p50(http["read"], 1e3), "ms")
    m["serve.http_mutate_p50_ms"] = (_p50(http["mutate"], 1e3), "ms")
    m["serve.handle_read_p50_us"] = (_p50([s.duration for s in read_handles], 1e6), "us")
    m["serve.cache_read_p50_us"] = (_p50(durations("serve.cache_read"), 1e6), "us")
    m["serve.handle_mutate_p50_ms"] = (_p50(mutate_s, 1e3), "ms")
    m["serve.handle_mutate_tail_ms"] = (_tail(mutate_s, 1e3, notes, "serve.handle_mutate_tail_ms"), "ms")
    m["serve.bridge_wait_p50_ms"] = (_p50(bridge_wait, 1e3), "ms")
    m["serve.bridge_wait_tail_ms"] = (_tail(bridge_wait, 1e3, notes, "serve.bridge_wait_tail_ms"), "ms")
    m["serve.publishes_per_s"] = (per_s_in_window(by_name["serve.publish"]), "1/s")
    m["serve.degraded_share"] = (
        _ratio(counter("front_end", "serve.degraded_reads"), counter("front_end", "serve.reads")), "share"
    )
    m["serve.shed"] = (counter("front_end", "serve.shed"), "count")
    m["serve.deadline_timeouts"] = (counter("front_end", "serve.deadline_timeouts"), "count")
    m["serve.orphan_responses"] = (counter("front_end", "serve.orphan_responses"), "count")
    m["serve.breaker_opens"] = (counter("front_end", "serve.breaker_open"), "count")

    # repro.net
    transports = [s for s in by_name["net.transport"] if s.attrs["op"] != "Ping"]
    pings = [s for s in by_name["net.transport"] if s.attrs["op"] == "Ping"]
    directory_self = [self_time(s, child_named(s, "net.transport")) for s in by_name["net.directory"]]
    wire = [self_time(s, child_named(s, "net.dispatch")) for s in transports]
    dispatches = [s.duration for s in by_name["net.dispatch"] if s.attrs["op"] != "Ping"]
    m["net.directory_p50_us"] = (_p50(directory_self, 1e6), "us")
    transport_s = [s.duration for s in transports]
    m["net.transport_p50_ms"] = (_p50(transport_s, 1e3), "ms")
    m["net.transport_tail_ms"] = (_tail(transport_s, 1e3, notes, "net.transport_tail_ms"), "ms")
    m["net.wire_p50_ms"] = (_p50(wire, 1e3), "ms")
    m["net.dispatch_p50_us"] = (_p50(dispatches, 1e6), "us")
    m["net.backend_p50_us"] = (_p50(durations("net.backend"), 1e6), "us")
    m["net.ping_p50_ms"] = (_p50([s.duration for s in pings], 1e3), "ms")
    m["net.pings_per_s"] = (per_s_in_window(pings), "1/s")
    m["net.retries"] = (counter("directory", "net.retries"), "count")
    m["net.transport_failures"] = (counter("directory", "net.transport_failures"), "count")
    m["net.idempotent_replays"] = (extras.get("idempotent_replays", 0), "count")

    # repro.obs
    roots = [s for s in probe.spans if s.name.startswith("bench.")]
    m["obs.traced_over_untraced"] = (extras["traced_over_untraced"], "ratio")
    m["obs.trace_records"] = (sum(len(t.records) for ts in tracers.values() for t in ts), "count")
    m["obs.other_share"] = (
        _ratio(sum(self_time(r, kids.get(r.span_id, ())) for r in roots), sum(r.duration for r in roots)), "share"
    )
    return m
