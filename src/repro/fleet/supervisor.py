"""The fleet supervisor: shard workers, heartbeats, retries, quarantine.

:class:`FleetSupervisor` drives a :class:`~repro.fleet.spec.FleetSpec`
through a pool of shard worker processes and absorbs every way a
worker can die:

* **death** — a worker that exits nonzero (or is SIGKILLed: exit ``-9``)
  is restarted from its shard checkpoint after an exponential-backoff
  delay with seeded jitter (:class:`~repro.retry.RetryPolicy`, the same
  dataclass :class:`~repro.supervisor.RunSupervisor` tunes with);
* **silence** — a worker whose heartbeats stop for
  ``retry.heartbeat_deadline_s`` wall seconds is declared wedged,
  SIGKILLed, and restarted the same way. The silence clock starts at the
  worker's *first heartbeat*, not at launch — process start (for a
  spawned worker, interpreter start and imports) is charged against a
  separate, more generous boot deadline
  (``retry.effective_boot_deadline_s``), so a tight liveness deadline
  cannot misfire on a slow cold start;
* **exhaustion** — a shard that burns its whole retry budget is
  *quarantined*: its already-completed devices (recovered from the
  last-good shard checkpoint) stay in the results, its remaining devices
  are marked failed, and the rest of the fleet keeps running. A fleet
  run degrades; it does not crash.

Because shard workers resume each in-flight device from its own
``repro.ckpt/v3`` snapshot and every per-device seed derives from the
fleet seed, a killed-and-resumed fleet produces **bit-identical**
per-device metrics and rollups to an uninterrupted one — the property
the chaos tests (and ``scripts/chaos_check.py fleet-chaos``) assert.

Workers are forked when that is safe and spawned otherwise; the choice
is made once per run (:meth:`FleetSupervisor.start_method`). A forked
worker skips the interpreter start and the imports a spawned one pays,
so it boots in milliseconds instead of most of a second.

The supervisor emits ``fleet.*`` trace events (worker lifecycle,
restarts, quarantines, the final rollup) through :mod:`repro.obs`, with
timestamps in wall-clock seconds since the fleet started.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.determinism import resolve_rng
from repro.errors import FleetError, require_positive
from repro.fleet import worker as worker_mod
from repro.fleet.rollup import fleet_rollup, rollup_summary
from repro.fleet.spec import FleetSpec, ShardPlan, plan_shards
from repro.fleet.worker import (
    EXIT_CANCELLED,
    failed_device_metrics,
    read_shard_completed,
    shard_checkpoint_path,
    shard_is_done,
)
from repro.obs.tracer import Tracer, get_default_tracer
from repro.retry import RetryPolicy

__all__ = ["ChaosSpec", "FleetResult", "FleetSupervisor"]

#: Shard lifecycle states.
_PENDING, _RUNNING, _WAITING, _DONE, _QUARANTINED = (
    "pending",
    "running",
    "waiting",
    "done",
    "quarantined",
)


@dataclass(frozen=True)
class ChaosSpec:
    """Fleet-level fault injection, armed on one target shard.

    ``kill-worker`` makes the target shard's worker SIGKILL itself right
    after its first durable shard checkpoint, on its first ``kills``
    attempts — so ``kills=1`` proves recovery and ``kills`` larger than
    the retry budget proves quarantine. ``stall-worker`` makes it go
    silent instead, proving the heartbeat-deadline path.
    """

    mode: str = "kill-worker"
    kills: int = 1
    target_shard: int = 0
    #: Fire after this many devices have completed (and are durable).
    after_devices: int = 1

    MODES = ("kill-worker", "stall-worker")

    def __post_init__(self) -> None:
        if self.mode not in self.MODES:
            raise FleetError(f"unknown chaos mode {self.mode!r}; valid: {', '.join(self.MODES)}")
        if self.kills < 1:
            raise FleetError("chaos kills must be >= 1")
        if self.after_devices < 1:
            raise FleetError("chaos after_devices must be >= 1")

    def to_dict(self) -> dict:
        """The fields a targeted worker needs (shipped in its config)."""
        return {
            "mode": self.mode,
            "kills": self.kills,
            "after_devices": self.after_devices,
        }


class _ShardState:
    """Supervisor-side bookkeeping for one shard."""

    __slots__ = (
        "plan",
        "status",
        "attempts",
        "proc",
        "last_beat",
        "launched_t",
        "booted",
        "next_start",
        "devices_done",
        "steps",
        "failures",
    )

    def __init__(self, plan: ShardPlan):
        self.plan = plan
        self.status = _PENDING
        self.attempts = 0
        self.proc = None
        self.last_beat = 0.0
        #: When the current attempt's process was started (boot clock).
        self.launched_t = 0.0
        #: True once the current attempt's first heartbeat arrived; the
        #: silence clock only runs from there.
        self.booted = False
        self.next_start = 0.0
        self.devices_done = 0
        self.steps = 0
        self.failures: List[str] = []

    def stats(self) -> dict:
        return {
            "shard_id": self.plan.shard_id,
            "n_devices": self.plan.n_devices,
            "status": self.status,
            "attempts": self.attempts,
            "retries": max(0, self.attempts - 1),
            "failures": list(self.failures),
        }


@dataclass
class FleetResult:
    """What a fleet run produced, device by device, shard by shard."""

    spec: FleetSpec
    #: device_id -> metrics dict (``ok: True`` with outcomes, or
    #: ``ok: False`` with the failure reason for quarantined coverage).
    devices: Dict[str, dict] = field(default_factory=dict)
    shards: List[dict] = field(default_factory=list)
    rollup: dict = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every device completed and no shard was quarantined."""
        return (
            all(metrics.get("ok") for metrics in self.devices.values())
            and not any(shard["status"] == _QUARANTINED for shard in self.shards)
        )

    @property
    def exit_code(self) -> int:
        """The CLI contract: 0 full coverage, 1 degraded."""
        return 0 if self.ok else 1

    def summary(self) -> str:
        """A human-readable account of coverage, rollups, and recovery."""
        return rollup_summary(self.rollup, self.shards, self.wall_s)


class FleetSupervisor:
    """Run a fleet spec to completion through worker crashes and stalls.

    Args:
        spec: the device population and shared run parameters.
        checkpoint_dir: directory for shard + per-device checkpoints. A
            re-invocation on the same directory resumes: completed
            devices are never re-run (delete the directory for a fresh
            fleet). An existing file of that name is a :class:`FleetError`.
        n_shards: how many shards to plan (clamped to the device count).
        max_workers: concurrent worker processes (default: shard count,
            capped at ``os.cpu_count()``).
        retry: shared retry/backoff/liveness policy. The default arms a
            10-second heartbeat deadline; pass
            ``RetryPolicy(heartbeat_deadline_s=None, ...)`` to disable
            liveness checking.
        checkpoint_every_s: per-device snapshot cadence in *simulated*
            seconds.
        heartbeat_every_s: worker heartbeat cadence in wall seconds.
        chaos: optional :class:`ChaosSpec` fault injection.
        tracer: observability sink (default: the process default).
        bridge: optional :class:`~repro.serve.bridge.ServeBridge`. When
            set, the supervisor creates the serving queue pair, hands it
            to every worker attempt, pushes shard health into the bridge
            on every loop pass, and forwards heartbeat-carried battery
            statuses into its cache — turning the run into a servable
            fleet.
    """

    def __init__(
        self,
        spec: FleetSpec,
        checkpoint_dir: str,
        *,
        n_shards: int = 4,
        max_workers: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        checkpoint_every_s: float = 3600.0,
        heartbeat_every_s: float = 0.5,
        chaos: Optional[ChaosSpec] = None,
        tracer: Optional[Tracer] = None,
        bridge=None,
    ):
        self.spec = spec
        self.checkpoint_dir = os.fspath(checkpoint_dir)
        if os.path.exists(self.checkpoint_dir) and not os.path.isdir(self.checkpoint_dir):
            raise FleetError(f"checkpoint_dir {self.checkpoint_dir} is an existing file, not a directory")
        self.plans = plan_shards(spec, n_shards)
        if max_workers is None:
            max_workers = min(len(self.plans), os.cpu_count() or 2)
        if max_workers <= 0:
            raise FleetError("max_workers must be positive")
        self.max_workers = max_workers
        self.retry = retry if retry is not None else RetryPolicy(heartbeat_deadline_s=10.0)
        self.checkpoint_every_s = require_positive(checkpoint_every_s, "checkpoint_every_s", FleetError)
        self.heartbeat_every_s = require_positive(heartbeat_every_s, "heartbeat_every_s", FleetError)
        if chaos is not None and not 0 <= chaos.target_shard < len(self.plans):
            raise FleetError(
                f"chaos target shard {chaos.target_shard} is not a planned shard "
                f"(0..{len(self.plans) - 1})"
            )
        self.chaos = chaos
        self.tracer = tracer if tracer is not None else get_default_tracer()
        self.bridge = bridge
        #: Seeded jitter stream: restart delays are reproducible per fleet seed.
        self._jitter_rng = resolve_rng(spec.seed)
        self._t0 = 0.0
        #: Serving queue pair (created in run() when a bridge is attached).
        self._request_queues: Dict[int, object] = {}
        self._response_queue = None
        #: Graceful early stop (request_stop()), distinct from worker death.
        self._stop_requested = threading.Event()

    # ------------------------------------------------------------------ #
    # Trace helpers (timestamps = wall seconds since the fleet started)
    # ------------------------------------------------------------------ #

    def _now(self) -> float:
        return time.monotonic() - self._t0

    def _event(self, name: str, **fields) -> None:
        if self.tracer.enabled:
            self.tracer.event(name, self._now(), **fields)

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #

    def _launch(self, ctx, state: _ShardState, heartbeats, stop) -> None:
        state.attempts += 1
        config = dict(self.spec.config_dict())
        config.update(
            {
                "checkpoint_dir": self.checkpoint_dir,
                "checkpoint_every_s": self.checkpoint_every_s,
                "heartbeat_every_s": self.heartbeat_every_s,
                "attempt": state.attempts,
            }
        )
        if self.chaos is not None and state.plan.shard_id == self.chaos.target_shard:
            config["chaos"] = self.chaos.to_dict()
        if self.bridge is not None:
            # Every attempt gets a fresh request queue: a worker SIGKILLed
            # inside Queue.get() dies holding the reader lock, and a
            # replacement sharing that queue would block on it forever.
            stale = self._request_queues.get(state.plan.shard_id)
            fresh = ctx.Queue()
            self._request_queues[state.plan.shard_id] = fresh
            self.bridge.rebind_queue(state.plan.shard_id, fresh)
            if stale is not None:
                stale.cancel_join_thread()
                stale.close()
        proc = ctx.Process(
            target=worker_mod.worker_main,
            args=(
                state.plan.to_dict(),
                config,
                heartbeats,
                stop,
                self._request_queues.get(state.plan.shard_id),
                self._response_queue,
            ),
            name=f"fleet-shard-{state.plan.shard_id}",
        )
        proc.start()
        state.proc = proc
        state.status = _RUNNING
        # The silence clock starts at the first heartbeat *received from
        # this attempt's pid* — until then the attempt is "booting" and
        # only the (more generous) boot deadline applies, so process
        # start (a spawned worker's imports) cannot eat the liveness budget.
        state.launched_t = time.monotonic()
        state.last_beat = state.launched_t
        state.booted = False
        self._event(
            "fleet.worker_start",
            shard=state.plan.shard_id,
            attempt=state.attempts,
            pid=proc.pid,
        )
        if self.bridge is not None:
            self.bridge.update_shard(
                state.plan.shard_id,
                status=_RUNNING,
                booted=False,
                pid=proc.pid,
                attempts=state.attempts,
            )

    def _kill(self, state: _ShardState) -> None:
        proc = state.proc
        if proc is None or proc.pid is None:
            return
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            pass
        proc.join(timeout=self.retry.kill_join_timeout_s)
        if proc.is_alive():
            # SIGKILL is not refusable, so an unjoined process here means
            # the kernel is holding it (uninterruptible sleep, dying
            # cgroup, ...). Escalate to the trace — a zombie eating a
            # worker slot is an operator problem, not a retry problem.
            self.tracer.count("fleet.zombies")
            self._event(
                "fleet.zombie",
                shard=state.plan.shard_id,
                attempt=state.attempts,
                pid=proc.pid,
                waited_s=self.retry.kill_join_timeout_s,
            )

    def _fail(self, state: _ShardState, reason: str) -> None:
        """A worker attempt died: retry with backoff, or quarantine."""
        state.failures.append(reason)
        state.proc = None
        self.tracer.count("fleet.worker_failures")
        if state.attempts >= self.retry.max_attempts:
            self._quarantine(state, reason)
            return
        delay = self.retry.delay_for(state.attempts, self._jitter_rng)
        state.status = _WAITING
        state.next_start = time.monotonic() + delay
        self.tracer.count("fleet.worker_restarts")
        self._event(
            "fleet.restart",
            shard=state.plan.shard_id,
            attempt=state.attempts,
            delay_s=delay,
            reason=reason,
        )
        if self.bridge is not None:
            self.bridge.update_shard(state.plan.shard_id, status=_WAITING, booted=False)

    def _quarantine(self, state: _ShardState, reason: str) -> None:
        state.status = _QUARANTINED
        self.tracer.count("fleet.shards_quarantined")
        self._event(
            "fleet.quarantine",
            shard=state.plan.shard_id,
            attempts=state.attempts,
            reason=reason,
        )
        if self.bridge is not None:
            self.bridge.update_shard(
                state.plan.shard_id, status=_QUARANTINED, booted=False
            )

    def _finalize_done(self, state: _ShardState) -> bool:
        """Validate a clean exit against the shard checkpoint's contents."""
        path = shard_checkpoint_path(self.checkpoint_dir, state.plan.shard_id)
        if not shard_is_done(path):
            return False
        completed = read_shard_completed(path)
        missing = [d.device_id for d in state.plan.devices if d.device_id not in completed]
        if missing:
            return False
        state.status = _DONE
        state.devices_done = state.plan.n_devices
        self._event(
            "fleet.shard_done",
            shard=state.plan.shard_id,
            attempts=state.attempts,
            devices=state.plan.n_devices,
        )
        if self.bridge is not None:
            self.bridge.update_shard(
                state.plan.shard_id,
                status=_DONE,
                booted=False,
                devices_done=state.plan.n_devices,
            )
            # Freeze anything the heartbeat stream never explicitly
            # completed (e.g. the worker finished between beats).
            completed = read_shard_completed(path)
            for device in state.plan.devices:
                if not self.bridge.cache.completed(device.device_id):
                    metrics = completed.get(device.device_id)
                    if metrics is not None and metrics.get("ok"):
                        self.bridge.mark_completed(
                            state.plan.shard_id, device.device_id
                        )
        return True

    # ------------------------------------------------------------------ #
    # The main loop
    # ------------------------------------------------------------------ #

    def request_stop(self) -> None:
        """Ask the fleet to wind down gracefully (thread-safe).

        Workers see the shared stop event, abort their in-flight device
        at the next step boundary (its checkpoint stays durable), and
        exit ``EXIT_CANCELLED``; the run returns with partial coverage.
        This is how a serving front end tears the fleet down.
        """
        self._stop_requested.set()

    def start_method(self) -> str:
        """How this run starts its workers: ``"fork"`` or ``"spawn"``.

        ``fork`` on Linux for an offline fleet (no serving bridge) whose
        process runs exactly one Python thread; ``spawn`` everywhere else.
        Forking a process with other Python threads can copy locks those
        threads hold into the child, and a serving fleet always runs
        beside its front end's threads. :meth:`run` calls this once,
        before it makes any queue or event, because a fork-context
        semaphore cannot be handed to a spawned child.
        """
        if sys.platform == "linux" and self.bridge is None and threading.active_count() == 1:
            return "fork"
        return "spawn"

    def run(self) -> FleetResult:
        """Drive every shard to ``done`` or ``quarantined``; never raise
        for a shard's failures — the result reports them."""
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        method = self.start_method()
        ctx = multiprocessing.get_context(method)
        heartbeats = ctx.Queue()
        stop = ctx.Event()
        states = {plan.shard_id: _ShardState(plan) for plan in self.plans}
        if self.bridge is not None:
            # Request queues are created per attempt in _launch (see the
            # SIGKILL note there); bind starts with an empty mapping.
            self._request_queues = {}
            self._response_queue = ctx.Queue()
            self.bridge.bind(self.plans, self._request_queues, self._response_queue)
        self._t0 = time.monotonic()
        self._event(
            "fleet.start",
            devices=self.spec.n_devices,
            shards=len(self.plans),
            workers=self.max_workers,
            seed=self.spec.seed,
            start_method=method,
        )

        try:
            while any(s.status in (_PENDING, _RUNNING, _WAITING) for s in states.values()):
                if self._stop_requested.is_set():
                    self._event("fleet.stop_requested")
                    break
                now = time.monotonic()
                running = sum(1 for s in states.values() if s.status == _RUNNING)
                for state in states.values():
                    if running >= self.max_workers:
                        break
                    launchable = state.status == _PENDING or (
                        state.status == _WAITING and now >= state.next_start
                    )
                    if launchable:
                        self._launch(ctx, state, heartbeats, stop)
                        running += 1

                self._drain(heartbeats, states)
                self._reap(states)
        finally:
            stop.set()
            if self._stop_requested.is_set():
                # Graceful wind-down: give workers a moment to notice the
                # stop event and exit EXIT_CANCELLED with durable
                # checkpoints before falling back to SIGKILL.
                grace_deadline = time.monotonic() + 5.0
                for state in states.values():
                    if state.proc is not None and state.proc.is_alive():
                        state.proc.join(
                            timeout=max(0.0, grace_deadline - time.monotonic())
                        )
            for state in states.values():
                if state.proc is not None and state.proc.is_alive():
                    self._kill(state)
            if self.bridge is not None:
                self.bridge.close()
            heartbeats.close()

        return self._collect(states)

    def _drain(self, heartbeats, states: Dict[int, _ShardState]) -> None:
        """Pull every queued heartbeat; block briefly so the loop idles cheap."""
        block = True
        while True:
            try:
                msg = heartbeats.get(timeout=0.05 if block else 0.0)
            except (queue_mod.Empty, OSError, EOFError):
                return
            block = False
            state = states.get(int(msg.get("shard", -1)))
            if state is None:
                continue
            # Beats from a *previous* attempt's pid (a straggler message
            # queued before a kill) must not refresh the current
            # attempt's liveness or mark it booted.
            current_pid = state.proc.pid if state.proc is not None else None
            if current_pid is not None and msg.get("pid") != current_pid:
                continue
            state.last_beat = time.monotonic()
            if not state.booted:
                state.booted = True
                self._event(
                    "fleet.worker_booted",
                    shard=state.plan.shard_id,
                    attempt=state.attempts,
                    boot_s=state.last_beat - state.launched_t,
                )
            if msg.get("kind") == "device_started":
                self._event(
                    "fleet.device_started",
                    shard=state.plan.shard_id,
                    device=msg.get("device"),
                    attempt=state.attempts,
                    from_step=msg.get("from_step"),
                    since_launch_s=state.last_beat - state.launched_t,
                )
            state.devices_done = int(msg.get("devices_done", state.devices_done))
            state.steps = int(msg.get("steps", state.steps))
            if self.bridge is not None:
                self.bridge.update_shard(
                    state.plan.shard_id,
                    beat=True,
                    booted=True,
                    devices_done=state.devices_done,
                )
                device_id = msg.get("device")
                if msg.get("kind") == "device_done" and device_id is not None:
                    self.bridge.mark_completed(
                        state.plan.shard_id, device_id, msg.get("statuses") or None
                    )
                elif device_id is not None and msg.get("statuses"):
                    self.bridge.publish_status(
                        state.plan.shard_id, device_id, msg["statuses"]
                    )

    def _stall_reason(self, state: _ShardState, now: float) -> Optional[str]:
        """Whether a running worker has breached its liveness deadline.

        Before the first heartbeat only the boot deadline applies (process
        start, and a spawned worker's imports, are not "silence");
        afterwards the heartbeat deadline runs from the last beat received.
        """
        if not state.booted:
            boot_deadline = self.retry.effective_boot_deadline_s
            if boot_deadline is not None and now - state.launched_t > boot_deadline:
                return (
                    f"boot deadline exceeded (no first heartbeat within "
                    f"{boot_deadline:.1f} s of launch)"
                )
            return None
        deadline = self.retry.heartbeat_deadline_s
        if deadline is not None and now - state.last_beat > deadline:
            return f"heartbeat deadline exceeded ({deadline:.1f} s of silence)"
        return None

    def _reap(self, states: Dict[int, _ShardState]) -> None:
        """Notice exits and liveness-deadline breaches; route to _fail."""
        now = time.monotonic()
        for state in states.values():
            if state.status != _RUNNING:
                continue
            proc = state.proc
            if proc is not None and not proc.is_alive():
                proc.join()
                code = proc.exitcode
                self._event(
                    "fleet.worker_exit",
                    shard=state.plan.shard_id,
                    attempt=state.attempts,
                    exitcode=code,
                )
                if code == 0 and self._finalize_done(state):
                    continue
                if code == 0:
                    self._fail(state, "worker exited cleanly without completing its shard")
                elif code == EXIT_CANCELLED:
                    self._fail(state, "worker cancelled mid-run")
                else:
                    self._fail(state, f"worker died (exit {code})")
                continue
            stall = self._stall_reason(state, now)
            if stall is not None:
                self._event(
                    "fleet.worker_stalled",
                    shard=state.plan.shard_id,
                    attempt=state.attempts,
                    booted=state.booted,
                    silence_s=now - (state.last_beat if state.booted else state.launched_t),
                )
                self._kill(state)
                self._fail(state, stall)

    # ------------------------------------------------------------------ #
    # Result assembly
    # ------------------------------------------------------------------ #

    def _collect(self, states: Dict[int, _ShardState]) -> FleetResult:
        devices: Dict[str, dict] = {}
        shards: List[dict] = []
        for state in states.values():
            path = shard_checkpoint_path(self.checkpoint_dir, state.plan.shard_id)
            completed = read_shard_completed(path)
            for device in state.plan.devices:
                metrics = completed.get(device.device_id)
                if metrics is not None and metrics.get("ok"):
                    devices[device.device_id] = metrics
                else:
                    reason = (
                        f"shard {state.plan.shard_id} quarantined after "
                        f"{state.attempts} attempt(s): "
                        + (state.failures[-1] if state.failures else "unknown failure")
                    )
                    devices[device.device_id] = failed_device_metrics(device, reason)
            shards.append(state.stats())
        shards.sort(key=lambda stats: stats["shard_id"])
        rollup = fleet_rollup(devices, shards)
        wall_s = self._now()
        if self.tracer.enabled:
            self.tracer.event("fleet.rollup", wall_s, **rollup)
            self.tracer.count("fleet.devices_ok", rollup["n_ok"])
            self.tracer.count("fleet.devices_failed", rollup["n_failed"])
        return FleetResult(
            spec=self.spec, devices=devices, shards=shards, rollup=rollup, wall_s=wall_s
        )
