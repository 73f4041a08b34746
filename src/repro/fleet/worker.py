"""The shard worker: one process, one shard, checkpointed as it goes.

A worker is handed a :class:`~repro.fleet.spec.ShardPlan` (as plain
dicts — a worker may be spawned, so everything crossing the process
boundary is picklable data) and runs its devices sequentially.
Durability is layered:

* **per-device** — each in-flight emulation writes periodic
  ``repro.ckpt/v3`` snapshots through the existing
  :mod:`repro.checkpoint` machinery, so a kill mid-device resumes that
  device bit-identically from its last snapshot;
* **per-shard** — after every finished device the worker atomically
  rewrites the *shard* checkpoint: the full map of completed device
  metrics plus a ``done`` marker once the roster is exhausted. The shard
  checkpoint is the single source of truth — the supervisor reads it to
  collect results after a clean exit *and* to know what survives a
  dirty one.

Liveness is a daemon heartbeat thread: every ``heartbeat_every_s`` wall
seconds it reports the shard's cumulative step count to the supervisor's
queue. The emulation loop itself never blocks on the queue, so a slow or
wedged supervisor cannot stall the physics. Each device also announces
itself with one ``device_started`` beat, after its checkpoint (if any)
is restored and before its first step, and one ``device_done`` beat.

A serving worker (one given request and response queues) attaches a
JSON-safe snapshot of the in-flight device's battery statuses to its
beats: to ``device_started``, so the serving layer's status cache holds
a device from the moment its shard starts or resumes it; to every
heartbeat whose runtime lock is uncontended, so the sample period is the
heartbeat cadence (the BatteryOS pattern); and its final state to
``device_done``. An offline worker's beats carry no statuses.

Serving requests arrive on an optional per-shard request queue: a daemon
*servicer* thread applies them to the current device's
:class:`~repro.core.runtime.SDBRuntime` (under its lock, interleaving
safely with ticks) through :func:`~repro.serve.protocol.apply_call` and
answers on the shared response queue, checked by the same
:class:`~repro.serve.protocol.NodeDispatcher` as at every other door: a
blown wall-clock deadline is answered ``deadline_exceeded`` without
touching the runtime, and a mutation key already applied is replayed.

Chaos lives here too: when the supervisor arms ``kill-worker`` chaos for
this shard and attempt, the worker SIGKILLs *itself* right after its
first durable shard checkpoint — a real, uncatchable death at a point
chosen to prove the recovery path rather than to dodge it.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import Dict, Optional

from repro.checkpoint.format import read_checkpoint, write_checkpoint
from repro.emulator.emulator import EmulationResult
from repro.errors import CheckpointError, EmulationAborted, SDBError
from repro.fleet.spec import DeviceSpec, ShardPlan, build_device_emulator
from repro.obs.tracer import set_default_tracer
from repro.serve.protocol import (
    ERR_COMPLETED,
    ERR_NOT_RUNNING,
    NodeDispatcher,
    apply_call,
    error_response,
    status_to_wire,
)

__all__ = [
    "EXIT_OK",
    "EXIT_FAILED",
    "EXIT_CANCELLED",
    "shard_checkpoint_path",
    "device_checkpoint_path",
    "device_metrics",
    "read_shard_completed",
    "run_shard_worker",
]

#: Worker exit codes the supervisor interprets.
EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CANCELLED = 3

#: Incident kinds that count as a protection trip in fleet rollups.
_TRIP_KINDS = ("protect-trip", "protect-cutoff")


def shard_checkpoint_path(checkpoint_dir: str, shard_id: int) -> str:
    """Where a shard's completion-map checkpoint lives."""
    return os.path.join(checkpoint_dir, f"shard-{shard_id:04d}.ckpt.json")


def device_checkpoint_path(checkpoint_dir: str, device_id: str) -> str:
    """Where a device's in-flight ``repro.ckpt/v3`` snapshot lives."""
    return os.path.join(checkpoint_dir, f"device-{device_id}.ckpt.json")


def device_metrics(device: DeviceSpec, result: EmulationResult) -> dict:
    """The JSON-safe per-device outcome a shard checkpoint records.

    Everything fleet rollups need, nothing more — full time series stay
    in the worker. Floats pass through untouched (json round-trips them
    bit-exactly), so comparing two of these dicts *is* the bit-identity
    check the crash-recovery tests rely on.
    """
    return {
        "device_id": device.device_id,
        "scenario": device.scenario,
        "seed": device.seed,
        "ok": True,
        "completed": result.completed,
        "battery_life_h": result.battery_life_h,
        "delivered_j": result.delivered_j,
        "end_s": result.end_s,
        "n_steps": len(result.times_s),
        "final_socs": list(result.final_socs()),
        "downtime_s": sum(result.downtime_s),
        "incident_count": len(result.incidents),
        "protection_trips": sum(
            1 for incident in result.incidents if incident.kind in _TRIP_KINDS
        ),
        "fault_event_count": len(result.fault_events),
    }


def failed_device_metrics(device: DeviceSpec, reason: str) -> dict:
    """The placeholder recorded for a device a quarantined shard never ran."""
    return {
        "device_id": device.device_id,
        "scenario": device.scenario,
        "seed": device.seed,
        "ok": False,
        "error": reason,
    }


def _write_shard_state(
    path: str, shard: ShardPlan, completed: Dict[str, dict], *, done: bool
) -> None:
    """Atomically persist the shard's progress (reuses ``repro.ckpt``)."""
    write_checkpoint(
        path,
        {
            "fleet_shard": shard.shard_id,
            "n_devices": shard.n_devices,
            "completed": completed,
            "done": done,
        },
    )


def read_shard_completed(path: str) -> Dict[str, dict]:
    """Completed-device metrics from a shard checkpoint; {} when absent.

    A *corrupt* shard checkpoint is treated as absent (the shard replays
    from scratch — slower, never wrong); a missing file is the normal
    first-attempt case.
    """
    if not os.path.exists(path):
        return {}
    try:
        payload = read_checkpoint(path)
    except CheckpointError:
        return {}
    completed = payload.get("completed")
    return dict(completed) if isinstance(completed, dict) else {}


def shard_is_done(path: str) -> bool:
    """Whether a shard checkpoint carries the final ``done`` marker."""
    if not os.path.exists(path):
        return False
    try:
        return bool(read_checkpoint(path).get("done"))
    except CheckpointError:
        return False


def _snapshot_statuses(emulator, *, timeout_s: float):
    """The in-flight device's statuses as wire dicts, or None.

    Contends politely with the emulation loop: if the runtime lock is not
    free within ``timeout_s`` this publish round is skipped — a status
    snapshot is never worth stalling either the physics or a heartbeat.
    """
    runtime = emulator.runtime
    if not runtime.lock.acquire(timeout=timeout_s):
        return None
    try:
        statuses = runtime.query_status()
    finally:
        runtime.lock.release()
    return [status_to_wire(status) for status in statuses]


class _Heartbeat(threading.Thread):
    """Daemon thread streaming liveness to the supervisor's queue.

    With ``serving`` set, each beat also carries the in-flight device's
    statuses (see :func:`_snapshot_statuses`).
    """

    def __init__(self, queue, shard_id: int, progress: dict, every_s: float, serving: bool):
        super().__init__(daemon=True, name=f"fleet-heartbeat-{shard_id}")
        self.queue = queue
        self.shard_id = shard_id
        self.progress = progress
        self.every_s = float(every_s)
        self.serving = serving
        self._halt = threading.Event()

    def beat(self, kind: str = "heartbeat", *, wait_s: float = 0.05, **extra) -> None:
        """Queue one beat; ``wait_s`` bounds the wait for the runtime lock."""
        emulator = self.progress.get("emulator")
        msg = {
            "kind": kind,
            "shard": self.shard_id,
            "pid": os.getpid(),
            "devices_done": self.progress.get("devices_done", 0),
            "steps": self.progress.get("steps_base", 0)
            + (emulator._steps_completed if emulator is not None else 0),
        }
        device_id = self.progress.get("device_id")
        if self.serving and device_id is not None and emulator is not None:
            statuses = _snapshot_statuses(emulator, timeout_s=wait_s)
            if statuses is not None:
                msg["device"] = device_id
                msg["statuses"] = statuses
        msg.update(extra)
        try:
            self.queue.put_nowait(msg)
        except Exception:  # noqa: BLE001 - a dead queue must not kill the physics
            pass

    def run(self) -> None:
        while not self._halt.wait(self.every_s):
            self.beat()

    def stop(self) -> None:
        self._halt.set()


class _Servicer(threading.Thread):
    """Daemon thread executing serving requests against the live runtime.

    Consumes wire dicts (see
    :meth:`repro.serve.protocol.ServeRequest.to_wire`) from the shard's
    request queue and answers every one on the shared response queue
    through a :class:`~repro.serve.protocol.NodeDispatcher` — a typed error
    rather than silence in every failure mode. As its backend, calls only
    apply to the *current* device, through
    :func:`~repro.serve.protocol.apply_call`; completed devices answer
    ``completed`` and not-yet-started ones ``not_running``.
    """

    def __init__(self, requests, responses, shard_id: int, progress: dict, completed: dict):
        super().__init__(daemon=True, name=f"fleet-servicer-{shard_id}")
        self.requests = requests
        self.responses = responses
        self.shard_id = shard_id
        self.progress = progress
        self.completed = completed
        self.dispatcher = NodeDispatcher(f"shard-{shard_id}", self)
        self._halt = threading.Event()

    def stop(self) -> None:
        self._halt.set()

    def run(self) -> None:
        while not self._halt.is_set():
            try:
                wire = self.requests.get(timeout=0.1)
            except Exception:  # noqa: BLE001 - Empty, plus queue teardown races
                continue
            if not isinstance(wire, dict):
                continue
            reply = dict(
                self.dispatcher.dispatch(wire), request_id=wire.get("request_id"),
                shard=self.shard_id, device=wire.get("device_id"), op=wire.get("op"),
            )
            try:
                self.responses.put_nowait(reply)
            except Exception:  # noqa: BLE001 - a dead queue must not kill the physics
                pass

    def handle(self, wire: dict) -> dict:
        """Route a checked call to the in-flight device (the dispatcher's backend)."""
        device_id = wire.get("device_id")
        if device_id in self.completed:
            return error_response(ERR_COMPLETED, f"{device_id!r} finished its run").to_wire()
        if device_id != self.progress.get("device_id"):
            return error_response(
                ERR_NOT_RUNNING,
                f"{device_id!r} is not the in-flight device on shard {self.shard_id}",
            ).to_wire()
        emulator = self.progress.get("emulator")
        if emulator is None:
            return error_response(ERR_NOT_RUNNING, f"{device_id!r} is between runs").to_wire()
        return apply_call(emulator.runtime, wire).to_wire()


def _chaos_armed(config: dict, shard_id: int) -> Optional[str]:
    """The chaos mode to apply on this attempt, or None.

    ``config["chaos"]`` (set by the supervisor only on targeted shards)
    carries ``mode`` and ``kills``; the worker's attempt number decides
    whether this launch is still in the blast radius.
    """
    chaos = config.get("chaos")
    if not chaos:
        return None
    if int(config.get("attempt", 1)) > int(chaos.get("kills", 1)):
        return None
    return str(chaos.get("mode", "kill-worker"))


def run_shard_worker(
    shard_dict: dict, config: dict, queue, stop_event, requests=None, responses=None
) -> int:
    """Process entry point: run (or resume) one shard to completion.

    Returns/exits :data:`EXIT_OK` on success, :data:`EXIT_FAILED` on an
    emulation failure (the supervisor decides whether to retry), and
    :data:`EXIT_CANCELLED` when ``stop_event`` aborted the run.

    When ``requests``/``responses`` queues are supplied (a serving fleet)
    a :class:`_Servicer` daemon answers SDB mutation calls against the
    in-flight device for as long as the worker lives.
    """
    shard = ShardPlan.from_dict(shard_dict)
    checkpoint_dir = str(config["checkpoint_dir"])
    os.makedirs(checkpoint_dir, exist_ok=True)
    shard_path = shard_checkpoint_path(checkpoint_dir, shard.shard_id)
    completed = read_shard_completed(shard_path)
    chaos_mode = _chaos_armed(config, shard.shard_id)

    progress = {
        "devices_done": len(completed),
        "steps_base": sum(int(m.get("n_steps", 0)) for m in completed.values() if m.get("ok")),
        "emulator": None,
        "device_id": None,
    }
    serving = requests is not None and responses is not None
    heartbeat = _Heartbeat(
        queue, shard.shard_id, progress, float(config.get("heartbeat_every_s", 1.0)), serving
    )
    heartbeat.beat("started")
    heartbeat.start()
    servicer = None
    if serving:
        servicer = _Servicer(requests, responses, shard.shard_id, progress, completed)
        servicer.start()

    def start_device(device: DeviceSpec, device_path: str, *, resume: bool):
        """Build a device's emulator, restore its snapshot when ``resume``,
        then make it the in-flight device and announce it.

        Restoring first means neither a beat nor the servicer ever sees
        the freshly built state of a device that is resuming: a mutation
        applied to it would be overwritten by the restore.
        """
        emulator = build_device_emulator(
            device,
            config,
            checkpoint_path=device_path,
            checkpoint_every_s=float(config.get("checkpoint_every_s", 3600.0)),
            abort_signal=stop_event,
        )
        if resume:
            emulator.load_checkpoint(device_path)
        progress["emulator"] = emulator
        progress["device_id"] = device.device_id
        heartbeat.beat(
            "device_started", wait_s=1.0, device=device.device_id,
            from_step=emulator._resume_index,
        )
        return emulator

    def chaos_trigger() -> None:
        """Fire the armed chaos once there is a durable checkpoint behind us."""
        if chaos_mode == "kill-worker":
            # A checkpoint heartbeat first, so traces show the setup; then
            # the real thing — SIGKILL leaves no atexit, no finally, no
            # flush. Exactly what a fleet must survive.
            heartbeat.beat("chaos")
            os.kill(os.getpid(), signal.SIGKILL)
        if chaos_mode == "stall-worker":
            # Go silent: no heartbeats, no progress. The supervisor's
            # deadline must notice and SIGKILL us.
            heartbeat.stop()
            deadline = time.monotonic() + 3600.0
            while time.monotonic() < deadline:
                time.sleep(0.05)

    try:
        for device in shard.devices:
            device_path = device_checkpoint_path(checkpoint_dir, device.device_id)
            if device.device_id in completed:
                # Finished by a previous attempt; clear any straggler
                # device checkpoint left between the shard write and the
                # cleanup it never reached.
                if os.path.exists(device_path):
                    os.remove(device_path)
                continue
            if stop_event is not None and stop_event.is_set():
                return EXIT_CANCELLED
            resume = os.path.exists(device_path)
            try:
                emulator = start_device(device, device_path, resume=resume)
                result = emulator.run()
            except CheckpointError:
                # The device snapshot is unusable (corrupt, or from an
                # incompatible config). Replaying the device from scratch
                # is always safe — determinism makes it equivalent.
                if resume:
                    try:
                        os.remove(device_path)
                    except OSError:
                        pass
                emulator = start_device(device, device_path, resume=False)
                result = emulator.run()
            completed[device.device_id] = device_metrics(device, result)
            done = {"device": device.device_id}
            if serving:
                done["statuses"] = _snapshot_statuses(emulator, timeout_s=1.0) or []
            progress["emulator"] = None
            progress["device_id"] = None
            progress["devices_done"] = len(completed)
            progress["steps_base"] += len(result.times_s)
            _write_shard_state(shard_path, shard, completed, done=False)
            if os.path.exists(device_path):
                os.remove(device_path)
            heartbeat.beat("device_done", **done)
            heartbeat.beat("checkpoint")
            if chaos_mode is not None and len(completed) >= int(
                config.get("chaos", {}).get("after_devices", 1)
            ):
                chaos_trigger()
                chaos_mode = None  # stall mode returns; don't re-trigger
    except EmulationAborted:
        return EXIT_CANCELLED
    except SDBError:
        return EXIT_FAILED
    finally:
        heartbeat.stop()
        # Joined so an in-process caller is single-threaded again on
        # return, and a fleet it runs next can fork its workers.
        heartbeat.join()
        if servicer is not None:
            servicer.stop()

    _write_shard_state(shard_path, shard, completed, done=True)
    heartbeat.beat("done")
    return EXIT_OK


def worker_main(
    shard_dict: dict, config: dict, queue, stop_event, requests=None, responses=None
) -> None:
    """``multiprocessing.Process`` target: propagate the exit code.

    A forked worker would otherwise keep the supervisor's default tracer,
    the one process-wide setting it inherits, and record into a copy
    nobody reads; reset, it starts from the same state as a spawned one.
    """
    set_default_tracer(None)
    raise SystemExit(
        run_shard_worker(shard_dict, config, queue, stop_event, requests, responses)
    )
