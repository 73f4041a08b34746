"""Capture and restore the complete mutable state of an emulation.

The payload built here is what :mod:`repro.checkpoint.format` persists as
``repro.ckpt/v3``. It covers every piece of state that evolves during a
run — Thevenin cells (SoC, RC branch, aging, hysteresis, thermal), fuel
gauges, microcontroller registers (ratios, connectivity, charge profiles,
regulator channel failures/derating, protection derating), the SDB
runtime (policy directives, last-known-good ratios, incidents,
health-monitor quarantine bookkeeping, protection envelope/council
state, virtual-battery DAG tenant reserves/credit), fault-schedule
window flags, the partial :class:`~repro.emulator.emulator.EmulationResult`,
the vectorized engine's fixed-point warm start, registered RNG streams,
and tracer counters — so a resumed run continues step-for-step
identically to an uninterrupted one.

The runtime's ratio decisions are not part of the payload: their one
record is the ``runtime.ratio_decision`` trace event. Older ``v3`` files
also carry them, as a ``history`` list in the runtime section, which
:func:`restore_runtime` ignores.

A :func:`emulator_config_digest` pins the *configuration* (trace, pack,
dt, engine, plug windows, fault schedule identity); restoring into an
emulator whose digest differs raises
:class:`~repro.errors.CheckpointError` instead of silently producing a
divergent run. The engine name is part of the digest deliberately: the
two engines checkpoint at different cadences and carry engine-private
state (the warm start), so cross-engine resume is refused.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Any, Dict, List, Optional

from repro.cell.fuel_gauge import BatteryStatus, FuelGauge
from repro.cell.thevenin import TheveninCell
from repro.core.health import HealthMonitor, Incident
from repro.core.runtime import SDBRuntime
from repro.determinism import capture_rng_map, restore_rng_map
from repro.errors import CheckpointError
from repro.faults.events import FaultEvent
from repro.faults.models import GaugeDriftFault
from repro.faults.schedule import FaultSchedule
from repro.hardware.charge import ChargeProfile
from repro.hardware.microcontroller import SDBMicrocontroller

__all__ = [
    "emulator_config_digest",
    "capture_emulator_state",
    "restore_emulator_state",
    "capture_cell",
    "restore_cell",
    "capture_gauge",
    "restore_gauge",
    "capture_runtime",
    "restore_runtime",
]


# --------------------------------------------------------------------- #
# Configuration identity
# --------------------------------------------------------------------- #


def emulator_config_digest(em) -> str:
    """A SHA-256 digest pinning the emulator's *configuration*.

    Two emulators with the same digest run the same trace over the same
    pack with the same engine, plug schedule, and fault schedule — so a
    checkpoint (or replay manifest) recorded against one can be restored
    into (or replayed against) the other.
    """
    controller = em.controller
    spec: Dict[str, Any] = {
        "dt_s": em.dt_s,
        "engine": em.engine,
        "stop_on_depletion": em.stop_on_depletion,
        "n_batteries": controller.n,
        "cells": [
            {
                "name": cell.params.name,
                "capacity_c": cell.params.capacity_c,
                "chemistry": getattr(cell.params.chemistry, "name", str(cell.params.chemistry)),
            }
            for cell in controller.cells
        ],
        "trace": {
            "n_segments": len(em.trace.segments),
            "start_s": em.trace.start_s,
            "end_s": em.trace.end_s,
            "energy_j": em.trace.total_energy_j(),
        },
        "plug": [[w.start_s, w.end_s, w.power_w] for w in em.plug.windows],
        "faults": None
        if em.faults is None
        else [
            [type(model).__name__, model.start_s, model.end_s, model.battery_index]
            for model in em.faults.models
        ],
        "n_hooks": len(em.hooks),
    }
    protection = getattr(em.runtime, "protection", None)
    if protection is not None:
        # Only stamped when a protection manager is attached, so digests
        # of unprotected configurations (which replay manifests record)
        # are unchanged.
        spec["protection"] = protection.mode
    dag = getattr(em.runtime, "dag", None)
    if dag is not None:
        # Same back-compat shape: DAG-less configurations keep their
        # historical digests; a DAG pins its full structure + contracts.
        spec["vdag"] = dag.signature()
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
# Per-component capture/restore
# --------------------------------------------------------------------- #


def capture_cell(cell: TheveninCell) -> Dict[str, Any]:
    """Snapshot one cell's mutable state (electrical, aging, extras)."""
    aging = cell.aging.state
    data: Dict[str, Any] = {
        "soc": cell.soc,
        "v_rc": cell.v_rc,
        "aging": {
            "cycle_count": aging.cycle_count,
            "cumulative_charge_c": aging.cumulative_charge_c,
            "fade": aging.fade,
            "throughput_c": aging.throughput_c,
        },
    }
    if hasattr(cell, "_hysteresis_v"):
        data["hysteresis_v"] = cell._hysteresis_v
    if cell.thermal is not None:
        data["temperature_c"] = cell.thermal.temperature_c
    return data


def restore_cell(cell: TheveninCell, data: Dict[str, Any]) -> None:
    """Apply a :func:`capture_cell` snapshot back onto ``cell``."""
    cell.soc = float(data["soc"])
    cell.v_rc = float(data["v_rc"])
    aging = cell.aging.state
    saved = data["aging"]
    aging.cycle_count = float(saved["cycle_count"])
    aging.cumulative_charge_c = float(saved["cumulative_charge_c"])
    aging.fade = float(saved["fade"])
    aging.throughput_c = float(saved["throughput_c"])
    if "hysteresis_v" in data and hasattr(cell, "_hysteresis_v"):
        cell._hysteresis_v = float(data["hysteresis_v"])
    if "temperature_c" in data and cell.thermal is not None:
        cell.thermal.temperature_c = float(data["temperature_c"])


def capture_gauge(gauge: FuelGauge) -> Dict[str, Any]:
    """Snapshot one fuel gauge's accumulators and fault registers."""
    return {
        "estimated_soc": gauge._estimated_soc,
        "last_voltage": gauge._last_voltage,
        "total_discharged_c": gauge.total_discharged_c,
        "total_charged_c": gauge.total_charged_c,
        "total_heat_j": gauge.total_heat_j,
        "fault_stuck": gauge.fault_stuck,
        "fault_dropout": gauge.fault_dropout,
        "fault_drift": gauge.fault_drift,
        "sense_offset_a": gauge.sense_offset_a,
        "sense_gain_error": gauge.sense_gain_error,
    }


def restore_gauge(gauge: FuelGauge, data: Dict[str, Any]) -> None:
    """Apply a :func:`capture_gauge` snapshot back onto ``gauge``."""
    gauge._estimated_soc = float(data["estimated_soc"])
    gauge._last_voltage = float(data["last_voltage"])
    gauge.total_discharged_c = float(data["total_discharged_c"])
    gauge.total_charged_c = float(data["total_charged_c"])
    gauge.total_heat_j = float(data["total_heat_j"])
    gauge.fault_stuck = bool(data["fault_stuck"])
    gauge.fault_dropout = bool(data["fault_dropout"])
    gauge.fault_drift = bool(data["fault_drift"])
    gauge.sense_offset_a = float(data["sense_offset_a"])
    gauge.sense_gain_error = float(data["sense_gain_error"])


def _capture_controller(controller: SDBMicrocontroller) -> Dict[str, Any]:
    circuit = controller.charge_circuit
    return {
        "discharge_ratios": list(controller.discharge_ratios),
        "charge_ratios": list(controller.charge_ratios),
        "connected": list(controller.connected),
        "command_dropout": controller.command_dropout,
        "profiles": [asdict(profile) for profile in controller.profiles],
        "failed_channels": sorted(circuit.failed_channels),
        "channel_derating": {str(k): v for k, v in circuit.channel_derating.items()},
        "protection_derating": list(controller.protection_derating),
    }


def _restore_controller(controller: SDBMicrocontroller, data: Dict[str, Any]) -> None:
    controller.discharge_ratios = [float(r) for r in data["discharge_ratios"]]
    controller.charge_ratios = [float(r) for r in data["charge_ratios"]]
    controller.connected = [bool(c) for c in data["connected"]]
    controller.command_dropout = int(data["command_dropout"])
    controller.profiles = [ChargeProfile(**profile) for profile in data["profiles"]]
    circuit = controller.charge_circuit
    circuit.failed_channels = set(int(i) for i in data["failed_channels"])
    circuit.channel_derating = {int(k): float(v) for k, v in data["channel_derating"].items()}
    controller.protection_derating = [float(v) for v in data["protection_derating"]]


def _incident_to_dict(incident: Incident) -> Dict[str, Any]:
    return asdict(incident)


def _incident_from_dict(data: Dict[str, Any]) -> Incident:
    return Incident(**data)


def _capture_health(health: HealthMonitor) -> Dict[str, Any]:
    return {
        "quarantined": sorted(health.quarantined),
        "incidents": [_incident_to_dict(i) for i in health.incidents],
        "prev": {str(i): asdict(status) for i, status in health._prev.items()},
        "frozen_streak": {str(i): n for i, n in health._frozen_streak.items()},
        "clean_streak": {str(i): n for i, n in health._clean_streak.items()},
    }


def _restore_health(health: HealthMonitor, data: Dict[str, Any]) -> None:
    health.quarantined = set(int(i) for i in data["quarantined"])
    health.incidents = [_incident_from_dict(i) for i in data["incidents"]]
    health._prev = {int(i): BatteryStatus(**status) for i, status in data["prev"].items()}
    health._frozen_streak = {int(i): int(n) for i, n in data["frozen_streak"].items()}
    health._clean_streak = {int(i): int(n) for i, n in data["clean_streak"].items()}


def capture_runtime(runtime: SDBRuntime) -> Dict[str, Any]:
    """Snapshot the runtime: cadence, directives, incidents, health."""
    return {
        "last_update_t": runtime._last_update_t,
        "ratio_updates": runtime.ratio_updates,
        "degraded_ticks": runtime.degraded_ticks,
        "last_good_discharge": runtime._last_good_discharge,
        "last_good_charge": runtime._last_good_charge,
        "discharge_directive": getattr(runtime.discharge_policy, "directive", None),
        "charge_directive": getattr(runtime.charge_policy, "directive", None),
        "incidents": [_incident_to_dict(i) for i in runtime.incidents],
        "last_profile_directive": getattr(runtime, "_last_profile_directive", None),
        "health": None if runtime.health is None else _capture_health(runtime.health),
        "protection": None
        if getattr(runtime, "protection", None) is None
        else runtime.protection.capture(),
        "vdag": None if getattr(runtime, "dag", None) is None else runtime.dag.capture(),
    }


def restore_runtime(runtime: SDBRuntime, data: Dict[str, Any]) -> None:
    """Apply a :func:`capture_runtime` snapshot back onto ``runtime``.

    Directives are restored through the *policy* setters on purpose:
    ``SDBRuntime.set_discharge_directive`` forces an immediate ratio
    re-plan on the next tick (it clears ``_last_update_t``), which would
    desynchronize the resumed run from the original.
    """
    for policy, key in (
        (runtime.discharge_policy, "discharge_directive"),
        (runtime.charge_policy, "charge_directive"),
    ):
        value = data.get(key)
        if value is not None and hasattr(policy, "set_directive"):
            policy.set_directive(float(value))
    last = data["last_update_t"]
    runtime._last_update_t = None if last is None else float(last)
    runtime.ratio_updates = int(data["ratio_updates"])
    runtime.degraded_ticks = int(data["degraded_ticks"])
    good_d = data["last_good_discharge"]
    good_c = data["last_good_charge"]
    runtime._last_good_discharge = None if good_d is None else [float(r) for r in good_d]
    runtime._last_good_charge = None if good_c is None else [float(r) for r in good_c]
    runtime.incidents = [_incident_from_dict(i) for i in data["incidents"]]
    directive = data["last_profile_directive"]
    runtime._last_profile_directive = None if directive is None else float(directive)
    if data["health"] is not None and runtime.health is not None:
        _restore_health(runtime.health, data["health"])
    protection = data["protection"]
    if protection is not None and getattr(runtime, "protection", None) is not None:
        runtime.protection.restore(protection)
    vdag = data["vdag"]
    if vdag is not None and getattr(runtime, "dag", None) is not None:
        runtime.dag.restore(vdag)


def _capture_faults(schedule: Optional[FaultSchedule]) -> Optional[List[Dict[str, Any]]]:
    if schedule is None:
        return None
    captured = []
    for model in schedule.models:
        entry: Dict[str, Any] = {"injected": model._injected, "cleared": model._cleared}
        if isinstance(model, GaugeDriftFault):
            entry["previous_offset_a"] = model._previous_offset_a
        captured.append(entry)
    return captured


def _restore_faults(schedule: Optional[FaultSchedule], data: Optional[List[Dict[str, Any]]]) -> None:
    if schedule is None and data is None:
        return
    if schedule is None or data is None or len(schedule.models) != len(data):
        raise CheckpointError(
            "checkpoint fault-schedule shape does not match this emulator's schedule"
        )
    for model, entry in zip(schedule.models, data):
        model._injected = bool(entry["injected"])
        model._cleared = bool(entry["cleared"])
        if "previous_offset_a" in entry and isinstance(model, GaugeDriftFault):
            model._previous_offset_a = float(entry["previous_offset_a"])


def _capture_result(result) -> Dict[str, Any]:
    return {
        "dt_s": result.dt_s,
        "times_s": list(result.times_s),
        "load_w": list(result.load_w),
        "soc_history": [list(row) for row in result.soc_history],
        "loss_w": list(result.loss_w),
        "delivered_j": result.delivered_j,
        "battery_heat_j": result.battery_heat_j,
        "circuit_loss_j": result.circuit_loss_j,
        "charge_input_j": result.charge_input_j,
        "charge_loss_j": result.charge_loss_j,
        "depletion_s": result.depletion_s,
        "battery_depletion_s": list(result.battery_depletion_s),
        "completed": result.completed,
        "end_s": result.end_s,
        "downtime_s": list(result.downtime_s),
        "fault_events": [asdict(event) for event in result.fault_events],
        "incidents": [_incident_to_dict(i) for i in result.incidents],
    }


def _restore_result(data: Dict[str, Any]):
    from repro.emulator.emulator import EmulationResult

    result = EmulationResult(dt_s=float(data["dt_s"]))
    result.times_s = [float(t) for t in data["times_s"]]
    result.load_w = [float(p) for p in data["load_w"]]
    result.soc_history = [[float(s) for s in row] for row in data["soc_history"]]
    result.loss_w = [float(p) for p in data["loss_w"]]
    result.delivered_j = float(data["delivered_j"])
    result.battery_heat_j = float(data["battery_heat_j"])
    result.circuit_loss_j = float(data["circuit_loss_j"])
    result.charge_input_j = float(data["charge_input_j"])
    result.charge_loss_j = float(data["charge_loss_j"])
    result.depletion_s = None if data["depletion_s"] is None else float(data["depletion_s"])
    result.battery_depletion_s = [
        None if t is None else float(t) for t in data["battery_depletion_s"]
    ]
    result.completed = bool(data["completed"])
    result.end_s = None if data["end_s"] is None else float(data["end_s"])
    result.downtime_s = [float(t) for t in data["downtime_s"]]
    result.fault_events = [FaultEvent(**event) for event in data["fault_events"]]
    result.incidents = [_incident_from_dict(i) for i in data["incidents"]]
    return result


# --------------------------------------------------------------------- #
# Whole-emulation capture/restore
# --------------------------------------------------------------------- #


def capture_emulator_state(em, result, warm_current: Optional[List[float]] = None) -> Dict[str, Any]:
    """Build the full ``repro.ckpt/v3`` payload for an in-flight run.

    ``result`` is the partially filled :class:`EmulationResult`;
    ``warm_current`` is the vectorized engine's fixed-point warm start
    (``None`` for the reference engine). The resume cursor is implicit:
    every completed step appends exactly one entry to ``result.times_s``
    in both engines, so ``len(result.times_s)`` *is* the step index.
    """
    controller = em.controller
    return {
        "kind": "emulation",
        "config_digest": emulator_config_digest(em),
        "step_index": len(result.times_s),
        "sim_t_s": result.times_s[-1] if result.times_s else None,
        "cells": [capture_cell(cell) for cell in controller.cells],
        "gauges": [capture_gauge(gauge) for gauge in controller.gauges],
        "controller": _capture_controller(controller),
        "runtime": capture_runtime(em.runtime),
        "faults": _capture_faults(em.faults),
        "result": _capture_result(result),
        "engine": {
            "name": em.engine,
            "warm_current": None if warm_current is None else [float(c) for c in warm_current],
        },
        "rngs": capture_rng_map(em.rngs),
        "tracer_counters": dict(em.tracer.counters) if em.tracer.enabled else None,
    }


def restore_emulator_state(em, payload: Dict[str, Any]):
    """Restore a :func:`capture_emulator_state` payload into ``em``.

    Returns the reconstructed partial :class:`EmulationResult`. Raises
    :class:`CheckpointError` when the payload was captured from a
    differently configured emulator (trace, pack, dt, engine, plug, or
    fault schedule mismatch) or is internally inconsistent.
    """
    if payload.get("kind") != "emulation":
        raise CheckpointError(f"not an emulation checkpoint (kind={payload.get('kind')!r})")
    expected = emulator_config_digest(em)
    recorded = payload.get("config_digest")
    if recorded != expected:
        raise CheckpointError(
            "checkpoint was recorded against a different configuration "
            f"(digest {recorded!r} != this emulator's {expected!r}); "
            "rebuild the emulator with the original trace/pack/engine/dt"
        )
    controller = em.controller
    cells = payload["cells"]
    gauges = payload["gauges"]
    if len(cells) != controller.n or len(gauges) != controller.n:
        raise CheckpointError("checkpoint pack size does not match this emulator")
    for cell, data in zip(controller.cells, cells):
        restore_cell(cell, data)
    for gauge, data in zip(controller.gauges, gauges):
        restore_gauge(gauge, data)
    _restore_controller(controller, payload["controller"])
    restore_runtime(em.runtime, payload["runtime"])
    _restore_faults(em.faults, payload["faults"])
    result = _restore_result(payload["result"])
    if int(payload["step_index"]) != len(result.times_s):
        raise CheckpointError(
            f"checkpoint step index {payload['step_index']} disagrees with its "
            f"own bookkeeping ({len(result.times_s)} recorded steps)"
        )
    restore_rng_map(em.rngs, payload.get("rngs") or {})
    counters = payload.get("tracer_counters")
    if counters and em.tracer.enabled:
        em.tracer.counters.clear()
        em.tracer.counters.update(counters)
    return result
