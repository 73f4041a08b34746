"""Chaos harness: the SDB stack under injected faults (docs/resilience.md).

The paper's safety story (Sections 2.2, 5.3) is that software can manage
batteries that detach mid-run and gauges that lie. This experiment replays
a 2-in-1 tablet day under a seeded fault schedule — keyboard-base
hot-detach/reattach, a wedged fuel gauge, a collapsed charge regulator,
transient command loss, an unmodeled load spike — and compares three
configurations:

* **fault-free** — the same trace with no faults (the upper bound);
* **naive** — faults injected, strict runtime, no health monitoring: the
  lying gauge goes unnoticed and the collapsed regulator silently wastes
  the charge window;
* **resilient** — faults injected, :class:`~repro.core.health.HealthMonitor`
  attached: the suspect battery is quarantined (its charge share
  renormalizes onto the healthy channel), lost commands are retried, and
  policy failures degrade to last-good ratios.

The headline number is delivered energy: the resilient configuration
recovers most of the energy the naive one loses to the faulty charge
channel, while the hardware's own floor keeps the quarantined battery
available as a last resort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro import units
from repro.determinism import SeedLike, resolve_rng
from repro.emulator.emulator import EmulationResult
from repro.emulator.events import PlugSchedule, PlugWindow
from repro.experiments.reporting import Table
from repro.faults.models import (
    BatteryDetachFault,
    CommandLossFault,
    GaugeDriftFault,
    GaugeDropoutFault,
    GaugeOffsetFault,
    GaugeStuckFault,
    LoadSpikeFault,
    RegulatorCollapseFault,
)
from repro.faults.schedule import FaultSchedule
from repro.fleet.spec import build_emulator
from repro.protection import PROTECTION_MODES
from repro.workloads.traces import PowerTrace, Segment

#: Chaos fault-schedule presets accepted by :func:`run_chaos`.
PRESETS = ("classic", "gauge-storm")

#: Internal (tablet) battery index.
INTERNAL = 0
#: Keyboard-base battery index — the one every fault picks on.
BASE = 1

#: Trace length; long enough for every configuration to deplete.
DAY_HOURS = 12.0
#: Attached-mode working draw, watts.
WORK_W = 10.5
#: Meeting draw while plugged into the weak adapter, watts.
MEETING_W = 6.0
#: Afternoon tablet-mode draw, watts.
AFTERNOON_W = 7.2
#: The travel adapter is weak: the charge window is budget-limited, so
#: wasting a channel's share on a dead regulator costs real energy.
ADAPTER_W = 15.0
#: Plug window bounds, hours.
PLUG_START_H = 2.0
PLUG_END_H = 3.5


def chaos_trace() -> PowerTrace:
    """The tablet day: morning work, plugged meeting, afternoon tablet use."""
    work_s = units.hours_to_seconds(PLUG_START_H)
    meeting_s = units.hours_to_seconds(PLUG_END_H - PLUG_START_H)
    afternoon_s = units.hours_to_seconds(DAY_HOURS - PLUG_END_H)
    return PowerTrace(
        [
            Segment(0.0, work_s, WORK_W),
            Segment(work_s, meeting_s, MEETING_W),
            Segment(work_s + meeting_s, afternoon_s, AFTERNOON_W),
        ]
    )


def chaos_plug() -> PlugSchedule:
    """A weak travel adapter available only during the meeting."""
    return PlugSchedule(
        [PlugWindow(units.hours_to_seconds(PLUG_START_H), units.hours_to_seconds(PLUG_END_H), ADAPTER_W)]
    )


def chaos_schedule(seed: SeedLike = 7) -> FaultSchedule:
    """The day's fault schedule, deterministically jittered by ``seed``.

    The *structure* is fixed — base-battery detach/reattach, a stuck gauge
    on the same battery, a collapsed charge regulator, transient command
    loss, one load spike — while exact firing times shift by a few minutes
    per seed. Identical seeds produce identical schedules, which is what
    makes a chaos run replayable; ``seed`` may also be an explicit
    :class:`numpy.random.Generator` (see :mod:`repro.determinism`).
    """
    rng = resolve_rng(seed)

    def jitter(hour: float, spread_h: float = 0.08) -> float:
        return units.hours_to_seconds(hour + float(rng.uniform(-spread_h, spread_h)))

    return FaultSchedule(
        [
            # The gauge on the base battery wedges early; its estimate
            # freezes near full while the real cell drains.
            GaugeStuckFault(BASE, jitter(0.3)),
            # The user briefly detaches the keyboard base; the wedged gauge
            # also botches the reattach OCV registration.
            BatteryDetachFault(BASE, jitter(0.6), reattach_s=jitter(0.8), reanchor_gauge=False),
            # The base channel's regulator collapses before the charge
            # window: it still converts, but at a quarter efficiency.
            RegulatorCollapseFault(BASE, jitter(1.5), efficiency_scale=0.25),
            # The controller link drops two ratio commands mid-meeting.
            CommandLossFault(jitter(2.2), n_commands=2),
            # A runaway background task lands during the meeting.
            LoadSpikeFault(jitter(3.0), duration_s=600.0, extra_w=6.0),
        ]
    )


def gauge_storm_schedule(seed: SeedLike = 7) -> FaultSchedule:
    """Every gauge failure mode in one day, all on the base battery.

    The sensor-fault stress preset for the protection subsystem: the
    estimate freezes, then the gauge goes dark, then a corrupted register
    steps the estimate, then an amplified sense offset drifts it — in
    that order, with seed-jittered firing times (same contract as
    :func:`chaos_schedule`). The power path itself is untouched, so any
    delivered-energy difference is purely how the stack handles a lying
    meter.
    """
    rng = resolve_rng(seed)

    def jitter(hour: float, spread_h: float = 0.08) -> float:
        return units.hours_to_seconds(hour + float(rng.uniform(-spread_h, spread_h)))

    return FaultSchedule(
        [
            GaugeStuckFault(BASE, jitter(0.3), end_s=jitter(1.0)),
            GaugeDropoutFault(BASE, jitter(1.3), end_s=jitter(1.9)),
            GaugeOffsetFault(BASE, jitter(2.5), offset=-0.25),
            GaugeDriftFault(BASE, jitter(3.2), offset_a=0.5, end_s=jitter(5.0)),
        ]
    )


#: Preset name -> fault-schedule builder.
_PRESET_SCHEDULES = {
    "classic": chaos_schedule,
    "gauge-storm": gauge_storm_schedule,
}


def run_config(
    resilient: bool,
    seed: int,
    with_faults: bool = True,
    dt_s: float = 15.0,
    engine: str = "reference",
    protection: str = "off",
    preset: str = "classic",
) -> EmulationResult:
    """One emulation run of the chaos day.

    Args:
        resilient: attach a :class:`~repro.core.health.HealthMonitor` (quarantine + degrade).
        seed: fault-schedule seed (ignored when ``with_faults`` is False).
        with_faults: inject the schedule, or run the clean baseline.
        dt_s: emulation step.
        engine: emulation engine.
        protection: attach a :class:`~repro.protection.ProtectionManager` in this mode to
            the *resilient* configuration (``"off"`` attaches none); the
            naive configuration never gets one — it is the unprotected
            baseline by definition.
        preset: fault-schedule preset (see :data:`PRESETS`).
    """
    return build_emulator(
        chaos_trace(),
        "tablet",
        dt_s=dt_s,
        engine=engine,
        protection=protection if resilient else "off",
        health=resilient,
        plug=chaos_plug(),
        faults=_PRESET_SCHEDULES[preset](seed) if with_faults else None,
    ).run()


@dataclass
class ChaosResult:
    """Per-configuration outcomes plus the resilient run's fault timeline."""

    comparison: Table
    timeline: Table
    results: Dict[str, EmulationResult]
    seed: int

    def tables(self) -> List[Table]:
        """All printable tables for this experiment."""
        return [self.comparison, self.timeline]


def run_chaos(
    seed: int = 7,
    dt_s: float = 15.0,
    engine: str = "reference",
    protection: str = "off",
    preset: str = "classic",
) -> ChaosResult:
    """Run the fault-free / naive / resilient comparison.

    ``protection`` arms the resilient configuration's
    :class:`~repro.protection.ProtectionManager` (``"off"``, the default, preserves the
    historical three-way comparison exactly); ``preset`` picks the fault
    schedule (:data:`PRESETS`).
    """
    if protection not in PROTECTION_MODES:
        raise ValueError(
            f"unknown protection mode {protection!r}; valid: {', '.join(PROTECTION_MODES)}"
        )
    if preset not in PRESETS:
        raise ValueError(f"unknown chaos preset {preset!r}; valid: {', '.join(PRESETS)}")
    results = {
        "fault-free": run_config(
            resilient=False, seed=seed, with_faults=False, dt_s=dt_s, engine=engine, preset=preset
        ),
        "naive": run_config(resilient=False, seed=seed, dt_s=dt_s, engine=engine, preset=preset),
        "resilient": run_config(
            resilient=True, seed=seed, dt_s=dt_s, engine=engine, protection=protection, preset=preset
        ),
    }

    comparison = Table(
        title=f"Chaos day (seed {seed}, preset {preset}): tablet trace under injected faults",
        headers=("Configuration", "Life (h)", "Delivered (Wh)", "Fault events", "Incidents", "Downtime (h)"),
    )
    for name, result in results.items():
        comparison.add_row(
            name,
            result.battery_life_h,
            units.joules_to_wh(result.delivered_j),
            len(result.fault_events),
            len(result.incidents),
            units.seconds_to_hours(sum(result.downtime_s)),
        )

    timeline = Table(
        title="Resilient run: fault and incident timeline",
        headers=("t (h)", "Source", "What", "Battery", "Detail"),
    )
    resilient = results["resilient"]
    entries = [(e.t, "fault", f"{e.fault} {e.action}", e.battery_index, e.detail) for e in resilient.fault_events]
    entries += [(i.t, "incident", i.kind, i.battery_index, i.detail) for i in resilient.incidents]
    for t, source, what, battery, detail in sorted(entries, key=lambda entry: entry[0]):
        timeline.add_row(units.seconds_to_hours(t), source, what, battery, detail)

    return ChaosResult(comparison=comparison, timeline=timeline, results=results, seed=seed)
