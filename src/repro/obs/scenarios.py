"""Bundled runnable scenarios for ``repro trace``.

Each scenario builds a complete emulation (controller + runtime + workload
trace, and for the chaos variant a fault schedule and self-healing
runtime) so the CLI can produce a structured trace of a representative run
with one command::

    python -m repro trace tablet-day --out run.trace.jsonl

Scenarios are deliberately small: minutes of simulated activity resolve in
well under a second of wall clock, which is what the CI smoke job runs.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.vdag import (
    AggregateBattery,
    BatteryDAG,
    PhysicalBattery,
    SplitterBattery,
    TenantContract,
)
from repro.emulator.devices import DEVICES
from repro.emulator.emulator import SDBEmulator
from repro.faults.models import GaugeStuckFault
from repro.faults.schedule import FaultSchedule
from repro.fleet.spec import FLEET_SCENARIOS, build_emulator, require_protection
from repro.obs.tracer import Tracer
from repro.workloads.traces import PowerTrace, Segment

#: Day scenario -> ``(fleet workload, seed)``: each is that
#: :data:`~repro.fleet.spec.FLEET_SCENARIOS` workload at a fixed seed over
#: 24 h, and ``chaos-tablet`` and ``gauge-fault-tablet`` add their faults
#: to the tablet day. ``tenants-tablet`` has its own trace.
_DAYS: Dict[str, "tuple[str, int]"] = {
    "tablet-day": ("tablet-day", 3),
    "watch-day": ("watch-day", 7),
    "phone-day": ("phone-day", 11),
    "chaos-tablet": ("tablet-day", 3),
    "gauge-fault-tablet": ("tablet-day", 3),
}

#: The multi-tenant scenario's contracts. ``ui`` stays inside its claim
#: all day; ``sync`` claimed 1.5 W but starts drawing 4.5 W an hour in
#: (the misbehaving tenant) — it gets throttled to its claim within
#: :data:`~repro.core.vdag.DEFAULT_OVERDRAW_CHECKS` samples and later
#: spends its whole reserve, at which point its load is shed entirely.
TENANT_CONTRACTS = (
    TenantContract("ui", reserved_fraction=0.6, claimed_w=3.5),
    TenantContract("sync", reserved_fraction=0.18, claimed_w=1.5),
)

#: When the ``sync`` tenant goes rogue, seconds into the scenario.
TENANT_MISBEHAVE_S = 3600.0

#: Total scenario length: six tablet hours resolve in well under a
#: second of wall clock yet cover throttle, sustained over-draw, and
#: reserve exhaustion.
TENANT_DURATION_S = 6 * 3600.0


def tenant_demands(t: float) -> Dict[str, float]:
    """Per-tenant demanded power at time ``t`` for ``tenants-tablet``."""
    return {
        "ui": 3.0,
        "sync": 1.2 if t < TENANT_MISBEHAVE_S else 4.5,
    }


def _tenant_trace() -> PowerTrace:
    """The emulator-facing trace: the *sum of tenant demands* over time."""
    first = sum(tenant_demands(0.0).values())
    second = sum(tenant_demands(TENANT_MISBEHAVE_S).values())
    return PowerTrace(
        [
            Segment(0.0, TENANT_MISBEHAVE_S, first),
            Segment(TENANT_MISBEHAVE_S, TENANT_DURATION_S - TENANT_MISBEHAVE_S, second),
        ]
    )


def build_tenant_dag(n: int) -> BatteryDAG:
    """The two-cell aggregate + two-tenant splitter DAG of the scenario.

    The physical cells fan in to one ``pack`` aggregate; a ``contracts``
    splitter partitions that pack across :data:`TENANT_CONTRACTS`.
    """
    pack = AggregateBattery(
        "pack", [PhysicalBattery(f"cell{i}", i) for i in range(n)]
    )
    return BatteryDAG(SplitterBattery("contracts", pack, TENANT_CONTRACTS), n)

#: Names accepted by :func:`build_scenario` (and the CLI's ``trace`` command).
SCENARIOS = tuple(sorted([*_DAYS, "tenants-tablet"]))


def build_scenario(
    name: str,
    engine: str = "reference",
    dt_s: float = 10.0,
    tracer: Optional[Tracer] = None,
    seed: Optional[int] = None,
    protection: str = "off",
) -> SDBEmulator:
    """Instantiate one bundled scenario as a ready-to-run emulator.

    Args:
        name: one of :data:`SCENARIOS`.
        engine: emulation engine (``"reference"`` or ``"vectorized"``).
        dt_s: emulation step, seconds.
        tracer: tracer threaded through the run (default: the process
            default tracer — usually disabled).
        seed: chaos fault-schedule seed for ``chaos-tablet`` (default 7,
            the historical value); recorded in replay manifests so a
            replayed chaos run regenerates the identical schedule. The
            deterministic scenarios ignore it.
        protection: ``"off"`` (no protection subsystem), ``"monitor"``
            (envelope guards + estimator councils observe and record), or
            ``"enforce"`` (verdicts actuate derates/cutoffs/quarantines).
            Recorded in replay manifests: the mode changes the emulator's
            configuration digest.

    Raises:
        KeyError: for an unknown scenario name.
        ValueError: for an unknown protection mode.
    """
    require_protection(protection)
    if name == "tenants-tablet":
        # The multi-tenant power-contract scenario: the two tablet cells
        # aggregate into one pack split across two tenants; the per-step
        # load shaper routes each tenant's demand through the splitter's
        # admission control, so the pack serves only contracted power.
        dag = build_tenant_dag(len(DEVICES["tablet"].battery_ids))

        def shaper(t: float, dt: float, load: float) -> float:
            # The trace is the sum of tenant demands by construction;
            # admission control recomputes the served total from the
            # per-tenant breakdown (the argument is the pre-admission
            # aggregate and is deliberately ignored).
            return dag.account(t, dt, tenant_demands(t))

        return build_emulator(
            _tenant_trace(),
            "tablet",
            dt_s=dt_s,
            engine=engine,
            protection=protection,
            dag=dag,
            tracer=tracer,
            load_shaper=shaper,
        )
    try:
        workload, day_seed = _DAYS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; valid: {', '.join(SCENARIOS)}"
        ) from None
    trace, platform = FLEET_SCENARIOS[workload](day_seed, 24 * 3600.0)
    faults = None
    if name == "chaos-tablet":
        faults = FaultSchedule.chaos(
            seed=7 if seed is None else seed,
            duration_s=trace.duration_s,
            n_batteries=len(DEVICES[platform].battery_ids),
        )
    elif name == "gauge-fault-tablet":
        # The protection acceptance scenario: the base battery's gauge
        # freezes ten minutes in and never recovers. With protection off
        # the reported SoC drifts unboundedly from the true cell state;
        # the estimator council is expected to flag it within one tick.
        faults = FaultSchedule([GaugeStuckFault(1, 600.0)])
    return build_emulator(
        trace,
        platform,
        dt_s=dt_s,
        engine=engine,
        protection=protection,
        health=name == "chaos-tablet",
        faults=faults,
        tracer=tracer,
    )


def build_workload_emulator(
    trace: PowerTrace,
    device: str = "phone",
    engine: str = "reference",
    dt_s: float = 10.0,
    tracer: Optional[Tracer] = None,
) -> SDBEmulator:
    """Wrap an arbitrary workload trace (e.g. a loaded CSV) in an emulator."""
    return build_emulator(trace, device, dt_s=dt_s, engine=engine, tracer=tracer)
