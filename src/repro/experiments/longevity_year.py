"""A year of ownership: what wear balancing buys (Section 3.3's CCB).

The CCB metric exists because "a device's longevity is maximized by
balancing CCB" — but the paper never shows a long-horizon run. This
experiment simulates a year of daily use on the smart-watch pairing
(rigid Li-ion chi=1000 cycles, bendable chi=600) under three policies:

* **RBL only** (directive 1.0) — minimizes daily losses, concentrates
  cycling on the efficient battery;
* **CCB only** (directive 0.0) — balances normalized wear;
* **blended 0.5** — the paper's default posture.

Each simulated day: the day's trace discharges the pack under the
policy, then an overnight charge refills it (also under the policy's
charge-side counterpart). Days are compressed (coarse dt) because only
the *throughput distribution* matters at this horizon.

Reported: pack capacity retention and CCB after a year, plus the day on
which the first battery fell below the 80% warranty line.

The outcome is instructive rather than triumphant: the CCB-leaning
policies do exactly what Section 3.3 promises — the wear ratios converge
(final CCB ~ 1.0 vs ~1.1 under pure RBL) — but *capacity retention* is
dominated by each chemistry's fade-per-cycle, which the datasheet cycle
count chi only loosely tracks. Balancing the paper's lambda is the right
lever for preserving each battery's *headline capability* proportionally;
it is not, by itself, a worst-case-retention maximizer. (This is faithful
to reality: chi is a warranty number measured at one condition, not a
fade model.)
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.checkpoint.format import read_checkpoint, write_checkpoint
from repro.checkpoint.state import (
    _capture_controller,
    _restore_controller,
    capture_cell,
    capture_gauge,
    capture_runtime,
    restore_cell,
    restore_gauge,
    restore_runtime,
)
from repro.core.metrics import cycle_count_balance, wear_ratios
from repro.errors import CheckpointError
from repro.core.policies.blended import BlendedChargePolicy, BlendedDischargePolicy
from repro.core.runtime import SDBRuntime
from repro.emulator.devices import build_controller
from repro.emulator.emulator import SDBEmulator
from repro.experiments.reporting import Table
from repro.workloads.generators import smartwatch_day_trace

#: Warranty line: a battery below this capacity factor has failed.
WARRANTY_RETENTION = 0.80

#: Overnight charger power, watts.
CHARGER_W = 2.5

DIRECTIVES = {
    "rbl only (p=1.0)": 1.0,
    "blended (p=0.5)": 0.5,
    "ccb only (p=0.0)": 0.0,
}


@dataclass
class YearOutcome:
    """One policy's year."""

    name: str
    retention_by_battery: List[float]
    final_ccb: float
    first_warranty_breach_day: Optional[int]

    @property
    def pack_retention(self) -> float:
        """Capacity-weighted mean retention."""
        return sum(self.retention_by_battery) / len(self.retention_by_battery)

    @property
    def worst_retention(self) -> float:
        """The weakest battery's retention (what warranties track)."""
        return min(self.retention_by_battery)


@dataclass
class LongevityResult:
    """All policies' years."""

    summary: Table
    outcomes: Dict[str, YearOutcome]

    def tables(self) -> List[Table]:
        """All printable tables for this experiment."""
        return [self.summary]


def _day_checkpoint_payload(
    controller, runtime, *, directive: float, days: int, dt_s: float, engine: str, next_day: int, breach_day: Optional[int]
) -> Dict[str, Any]:
    """A day-boundary ``repro.ckpt/v3`` payload for the longevity loop.

    Unlike the in-run emulation checkpoints, this one captures state at
    a day boundary: the pack's electrical + aging state, the controller
    registers, and the runtime — enough to continue the year from
    ``next_day`` identically to a run that was never interrupted.
    """
    return {
        "kind": "longevity-day",
        "config": {"directive": directive, "days": days, "dt_s": dt_s, "engine": engine},
        "next_day": next_day,
        "breach_day": breach_day,
        "cells": [capture_cell(cell) for cell in controller.cells],
        "gauges": [capture_gauge(gauge) for gauge in controller.gauges],
        "controller": _capture_controller(controller),
        "runtime": capture_runtime(runtime),
    }


def _restore_day_checkpoint(
    path: str, controller, runtime, *, directive: float, days: int, dt_s: float, engine: str
) -> "tuple[int, Optional[int]]":
    """Restore a day-boundary checkpoint; returns ``(next_day, breach_day)``."""
    payload = read_checkpoint(path)
    if payload.get("kind") != "longevity-day":
        raise CheckpointError(
            f"not a longevity day checkpoint (kind={payload.get('kind')!r})"
        )
    expected = {"directive": directive, "days": days, "dt_s": dt_s, "engine": engine}
    if payload.get("config") != expected:
        raise CheckpointError(
            f"longevity checkpoint config {payload.get('config')!r} does not "
            f"match this run ({expected!r})"
        )
    if len(payload["cells"]) != controller.n or len(payload["gauges"]) != controller.n:
        raise CheckpointError("longevity checkpoint pack size does not match")
    for cell, data in zip(controller.cells, payload["cells"]):
        restore_cell(cell, data)
    for gauge, data in zip(controller.gauges, payload["gauges"]):
        restore_gauge(gauge, data)
    _restore_controller(controller, payload["controller"])
    restore_runtime(runtime, payload["runtime"])
    breach = payload["breach_day"]
    return int(payload["next_day"]), None if breach is None else int(breach)


def simulate_year(
    directive: float,
    days: int = 365,
    dt_s: float = 120.0,
    name: str = "",
    engine: str = "reference",
    checkpoint_path: Optional[str] = None,
) -> YearOutcome:
    """Run ``days`` of daily cycling under one directive setting.

    With ``checkpoint_path`` set, the loop checkpoints at every day
    boundary and resumes from the file when it already exists — a year
    interrupted at day 200 finishes identically to one that ran straight
    through. The file is removed once the year completes.
    """
    controller = build_controller("watch")
    runtime = SDBRuntime(
        controller,
        discharge_policy=BlendedDischargePolicy(directive),
        charge_policy=BlendedChargePolicy(directive),
        update_interval_s=600.0,
    )
    # A gentler watch day (no run) that the pack survives daily.
    trace = smartwatch_day_trace(run_power_w=0.0, seed=11)
    breach_day: Optional[int] = None
    start_day = 0
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        start_day, breach_day = _restore_day_checkpoint(
            checkpoint_path, controller, runtime,
            directive=directive, days=days, dt_s=dt_s, engine=engine,
        )
    for day in range(start_day, days):
        runtime.force_update()
        emulator = SDBEmulator(controller, runtime, trace, dt_s=dt_s, engine=engine)
        emulator.run()
        # Overnight charge back to (near) full.
        t = 0.0
        while t < 6 * 3600.0 and not all(cell.is_full for cell in controller.cells):
            runtime.tick(trace.end_s + t, 0.0, external_w=CHARGER_W)
            controller.step_charge(CHARGER_W, 60.0)
            t += 60.0
        if breach_day is None and any(
            cell.aging.capacity_factor < WARRANTY_RETENTION for cell in controller.cells
        ):
            breach_day = day + 1
        # Electrical reset for the next day (keep aging, of course).
        for cell in controller.cells:
            cell.reset(max(cell.soc, 0.999), keep_aging=True)
        if checkpoint_path is not None:
            write_checkpoint(
                checkpoint_path,
                _day_checkpoint_payload(
                    controller, runtime,
                    directive=directive, days=days, dt_s=dt_s, engine=engine,
                    next_day=day + 1, breach_day=breach_day,
                ),
            )
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        os.remove(checkpoint_path)
    return YearOutcome(
        name=name,
        retention_by_battery=[cell.aging.capacity_factor for cell in controller.cells],
        final_ccb=cycle_count_balance(wear_ratios(controller.cells)),
        first_warranty_breach_day=breach_day,
    )


def run_longevity_year(
    days: int = 365,
    dt_s: float = 120.0,
    engine: str = "reference",
    checkpoint_dir: Optional[str] = None,
) -> LongevityResult:
    """Run the three directive settings over a simulated year.

    With ``checkpoint_dir`` set, each directive's year checkpoints daily
    into its own ``longevity_p<directive>.ckpt.json`` file there, and a
    re-run after an interruption resumes every unfinished year from its
    last completed day.
    """
    summary = Table(
        title=f"A {days}-day ownership simulation on the watch pairing",
        headers=(
            "Policy",
            "Li-ion retention (%)",
            "Bendable retention (%)",
            "Worst battery (%)",
            "Final CCB",
            "Warranty breach day",
        ),
    )
    outcomes: Dict[str, YearOutcome] = {}
    for name, directive in DIRECTIVES.items():
        checkpoint_path = None
        if checkpoint_dir is not None:
            os.makedirs(checkpoint_dir, exist_ok=True)
            checkpoint_path = os.path.join(checkpoint_dir, f"longevity_p{directive:g}.ckpt.json")
        outcome = simulate_year(
            directive, days=days, dt_s=dt_s, name=name, engine=engine, checkpoint_path=checkpoint_path
        )
        outcomes[name] = outcome
        summary.add_row(
            name,
            100.0 * outcome.retention_by_battery[0],
            100.0 * outcome.retention_by_battery[1],
            100.0 * outcome.worst_retention,
            outcome.final_ccb,
            outcome.first_warranty_breach_day,
        )
    return LongevityResult(summary=summary, outcomes=outcomes)
