"""Figure 14: 2-in-1 battery management.

The tablet has an internal battery and an equal keyboard-base battery
(same traditional Li-ion chemistry). Two strategies:

* **cascade** (the shipping design): the base battery exists only to
  charge the internal battery; the system always runs off the internal
  one. Energy from the base passes through a reverse-buck stage, the
  charger, and two battery resistive legs before reaching the load.
* **simultaneous** (SDB): the discharge circuit draws from both batteries
  at once; splitting the current halves each battery's I^2 R loss.

The figure reports battery-life improvement (%) of simultaneous over
cascade across application workloads — the paper sees 15-25%, "up to
22%" as the headline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.policies.baselines import SingleBatteryDischargePolicy
from repro.core.policies.rbl import RBLDischargePolicy
from repro.core.runtime import SDBRuntime
from repro.emulator.devices import build_controller
from repro.emulator.emulator import SDBEmulator, cascade_transfer_hook
from repro.experiments.reporting import Table
from repro.workloads.profiles import TWO_IN_ONE_WORKLOADS, two_in_one_workload

#: Internal battery index in the tablet configuration.
INTERNAL = 0
#: Keyboard-base battery index.
BASE = 1

#: Power at which the base battery charges the internal one in the
#: cascade design (a 0.7C charger on the 5.2 Ah internal cell).
CASCADE_TRANSFER_W = 14.0

#: Trace length; long enough that every workload runs to depletion.
TRACE_HOURS = 16.0


@dataclass
class Fig14Result:
    """Per-workload battery life under both strategies."""

    comparison: Table
    improvement_pct: Dict[str, float]

    def tables(self) -> List[Table]:
        """All printable tables for this experiment."""
        return [self.comparison]

    @property
    def max_improvement_pct(self) -> float:
        """The headline 'up to N%' number."""
        return max(self.improvement_pct.values())

    @property
    def mean_improvement_pct(self) -> float:
        """Average improvement across workloads."""
        values = list(self.improvement_pct.values())
        return sum(values) / len(values)


def battery_life_h(workload: str, strategy: str, dt_s: float = 15.0) -> float:
    """Hours of battery life for one workload under one strategy."""
    trace = two_in_one_workload(workload, duration_h=TRACE_HOURS)
    controller = build_controller("tablet")
    if strategy == "cascade":
        policy = SingleBatteryDischargePolicy(INTERNAL)
        hooks = [cascade_transfer_hook(BASE, INTERNAL, CASCADE_TRANSFER_W)]
    elif strategy == "simultaneous":
        policy = RBLDischargePolicy()
        hooks = []
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    runtime = SDBRuntime(controller, discharge_policy=policy, update_interval_s=60.0)
    emulator = SDBEmulator(controller, runtime, trace, dt_s=dt_s, hooks=hooks)
    result = emulator.run()
    if result.completed:
        raise RuntimeError(f"workload {workload!r} did not deplete the batteries; lengthen TRACE_HOURS")
    return result.battery_life_h


def run_figure14(dt_s: float = 15.0) -> Fig14Result:
    """Regenerate Figure 14: life improvement per application workload."""
    comparison = Table(
        title="Figure 14: battery-life improvement of simultaneous draw over cascade",
        headers=("Workload", "Cascade life (h)", "Simultaneous life (h)", "Improvement (%)"),
    )
    improvement: Dict[str, float] = {}
    for workload in TWO_IN_ONE_WORKLOADS:
        cascade = battery_life_h(workload, "cascade", dt_s=dt_s)
        simultaneous = battery_life_h(workload, "simultaneous", dt_s=dt_s)
        pct = (simultaneous - cascade) / cascade * 100.0
        improvement[workload] = pct
        comparison.add_row(workload, cascade, simultaneous, pct)
    return Fig14Result(comparison=comparison, improvement_pct=improvement)
