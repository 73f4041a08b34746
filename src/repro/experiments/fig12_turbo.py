"""Figure 12: latency vs energy across CPU performance priority levels.

Two extreme users (network-bottlenecked and CPU/GPU-bottlenecked) run at
three OS-selectable power levels:

* **low** — the high power-density battery is disabled; the CPU sees only
  the high energy-density battery's sustained power;
* **medium** — both batteries enabled, CPU limited to equal peak draw
  from each (2x the high-energy battery's peak);
* **high** — CPU may draw each battery's maximum.

Each (task, level) pair yields a latency and a total energy =
CPU package energy + battery resistive losses for serving that draw; both
are normalized to the low level, which is how the paper plots the figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.cell.thevenin import new_cell
from repro.core.metrics import instantaneous_loss_w
from repro.core.policies.rbl import RBLDischargePolicy
from repro.emulator.cpu import (
    CpuPowerLevel,
    TurboCpu,
    compute_bottlenecked_task,
    network_bottlenecked_task,
)
from repro.experiments.reporting import Table

#: The high energy-density + high power-density battery pairing of
#: Section 5.1's discharging study.
HE_BATTERY = "B09"
HP_BATTERY = "B04"

PROFILES = {
    "network bottlenecked": network_bottlenecked_task,
    "cpu/gpu bottlenecked": compute_bottlenecked_task,
}


@dataclass
class Fig12Result:
    """Normalized latency and energy per (profile, level)."""

    latency: Table
    energy: Table
    latency_norm: Dict[Tuple[str, CpuPowerLevel], float]
    energy_norm: Dict[Tuple[str, CpuPowerLevel], float]

    def tables(self) -> List[Table]:
        """All printable tables for this experiment."""
        return [self.latency, self.energy]


def battery_loss_j(level: CpuPowerLevel, mean_power_w: float, latency_s: float) -> float:
    """Battery resistive losses while serving the task's mean draw.

    Low level uses the high-energy battery alone; medium/high split the
    draw loss-optimally across both (what the SDB runtime would do).
    """
    he = new_cell(HE_BATTERY, soc=0.8)
    hp = new_cell(HP_BATTERY, soc=0.8)
    if level is CpuPowerLevel.LOW:
        powers = [mean_power_w, 0.0]
    else:
        ratios = RBLDischargePolicy().discharge_ratios([he, hp], mean_power_w)
        powers = [mean_power_w * r for r in ratios]
    return instantaneous_loss_w([he, hp], powers) * latency_s


def run_figure12(cpu: TurboCpu = None) -> Fig12Result:
    """Regenerate Figure 12's latency and energy comparisons."""
    if cpu is None:
        cpu = TurboCpu()
    levels = (CpuPowerLevel.LOW, CpuPowerLevel.MEDIUM, CpuPowerLevel.HIGH)

    latency = Table(
        title="Figure 12: latency comparison (normalized to low power)",
        headers=("Profile",) + tuple(f"{lv.value} power" for lv in levels),
    )
    energy = Table(
        title="Figure 12: energy comparison (normalized to low power)",
        headers=("Profile",) + tuple(f"{lv.value} power" for lv in levels),
    )

    latency_norm: Dict[Tuple[str, CpuPowerLevel], float] = {}
    energy_norm: Dict[Tuple[str, CpuPowerLevel], float] = {}
    for profile_name, make_task in PROFILES.items():
        task = make_task()
        raw: Dict[CpuPowerLevel, Tuple[float, float]] = {}
        for level in levels:
            outcome = cpu.run_task(task, level)
            losses = battery_loss_j(level, outcome.mean_power_w, outcome.latency_s)
            raw[level] = (outcome.latency_s, outcome.cpu_energy_j + losses)
        base_latency, base_energy = raw[CpuPowerLevel.LOW]
        lat_row = [profile_name]
        en_row = [profile_name]
        for level in levels:
            lat = raw[level][0] / base_latency
            en = raw[level][1] / base_energy
            latency_norm[(profile_name, level)] = lat
            energy_norm[(profile_name, level)] = en
            lat_row.append(lat)
            en_row.append(en)
        latency.add_row(*lat_row)
        energy.add_row(*en_row)

    return Fig12Result(
        latency=latency,
        energy=energy,
        latency_norm=latency_norm,
        energy_norm=energy_norm,
    )
