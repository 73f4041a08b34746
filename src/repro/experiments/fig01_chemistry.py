"""Figure 1: Li-ion battery properties.

* (a) the six-axis comparison of the four chemistry types;
* (b) capacity after N cycles at 0.5 / 0.7 / 1.0 A charging (the fragile
  Type 2 sample cell, library id B06);
* (c) internal heat loss % vs discharge C-rate for Types 2, 3 and 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro import units
from repro.cell.thevenin import TheveninCell, new_cell
from repro.chemistry.types import CHEMISTRY_SPECS, ChemistryType
from repro.experiments.reporting import Table

#: Charging currents of Figure 1(b), amps, on the 2600 mAh sample cell.
FIG1B_CURRENTS_A = (0.5, 0.7, 1.0)

#: Cycle counts at which Figure 1(b) samples capacity.
FIG1B_CYCLE_POINTS = (0, 100, 200, 300, 400, 500, 600)

#: C-rates of Figure 1(c)'s sweep.
FIG1C_C_RATES = (0.05, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)

#: Battery used per chemistry type in Figure 1(c).
FIG1C_BATTERIES = {
    ChemistryType.TYPE_2_LCO_STANDARD: "B06",
    ChemistryType.TYPE_3_LCO_HIGH_POWER: "B03",
    ChemistryType.TYPE_4_BENDABLE: "B01",
}


@dataclass
class Fig1Result:
    """All three panels of Figure 1."""

    radar: Table
    longevity: Table
    heat_loss: Table
    #: retention (%) after the final cycle per charging current
    final_retention_pct: Dict[float, float]
    #: heat loss (%) at the top measured C-rate per type label
    peak_heat_loss_pct: Dict[str, float]

    def tables(self) -> List[Table]:
        """All printable tables for this experiment."""
        return [self.radar, self.longevity, self.heat_loss]


def _radar_table() -> Table:
    table = Table(
        title="Figure 1(a): Li-ion batteries compared (0-10 per axis)",
        headers=("Axis",) + tuple(ct.short_name for ct in ChemistryType),
    )
    axes = CHEMISTRY_SPECS[ChemistryType.TYPE_1_LFP_POWER].radar.as_mapping().keys()
    for axis in axes:
        table.add_row(
            axis,
            *(CHEMISTRY_SPECS[ct].radar.as_mapping()[axis] for ct in ChemistryType),
        )
    return table


def _longevity_table() -> tuple:
    table = Table(
        title="Figure 1(b): capacity after N cycles vs charging current (Type 2 sample)",
        headers=("Cycle count",) + tuple(f"{amps:.1f} A" for amps in FIG1B_CURRENTS_A),
    )
    retention: Dict[float, List[float]] = {}
    for amps in FIG1B_CURRENTS_A:
        cell = new_cell("B06")
        c_rate = units.amps_to_c_rate(amps, cell.params.capacity_c)
        series = [100.0]
        done = 0
        for target in FIG1B_CYCLE_POINTS[1:]:
            cell.aging.simulate_cycles(target - done, c_rate, c_rate)
            done = target
            series.append(cell.aging.capacity_factor * 100.0)
        retention[amps] = series
    for i, count in enumerate(FIG1B_CYCLE_POINTS):
        table.add_row(count, *(retention[a][i] for a in FIG1B_CURRENTS_A))
    final = {a: retention[a][-1] for a in FIG1B_CURRENTS_A}
    return table, final


def measure_heat_loss_pct(cell: TheveninCell, c_rate: float, duration_s: float = 60.0, dt: float = 1.0) -> float:
    """Internal heat as % of chemical energy drawn at a constant C-rate.

    Drives the cell at the requested rate for a short window mid-SoC and
    compares dissipated heat against the open-circuit energy consumed —
    the quantity Figure 1(c) plots.
    """
    cell.reset(0.6)
    current = units.c_rate_to_amps(c_rate, cell.params.capacity_c)
    heat = 0.0
    chem_before = cell.open_circuit_energy_j()
    t = 0.0
    while t < duration_s:
        heat += cell.step_current(current, dt).heat_j
        t += dt
    chem_used = chem_before - cell.open_circuit_energy_j()
    if chem_used <= 0:
        return 0.0
    return heat / chem_used * 100.0


def _heat_loss_table() -> tuple:
    labels = {ct: f"{ct.short_name}" for ct in FIG1C_BATTERIES}
    table = Table(
        title="Figure 1(c): internal heat loss (%) vs discharge C-rate",
        headers=("C-rate",) + tuple(labels[ct] for ct in FIG1C_BATTERIES),
    )
    series: Dict[str, List[float]] = {labels[ct]: [] for ct in FIG1C_BATTERIES}
    for c_rate in FIG1C_C_RATES:
        row = [c_rate]
        for ctype, battery_id in FIG1C_BATTERIES.items():
            cell = new_cell(battery_id)
            max_c = cell.params.max_discharge_c
            if c_rate > max_c:
                row.append(None)
                continue
            loss = measure_heat_loss_pct(cell, c_rate)
            series[labels[ctype]].append(loss)
            row.append(loss)
        table.add_row(*row)
    peak = {label: (values[-1] if values else 0.0) for label, values in series.items()}
    return table, peak


def run_figure1() -> Fig1Result:
    """Regenerate all three panels of Figure 1."""
    radar = _radar_table()
    longevity, final_retention = _longevity_table()
    heat_loss, peak_heat = _heat_loss_table()
    return Fig1Result(
        radar=radar,
        longevity=longevity,
        heat_loss=heat_loss,
        final_retention_pct=final_retention,
        peak_heat_loss_pct=peak_heat,
    )
