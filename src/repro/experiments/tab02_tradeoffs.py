"""Table 2: the tradeoffs that drive SDB policies, verified as behaviours.

The paper states three tradeoffs qualitatively; this driver measures each
one in the models so the table carries numbers:

* charge power vs longevity — cycle the same cell at a gentle and an
  aggressive charge rate, compare retention;
* discharge power vs longevity — same, on the discharge side;
* discharge power vs battery life — DCIR losses are proportional to the
  square of the current, so doubling the draw quadruples the loss rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.cell.thevenin import new_cell
from repro.experiments.fig01_chemistry import measure_heat_loss_pct
from repro.experiments.reporting import Table

#: Cell used for the measurements.
BATTERY = "B06"


@dataclass
class Table2Result:
    """Measured instantiations of the three tradeoffs."""

    tradeoffs: Table
    gentle_charge_retention_pct: float
    fast_charge_retention_pct: float
    gentle_discharge_retention_pct: float
    fast_discharge_retention_pct: float
    loss_ratio_double_power: float

    def tables(self) -> List[Table]:
        """All printable tables for this experiment."""
        return [self.tradeoffs]


def run_table2(n_cycles: int = 500) -> Table2Result:
    """Measure the three Table 2 tradeoffs on the sample cell."""
    gentle_charge = new_cell(BATTERY)
    gentle_charge.aging.simulate_cycles(n_cycles, charge_c_rate=0.2, discharge_c_rate=0.2)
    fast_charge = new_cell(BATTERY)
    fast_charge.aging.simulate_cycles(n_cycles, charge_c_rate=1.0, discharge_c_rate=0.2)

    gentle_discharge = new_cell(BATTERY)
    gentle_discharge.aging.simulate_cycles(n_cycles, charge_c_rate=0.2, discharge_c_rate=0.2)
    fast_discharge = new_cell(BATTERY)
    fast_discharge.aging.simulate_cycles(n_cycles, charge_c_rate=0.2, discharge_c_rate=1.5)

    loss_1c = measure_heat_loss_pct(new_cell(BATTERY), 1.0)
    loss_2c = measure_heat_loss_pct(new_cell(BATTERY), 2.0)

    tradeoffs = Table(
        title="Table 2: tradeoffs impacting SDB policies (measured)",
        headers=("Tradeoff", "Gentle", "Aggressive", "Measurement"),
    )
    tradeoffs.add_row(
        "Charge power vs longevity",
        100.0 * gentle_charge.aging.capacity_factor,
        100.0 * fast_charge.aging.capacity_factor,
        f"% capacity after {n_cycles} cycles at 0.2C vs 1.0C charge",
    )
    tradeoffs.add_row(
        "Discharge power vs longevity",
        100.0 * gentle_discharge.aging.capacity_factor,
        100.0 * fast_discharge.aging.capacity_factor,
        f"% capacity after {n_cycles} cycles at 0.2C vs 1.5C discharge",
    )
    tradeoffs.add_row(
        "Discharge power vs battery life",
        loss_1c,
        loss_2c,
        "DCIR heat loss % at 1C vs 2C (losses ~ I^2 R)",
    )

    return Table2Result(
        tradeoffs=tradeoffs,
        gentle_charge_retention_pct=100.0 * gentle_charge.aging.capacity_factor,
        fast_charge_retention_pct=100.0 * fast_charge.aging.capacity_factor,
        gentle_discharge_retention_pct=100.0 * gentle_discharge.aging.capacity_factor,
        fast_discharge_retention_pct=100.0 * fast_discharge.aging.capacity_factor,
        loss_ratio_double_power=loss_2c / loss_1c if loss_1c > 0 else float("inf"),
    )
