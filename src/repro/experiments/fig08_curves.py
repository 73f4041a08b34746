"""Figure 8: battery-simulator parameter curves.

* (b) open-circuit potential vs state of charge for 5 batteries;
* (c) internal resistance vs state of charge for 8 batteries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.cell.thevenin import new_cell
from repro.experiments.reporting import Table

#: Batteries plotted in Figure 8(b) (five diverse OCP curves).
FIG8B_BATTERIES = ("B01", "B03", "B06", "B13", "B09")

#: Batteries plotted in Figure 8(c) (eight diverse resistance curves).
FIG8C_BATTERIES = ("B01", "B02", "B03", "B06", "B09", "B12", "B13", "B10")

#: SoC sample grid (%), matching the paper's 0-100 axis.
SOC_GRID_PCT = tuple(range(0, 101, 10))


@dataclass
class Fig8Result:
    """Both curve panels."""

    ocp: Table
    resistance: Table
    ocp_series: Dict[str, List[float]]
    resistance_series: Dict[str, List[float]]

    def tables(self) -> List[Table]:
        """All printable tables for this experiment."""
        return [self.ocp, self.resistance]


def run_figure8() -> Fig8Result:
    """Regenerate the OCP and resistance curves of Figure 8(b, c)."""
    ocp = Table(
        title="Figure 8(b): open-circuit potential (V) vs state of charge",
        headers=("SoC (%)",) + FIG8B_BATTERIES,
    )
    ocp_series: Dict[str, List[float]] = {bid: [] for bid in FIG8B_BATTERIES}
    cells_b = {bid: new_cell(bid) for bid in FIG8B_BATTERIES}
    for pct in SOC_GRID_PCT:
        row = [pct]
        for bid in FIG8B_BATTERIES:
            value = cells_b[bid].params.ocp(pct / 100.0)
            ocp_series[bid].append(value)
            row.append(value)
        ocp.add_row(*row)

    resistance = Table(
        title="Figure 8(c): internal resistance (ohm) vs state of charge",
        headers=("SoC (%)",) + FIG8C_BATTERIES,
    )
    resistance_series: Dict[str, List[float]] = {bid: [] for bid in FIG8C_BATTERIES}
    cells_c = {bid: new_cell(bid) for bid in FIG8C_BATTERIES}
    for pct in SOC_GRID_PCT:
        row = [pct]
        for bid in FIG8C_BATTERIES:
            value = cells_c[bid].params.dcir(pct / 100.0)
            resistance_series[bid].append(value)
            row.append(value)
        resistance.add_row(*row)

    return Fig8Result(
        ocp=ocp,
        resistance=resistance,
        ocp_series=ocp_series,
        resistance_series=resistance_series,
    )
