"""Figure 10: validating the Thevenin model against "hardware".

The paper drives physical cells with an Arbin/Maccor cycler at 0.2, 0.5
and 0.7 A, compares measured terminal voltage against the model's
estimate across the discharge, and reports 97.5% accuracy. Our hardware
stand-in is the richer two-RC :class:`~repro.cell.reference.ReferenceCell`
(see DESIGN.md for why the substitution preserves what the figure
measures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.cell.reference import ReferenceCell, ReferenceCellParams
from repro.cell.thevenin import TheveninCell
from repro.chemistry.library import battery_by_id, make_cell_params
from repro.experiments.reporting import Table

#: The cycler currents of Figure 10, amps.
FIG10_CURRENTS_A = (0.2, 0.5, 0.7)

#: Battery validated (a 1500 mAh Type 2 phone cell: 0.2-0.7 A spans
#: 0.13C-0.47C, the range the paper's axes suggest).
FIG10_BATTERY = "B05"

#: SoC grid on which voltages are compared.
SOC_POINTS = tuple(p / 100.0 for p in range(95, 4, -5))


@dataclass
class Fig10Result:
    """Model-vs-reference voltages and the headline accuracy number."""

    comparison: Table
    accuracy_pct: float
    per_current_accuracy_pct: Dict[float, float]

    def tables(self) -> List[Table]:
        """All printable tables for this experiment."""
        return [self.comparison]


def _discharge_voltages(cell, current: float, dt: float = 10.0) -> Dict[float, float]:
    """Terminal voltage sampled at the SoC grid during a full drain."""
    samples: Dict[float, float] = {}
    targets = list(SOC_POINTS)
    while targets and not cell.is_empty:
        step = cell.step_current(current, dt)
        while targets and cell.soc <= targets[0]:
            samples[targets.pop(0)] = step.terminal_voltage
    return samples


def run_figure10() -> Fig10Result:
    """Drive model and reference with the same schedule; compare voltages."""
    comparison = Table(
        title="Figure 10: terminal voltage, model vs reference 'hardware'",
        headers=("SoC",)
        + tuple(f"{a:.1f}A ref (V)" for a in FIG10_CURRENTS_A)
        + tuple(f"{a:.1f}A model (V)" for a in FIG10_CURRENTS_A),
    )
    params = make_cell_params(battery_by_id(FIG10_BATTERY))
    ref_samples: Dict[float, Dict[float, float]] = {}
    model_samples: Dict[float, Dict[float, float]] = {}
    for amps in FIG10_CURRENTS_A:
        reference = ReferenceCell(ReferenceCellParams(base=params))
        model = TheveninCell(params)
        ref_samples[amps] = _discharge_voltages(reference, amps)
        model_samples[amps] = _discharge_voltages(model, amps)

    errors: List[float] = []
    per_current: Dict[float, float] = {}
    for amps in FIG10_CURRENTS_A:
        current_errors = []
        for soc in SOC_POINTS:
            ref_v = ref_samples[amps].get(soc)
            model_v = model_samples[amps].get(soc)
            if ref_v is None or model_v is None:
                continue
            current_errors.append(abs(model_v - ref_v) / ref_v)
        errors.extend(current_errors)
        per_current[amps] = 100.0 * (1.0 - sum(current_errors) / len(current_errors))

    for soc in SOC_POINTS:
        comparison.add_row(
            soc,
            *(ref_samples[a].get(soc) for a in FIG10_CURRENTS_A),
            *(model_samples[a].get(soc) for a in FIG10_CURRENTS_A),
        )

    accuracy = 100.0 * (1.0 - sum(errors) / len(errors))
    return Fig10Result(
        comparison=comparison,
        accuracy_pct=accuracy,
        per_current_accuracy_pct=per_current,
    )
