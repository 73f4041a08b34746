"""Fuel-gauge drift vs model-based estimation over a week of use.

The SDB runtime's decisions are only as good as the SoC numbers the fuel
gauges report (`QueryBatteryStatus` feeds every policy). A plain coulomb
counter drifts with its sense-resistor gain error and only recovers at
OCV rest corrections; the one-state EKF of
:mod:`repro.cell.estimation` fuses voltage continuously.

This experiment runs a week of daily *partial* phone cycling with a 2%
sense gain error and no rest corrections. Partial cycling is the
interesting (and increasingly common) case: a full charge clamps both
estimators at 100% and resets the drift, but a user on adaptive charging
(hold at 80%, Section 3.3's overnight posture) never gives the coulomb
counter that anchor — its error compounds daily, while the EKF's voltage
feedback keeps it bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.cell.estimation import EstimatorConfig, KalmanSocEstimator
from repro.cell.fuel_gauge import FuelGauge
from repro.cell.thevenin import new_cell
from repro.experiments.reporting import Table

#: Sense-resistor gain error both estimators must live with.
GAIN_ERROR = 0.02

#: Sense-amplifier offset, amps — the error that compounds (gain error
#: cancels over the day's closed charge/discharge loop).
OFFSET_A = 0.004

#: Days simulated.
DAYS = 7


@dataclass
class EstimationDriftResult:
    """Daily worst-case SoC error for each estimator."""

    daily: Table
    gauge_error_by_day: List[float]
    ekf_error_by_day: List[float]

    def tables(self) -> List[Table]:
        """All printable tables for this experiment."""
        return [self.daily]

    @property
    def final_gauge_error(self) -> float:
        """Coulomb counter error after the last day."""
        return self.gauge_error_by_day[-1]

    @property
    def final_ekf_error(self) -> float:
        """EKF error after the last day."""
        return self.ekf_error_by_day[-1]


def run_estimation_drift(days: int = DAYS, dt_s: float = 60.0) -> EstimationDriftResult:
    """A week of daily cycling through both estimators."""
    cell = new_cell("B06", soc=0.85)
    gauge = FuelGauge(cell, sense_gain_error=GAIN_ERROR, sense_offset_a=OFFSET_A)
    ekf = KalmanSocEstimator(cell, EstimatorConfig(sense_gain_error=GAIN_ERROR, sense_offset_a=OFFSET_A))

    daily = Table(
        title=f"SoC estimation error over {days} days (2% gain + 4 mA offset, no rest corrections)",
        headers=("Day", "Coulomb counter |error|", "Kalman estimator |error|"),
    )
    gauge_errors: List[float] = []
    ekf_errors: List[float] = []
    for day in range(days):
        # Daytime: a phone-like draw down to ~25%.
        moved_c = 0.0
        while cell.soc > 0.25:
            cell.step_current(0.45, dt_s)
            moved_c += 0.45 * dt_s
        # Evening: put back exactly the coulombs used, stopping at the
        # 85% adaptive-charging hold — never a full-charge anchor.
        while moved_c > 0.0 and cell.soc < 0.85:
            current = min(0.45, moved_c / dt_s)
            cell.step_current(-current, dt_s)
            moved_c -= current * dt_s
        gauge_error = abs(gauge.estimated_soc - cell.soc)
        ekf_error = abs(ekf.soc_estimate - cell.soc)
        gauge_errors.append(gauge_error)
        ekf_errors.append(ekf_error)
        daily.add_row(day + 1, gauge_error, ekf_error)
    return EstimationDriftResult(
        daily=daily,
        gauge_error_by_day=gauge_errors,
        ekf_error_by_day=ekf_errors,
    )
