"""Traditional power-management IC: the baseline SDB replaces.

Section 2.2: a conventional PMIC treats its battery (pack) as a monolithic
reservoir. The OS can *query* (remaining charge, voltage, cycle count via
ACPI) but cannot *set* anything; charging follows one fixed profile burned
into the charger.

:class:`TraditionalPMIC` wraps a single cell (or a homogeneous pack with
the same step interface) behind exactly that contract, reusing the same
regulator loss models as the SDB hardware so baseline-vs-SDB comparisons
isolate the policy difference, not an accounting asymmetry.
"""

from __future__ import annotations

from typing import List

from repro.cell.fuel_gauge import BatteryStatus, FuelGauge
from repro.cell.thevenin import TheveninCell
from repro.hardware.charge import STANDARD_PROFILE, ChargeProfile, ChargerSpec, SDBChargeCircuit
from repro.hardware.discharge import DischargeCircuitSpec, SDBDischargeCircuit
from repro.hardware.microcontroller import ChargeReport, DischargeReport


class TraditionalPMIC:
    """Single-battery power management with a fixed charging profile."""

    def __init__(
        self,
        cell: TheveninCell,
        profile: ChargeProfile = STANDARD_PROFILE,
        discharge_spec: DischargeCircuitSpec = DischargeCircuitSpec(),
        charger_spec: ChargerSpec = ChargerSpec(),
    ):
        self.cell = cell
        self.gauge = FuelGauge(cell)
        self.profile = profile
        self._discharge_circuit = SDBDischargeCircuit(1, discharge_spec)
        self._charge_circuit = SDBChargeCircuit(1, charger_spec)

    @property
    def is_empty(self) -> bool:
        """True when the battery has hit its discharge cutoff."""
        return self.cell.is_empty

    @property
    def is_full(self) -> bool:
        """True when the battery has hit its charge cutoff."""
        return self.cell.is_full

    def query_status(self) -> List[BatteryStatus]:
        """The ACPI-style query: one monolithic battery entry."""
        return [self.gauge.status()]

    def step_discharge(self, load_w: float, dt: float) -> DischargeReport:
        """Serve the load from the single battery through the regulator."""
        if load_w < 0:
            raise ValueError("load power must be non-negative")
        if load_w == 0.0:
            step = self.cell.step_current(0.0, dt)
            return DischargeReport(dt, 0.0, 0.0, [0.0], [step])
        loss = self._discharge_circuit.loss_w(load_w)
        gross = load_w + loss
        step = self.cell.step_discharge_power(gross, dt)
        return DischargeReport(dt, load_w, loss, [gross], [step])

    def step_charge(self, external_w: float, dt: float) -> ChargeReport:
        """Charge per the fixed profile, capped by available supply power."""
        if external_w < 0:
            raise ValueError("external power must be non-negative")
        if external_w == 0.0 or self.cell.is_full:
            return ChargeReport(dt, external_w, [])
        profile_current = self.profile.current_for(self.cell)
        # Cap the current so input power stays within the supply.
        v = max(self.cell.terminal_voltage(), 1e-6)
        eff = self._charge_circuit.charger.efficiency(profile_current)
        supply_current = external_w * max(eff, 1e-6) / v
        commanded = min(profile_current, supply_current)
        channel = self._charge_circuit.charge_cell(self.cell, commanded, dt)
        return ChargeReport(dt, external_w, [channel])

    def time_to_charge(self, target_soc: float, external_w: float, dt: float = 10.0, max_s: float = 10 * 3600.0) -> float:
        """Seconds to charge from the current SoC to ``target_soc``.

        Used by the Figure 11(b) experiment for the traditional arm.
        """
        if not 0.0 < target_soc <= 1.0:
            raise ValueError("target soc must be in (0, 1]")
        elapsed = 0.0
        while self.cell.soc < target_soc and elapsed < max_s:
            report = self.step_charge(external_w, dt)
            elapsed += dt
            if report.terminal_w <= 0 and self.cell.is_full:
                break
        return elapsed
