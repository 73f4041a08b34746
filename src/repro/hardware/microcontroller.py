"""The SDB microcontroller: mechanism enforcement between OS and batteries.

The paper's design principle (Section 3.1): "we only implement the
mechanisms in hardware, and all policies are managed and set by the OS."
This class is those mechanisms. It owns the cells, one fuel gauge per cell,
the discharging circuit and the charging circuit, and it *enforces* the
ratio vectors the OS hands down — including the safety behaviour a real
controller must have regardless of policy:

* an empty battery's discharge share is redistributed to the others,
* a full battery's charge share goes unused (reported back to the OS),
* per-cell power capability limits are never exceeded.

The OS-side :class:`repro.core.runtime.SDBRuntime` talks to this class
exclusively through the four paper APIs (see :mod:`repro.core.api`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cell.fuel_gauge import BatteryStatus, FuelGauge
from repro.cell.thevenin import StepResult, TheveninCell
from repro.errors import BatteryEmptyError, HardwareError, PowerLimitError
from repro.hardware.charge import (
    STANDARD_PROFILE,
    ChargeChannelResult,
    ChargeProfile,
    ChargerSpec,
    SDBChargeCircuit,
)
from repro.hardware.discharge import DischargeCircuitSpec, SDBDischargeCircuit, validate_ratios
from repro.obs.tracer import get_default_tracer

#: Fraction of a cell's theoretical max power the controller will actually
#: schedule; keeps the operating point away from the unstable peak.
POWER_SAFETY_MARGIN = 0.90


def redistribute_over_caps(powers: List[float], caps: Sequence[float], load_w: float) -> List[float]:
    """Shed power above each cap onto the channels with headroom, in place.

    Batteries at their power limit shed the excess proportionally to the
    remaining headroom of the others — the controller's safety behaviour
    during :meth:`SDBMicrocontroller.step_discharge`, factored out so the
    vectorized emulation engine and tests can exercise it directly. Raises
    :class:`~repro.errors.PowerLimitError` when the caps cannot absorb the
    total demand.
    """
    n = len(powers)
    for _ in range(n):
        excess = 0.0
        for i in range(n):
            if powers[i] > caps[i]:
                excess += powers[i] - caps[i]
                powers[i] = caps[i]
        if excess <= 1e-12:
            break
        headrooms = [max(0.0, caps[i] - powers[i]) for i in range(n)]
        headroom_total = sum(headrooms)
        if headroom_total <= 1e-12:
            raise PowerLimitError(
                f"batteries cannot sustain {load_w:.2f} W load " f"(capability {sum(caps):.2f} W)"
            )
        for i in range(n):
            powers[i] += excess * headrooms[i] / headroom_total
    return powers


@dataclass(frozen=True)
class DischargeReport:
    """Energy bookkeeping for one discharge step."""

    dt: float
    load_w: float
    circuit_loss_w: float
    battery_powers_w: List[float]
    steps: List[Optional[StepResult]]

    @property
    def battery_heat_w(self) -> float:
        """Total heat dissipated inside the batteries, watts."""
        return sum(s.heat_w for s in self.steps if s is not None)

    @property
    def total_loss_w(self) -> float:
        """Circuit loss plus internal battery heat, watts."""
        return self.circuit_loss_w + self.battery_heat_w


@dataclass(frozen=True)
class ChargeReport:
    """Energy bookkeeping for one charge step."""

    dt: float
    external_w: float
    channels: List[ChargeChannelResult]

    @property
    def input_used_w(self) -> float:
        """External power actually drawn, watts."""
        return sum(c.input_power_w for c in self.channels)

    @property
    def unused_w(self) -> float:
        """External power left on the table (full cells, profile caps)."""
        return max(0.0, self.external_w - self.input_used_w)

    @property
    def terminal_w(self) -> float:
        """Power delivered into battery terminals, watts."""
        return sum(c.terminal_power_w for c in self.channels)

    @property
    def loss_w(self) -> float:
        """Charger conversion loss, watts."""
        return sum(c.loss_w for c in self.channels)


@dataclass(frozen=True)
class TransferReport:
    """Energy bookkeeping for a battery-to-battery transfer step."""

    dt: float
    source_index: int
    dest_index: int
    drawn_w: float
    stored_w: float

    @property
    def loss_w(self) -> float:
        """Power lost between source terminals and destination terminals."""
        return self.drawn_w - self.stored_w


class SDBMicrocontroller:
    """Hardware mechanism layer for an N-battery SDB system."""

    def __init__(
        self,
        cells: Sequence[TheveninCell],
        discharge_spec: DischargeCircuitSpec = DischargeCircuitSpec(),
        charger_spec: ChargerSpec = ChargerSpec(),
        profiles: Optional[Sequence[ChargeProfile]] = None,
    ):
        cells = list(cells)
        if not cells:
            raise ValueError("need at least one battery")
        self.cells = cells
        self.gauges = [FuelGauge(cell) for cell in cells]
        self.discharge_circuit = SDBDischargeCircuit(len(cells), discharge_spec)
        self.charge_circuit = SDBChargeCircuit(len(cells), charger_spec)
        if profiles is None:
            profiles = [STANDARD_PROFILE] * len(cells)
        profiles = list(profiles)
        if len(profiles) != len(cells):
            raise ValueError("need one charge profile per battery")
        self.profiles = profiles
        n = len(cells)
        self.discharge_ratios = [1.0 / n] * n
        self.charge_ratios = [1.0 / n] * n
        self.connected = [True] * n
        #: Per-battery power derating commanded by the protection layer
        #: (see :mod:`repro.protection`): 1.0 means full capability, 0.5
        #: halves the battery's discharge cap and charge current. The
        #: vectorized engine mirrors this in its cap computation.
        self.protection_derating = [1.0] * n
        #: Fault injection: while positive, ratio commands from the OS are
        #: lost in transit (the prototype's Bluetooth link dropping frames);
        #: each failed command decrements the counter.
        self.command_dropout = 0
        #: Observability sink for the command path (see :mod:`repro.obs`);
        #: the emulator swaps in its tracer for traced runs.
        self.tracer = get_default_tracer()

    @property
    def n(self) -> int:
        """Number of batteries under management."""
        return len(self.cells)

    def _check_index(self, battery_index: int) -> int:
        """Validate a battery index; a real controller NAKs a bad address."""
        index = int(battery_index)
        if index != battery_index or not 0 <= index < self.n:
            raise HardwareError(
                f"battery index {battery_index!r} out of range 0..{self.n - 1}"
            )
        return index

    def _consume_command(self) -> None:
        """Fault injection: drop the command if the link is degraded."""
        if self.command_dropout > 0:
            self.command_dropout -= 1
            self.tracer.count("hw.commands.lost")
            raise HardwareError("controller command lost in transit")

    # ------------------------------------------------------------------ #
    # Commands from the OS (via the SDB Runtime)
    # ------------------------------------------------------------------ #

    def set_discharge_ratios(self, ratios: Sequence[float]) -> None:
        """Install a new discharge ratio vector (the paper's Discharge API)."""
        self._consume_command()
        self.discharge_ratios = validate_ratios(ratios, self.n)
        self.tracer.count("hw.commands.discharge")

    def set_charge_ratios(self, ratios: Sequence[float]) -> None:
        """Install a new charge ratio vector (the paper's Charge API)."""
        self._consume_command()
        self.charge_ratios = validate_ratios(ratios, self.n)
        self.tracer.count("hw.commands.charge")

    def select_profile(self, battery_index: int, profile: ChargeProfile) -> None:
        """Switch one battery's charging profile (Figure 4c's profile select)."""
        self.profiles[self._check_index(battery_index)] = profile
        self.tracer.count("hw.commands.profile_select")

    def set_connected(self, battery_index: int, connected: bool) -> None:
        """Mark a battery physically present or absent.

        Detachable form factors (the 2-in-1 keyboard base of Section 5.3)
        remove whole batteries at runtime; a disconnected battery carries
        no current in either direction until reattached.
        """
        self.connected[self._check_index(battery_index)] = bool(connected)

    def _usable_for_discharge(self, index: int) -> bool:
        return self.connected[index] and not self.cells[index].is_empty

    def query_status(self) -> List[BatteryStatus]:
        """The paper's QueryBatteryStatus: per-battery status array."""
        return [gauge.status() for gauge in self.gauges]

    # ------------------------------------------------------------------ #
    # Discharge path
    # ------------------------------------------------------------------ #

    def available_discharge_power(self) -> float:
        """Total load power the batteries can currently sustain."""
        return sum(
            cell.max_discharge_power() * POWER_SAFETY_MARGIN * self.protection_derating[i]
            for i, cell in enumerate(self.cells)
            if self._usable_for_discharge(i)
        )

    def discharge_caps(self) -> List[float]:
        """Per-battery safe discharge power caps, watts.

        The safety margin keeps the operating point away from the unstable
        maximum-power peak; unusable (empty or disconnected) batteries cap
        at zero, and the protection layer's derating scales the cap of any
        battery it has backed off.
        """
        return [
            cell.max_discharge_power() * POWER_SAFETY_MARGIN * self.protection_derating[i]
            if self._usable_for_discharge(i)
            else 0.0
            for i, cell in enumerate(self.cells)
        ]

    def _effective_discharge_ratios(self) -> List[float]:
        """Commanded ratios with empty/absent cells zeroed, renormalized."""
        ratios = [
            r if self._usable_for_discharge(i) else 0.0
            for i, r in enumerate(self.discharge_ratios)
        ]
        total = sum(ratios)
        if total <= 0.0:
            # All commanded batteries are unusable: fall back to whatever
            # batteries still hold charge (hardware keeps the device alive).
            ratios = [1.0 if self._usable_for_discharge(i) else 0.0 for i in range(self.n)]
            total = sum(ratios)
            if total <= 0.0:
                raise BatteryEmptyError("all batteries exhausted or disconnected")
        return [r / total for r in ratios]

    def step_discharge(self, load_w: float, dt: float) -> DischargeReport:
        """Serve ``load_w`` watts for ``dt`` seconds from the batteries.

        Applies the discharging circuit's realized (quantized) ratios, then
        redistributes any share that exceeds a battery's safe power
        capability. Raises :class:`PowerLimitError` if the system as a
        whole cannot serve the load.
        """
        if load_w < 0:
            raise ValueError("load power must be non-negative")
        if load_w == 0.0:
            steps: List[Optional[StepResult]] = []
            for cell in self.cells:
                steps.append(cell.step_current(0.0, dt))
            return DischargeReport(dt, 0.0, 0.0, [0.0] * self.n, steps)

        ratios = self._effective_discharge_ratios()
        powers, loss = self.discharge_circuit.split_load(load_w, ratios)

        # Cap-and-redistribute: batteries at their power limit shed the
        # excess onto the others, proportionally to remaining headroom.
        powers = redistribute_over_caps(powers, self.discharge_caps(), load_w)

        steps = []
        for cell, power in zip(self.cells, powers):
            if power <= 0.0:
                steps.append(cell.step_current(0.0, dt))
            else:
                steps.append(cell.step_discharge_power(power, dt))
        return DischargeReport(dt, load_w, loss, powers, steps)

    # ------------------------------------------------------------------ #
    # Charge path
    # ------------------------------------------------------------------ #

    def _current_for_budget(self, cell: TheveninCell, budget_w: float, eff_scale: float = 1.0) -> float:
        """Charge current that consumes about ``budget_w`` of input power.

        ``eff_scale`` folds in any per-channel efficiency derating (a
        collapsed regulator): a lossier channel affords less current for
        the same input budget.
        """
        if budget_w <= 0:
            return 0.0
        v = max(cell.terminal_voltage(), 1e-6)
        # Start from the budget current, clamped to the cell's rate limit so
        # the efficiency model is evaluated in its valid operating range.
        i_max = cell.params.max_charge_current
        current = min(budget_w / v, i_max)
        for _ in range(5):
            eff = self.charge_circuit.charger.efficiency(current) * eff_scale
            v_at = cell.ocp() + current * cell.resistance() - cell.v_rc
            current = min(budget_w * eff / max(v_at, 1e-6), i_max)
        return current

    def step_charge(self, external_w: float, dt: float) -> ChargeReport:
        """Distribute ``external_w`` of supply power per the charge ratios.

        Each channel charges at the lesser of its profile-commanded current
        and the current its power budget affords. Unused budget (full
        batteries, profile caps) is reported, not silently reallocated —
        reallocation is a *policy* decision that belongs to the OS runtime.
        """
        if external_w < 0:
            raise ValueError("external power must be non-negative")
        channels = []
        for i, (cell, profile, ratio) in enumerate(zip(self.cells, self.profiles, self.charge_ratios)):
            budget = external_w * ratio
            if budget <= 0.0 or cell.is_full or not self.connected[i]:
                channels.append(ChargeChannelResult(0.0, 0.0, 0.0, 0.0, 0.0))
                continue
            profile_current = profile.current_for(cell)
            derating = self.charge_circuit.channel_derating.get(i, 1.0)
            budget_current = self._current_for_budget(cell, budget, eff_scale=derating)
            commanded = min(profile_current, budget_current) * self.protection_derating[i]
            channels.append(self.charge_circuit.charge_cell(cell, commanded, dt, channel=i))
        return ChargeReport(dt, external_w, channels)

    # ------------------------------------------------------------------ #
    # Battery-to-battery transfer
    # ------------------------------------------------------------------ #

    def transfer(self, source_index: int, dest_index: int, power_w: float, dt: float) -> TransferReport:
        """Charge one battery from another (ChargeOneFromAnother mechanism)."""
        source_index = self._check_index(source_index)
        dest_index = self._check_index(dest_index)
        if source_index == dest_index:
            raise ValueError("source and destination must differ")
        if not (self.connected[source_index] and self.connected[dest_index]):
            return TransferReport(dt=dt, source_index=source_index, dest_index=dest_index, drawn_w=0.0, stored_w=0.0)
        source = self.cells[source_index]
        dest = self.cells[dest_index]
        self.tracer.count("hw.commands.transfer")
        result = self.charge_circuit.transfer_power(source, dest, power_w, dt)
        return TransferReport(
            dt=dt,
            source_index=source_index,
            dest_index=dest_index,
            drawn_w=result.input_power_w,
            stored_w=result.terminal_power_w,
        )
