"""The naive circuit designs the paper rejects (Figures 4a and 4b).

Section 3.2 develops the SDB hardware by first showing two straightforward
designs and their costs:

* **Naive discharging** (Figure 4a) — an electronic switch (FET) plus a
  smoothing capacitor in front of the regulator. The switch's on
  resistance sits in series with the full load current, so it burns
  ``I^2 * R_on`` *on top of* the regulator's own losses, and a
  high-power-capable FET + capacitors add BoM cost.
* **Naive charging** (Figure 4b) — a dedicated regulator per
  source/sink pair: O(N^2) switching regulators for N batteries (buck
  from external power, buck-boost between each battery pair).

Both are modeled here so the switching-loss ablation can quantify the
benefit of the integrated designs the paper proposes, and so the
regulator-count claim is executable rather than rhetorical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.hardware.discharge import DischargeCircuitSpec, SDBDischargeCircuit
from repro.hardware.regulator import BUCK_BOOST_DEFAULT, BUCK_DEFAULT, RegulatorSpec

#: On resistance of a discrete power FET suitable for battery switching.
#: An integrated regulator switch is a few milliohm; a discrete high-power
#: FET plus board parasitics is several times that.
NAIVE_FET_ON_RESISTANCE = 0.040


def naive_discharge_spec(
    base: DischargeCircuitSpec = DischargeCircuitSpec(),
    fet_resistance: float = NAIVE_FET_ON_RESISTANCE,
) -> DischargeCircuitSpec:
    """Figure 4(a)'s switch-and-capacitor design as a circuit spec.

    The discrete FET's on resistance is added in series with the
    integrated switch path, raising the I^2 R term; everything else
    (controller overhead, drive loss, duty quantization) is unchanged.
    """
    if fet_resistance < 0:
        raise ValueError("FET resistance must be non-negative")
    return DischargeCircuitSpec(
        controller_overhead_w=base.controller_overhead_w,
        drive_loss_fraction=base.drive_loss_fraction,
        switch_resistance=base.switch_resistance + fet_resistance,
        duty_resolution=base.duty_resolution,
        duty_offset=base.duty_offset,
        v_bus=base.v_bus,
    )


def naive_discharge_circuit(n_batteries: int) -> SDBDischargeCircuit:
    """The Figure 4(a) discharging circuit, ready to compare."""
    return SDBDischargeCircuit(n_batteries, naive_discharge_spec())


@dataclass(frozen=True)
class ChargingFabric:
    """Bill of materials for a charging fabric design.

    Attributes:
        name: design label.
        n_batteries: batteries served.
        regulators: the regulator instances the design needs.
    """

    name: str
    n_batteries: int
    regulators: Tuple[RegulatorSpec, ...]

    @property
    def regulator_count(self) -> int:
        """How many switched-mode regulators the fabric needs."""
        return len(self.regulators)


def naive_charging_fabric(n_batteries: int) -> ChargingFabric:
    """Figure 4(b): one buck per battery from external power plus one
    buck-boost per ordered battery pair — O(N^2) regulators."""
    if n_batteries < 1:
        raise ValueError("need at least one battery")
    regulators: List[RegulatorSpec] = []
    for _ in range(n_batteries):
        regulators.append(BUCK_DEFAULT)
    for src in range(n_batteries):
        for dst in range(n_batteries):
            if src != dst:
                regulators.append(BUCK_BOOST_DEFAULT)
    return ChargingFabric(name="naive O(N^2)", n_batteries=n_batteries, regulators=tuple(regulators))


def sdb_charging_fabric(n_batteries: int) -> ChargingFabric:
    """Figure 4(c): one synchronous *reversible* buck per battery — O(N).

    Reverse buck mode lets the same regulator both charge its battery
    from the bus and push the battery's energy back onto the bus, so
    battery-to-battery transfer needs no extra hardware.
    """
    if n_batteries < 1:
        raise ValueError("need at least one battery")
    from repro.hardware.regulator import REVERSIBLE_BUCK_DEFAULT

    return ChargingFabric(
        name="SDB O(N)",
        n_batteries=n_batteries,
        regulators=tuple(REVERSIBLE_BUCK_DEFAULT for _ in range(n_batteries)),
    )
