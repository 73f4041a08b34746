"""Electric-vehicle route workloads (Section 8's future-work direction).

"An EV's NAV system could provide the vehicle's route as a hint to the
SDB Runtime, which could then decide the appropriate batteries based on
traffic, hills, temperature, and other factors."

This module makes that scenario runnable at light-EV scale (an e-bike /
scooter class vehicle keeps currents compatible with the cell models):

* a longitudinal vehicle model turning route segments (distance, speed,
  grade) into a battery power trace;
* heterogeneous EV battery descriptors — a big high-energy pack and a
  smaller high-power pack — built with the same descriptor machinery as
  the phone/tablet/watch cells;
* the NAV hint: the route's future high-power energy, which feeds the
  Oracle policy so the high-power pack is preserved for the climbs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.cell.thevenin import TheveninCell
from repro.chemistry.library import BatteryDescriptor, make_cell_params
from repro.chemistry.types import ChemistryType
from repro.hardware.discharge import DischargeCircuitSpec
from repro.hardware.microcontroller import SDBMicrocontroller
from repro.workloads.traces import PowerTrace, Segment

#: Gravitational acceleration, m/s^2.
G = 9.81
#: Air density, kg/m^3.
AIR_DENSITY = 1.2


@dataclass(frozen=True)
class VehicleParams:
    """Longitudinal model of a light electric vehicle.

    Defaults describe an e-bike class vehicle; the model is standard
    rolling + aero + grade resistance with a drivetrain efficiency.
    """

    mass_kg: float = 110.0  # vehicle + rider
    rolling_coeff: float = 0.008
    drag_area_m2: float = 0.5  # Cd * A
    drivetrain_efficiency: float = 0.85
    accessory_power_w: float = 15.0  # lights, display, controller

    def __post_init__(self) -> None:
        if not 0.0 < self.drivetrain_efficiency <= 1.0:
            raise ValueError("drivetrain efficiency must be in (0, 1]")

    def battery_power_w(self, speed_mps: float, grade: float) -> float:
        """Battery draw to hold ``speed_mps`` on a ``grade`` slope.

        Grade is rise over run (0.05 = 5%). Regenerative braking is not
        modeled: downhill demand floors at the accessory power.
        """
        if speed_mps < 0:
            raise ValueError("speed must be non-negative")
        rolling = self.rolling_coeff * self.mass_kg * G
        aero = 0.5 * AIR_DENSITY * self.drag_area_m2 * speed_mps * speed_mps
        climb = self.mass_kg * G * grade
        tractive_w = (rolling + aero + climb) * speed_mps
        if tractive_w <= 0:
            return self.accessory_power_w
        return tractive_w / self.drivetrain_efficiency + self.accessory_power_w


@dataclass(frozen=True)
class RouteSegment:
    """One leg of a planned route."""

    name: str
    distance_m: float
    speed_mps: float
    grade: float = 0.0

    def __post_init__(self) -> None:
        if self.distance_m <= 0 or self.speed_mps <= 0:
            raise ValueError("distance and speed must be positive")

    @property
    def duration_s(self) -> float:
        """Time to traverse the segment at its planned speed."""
        return self.distance_m / self.speed_mps


def route_power_trace(route: Sequence[RouteSegment], vehicle: VehicleParams = VehicleParams()) -> PowerTrace:
    """Battery power trace for a route under the vehicle model."""
    if not route:
        raise ValueError("route needs at least one segment")
    segments: List[Segment] = []
    t = 0.0
    for leg in route:
        power = vehicle.battery_power_w(leg.speed_mps, leg.grade)
        segments.append(Segment(t, leg.duration_s, power))
        t += leg.duration_s
    return PowerTrace(segments)


def commute_route() -> Tuple[RouteSegment, ...]:
    """A commute with a long flat stretch and a steep climb near the end.

    The climb is what the NAV hint is for: a route-blind policy spends
    the high-power pack on the flats and cannot summit.
    """
    return (
        RouteSegment("neighborhood", distance_m=1500.0, speed_mps=5.0, grade=0.01),
        RouteSegment("river flat", distance_m=5000.0, speed_mps=6.0, grade=0.0),
        RouteSegment("rolling hills", distance_m=2500.0, speed_mps=5.0, grade=0.015),
        RouteSegment("valley flat", distance_m=3000.0, speed_mps=6.0, grade=0.0),
        RouteSegment("summit climb", distance_m=1000.0, speed_mps=2.8, grade=0.07),
        RouteSegment("campus", distance_m=800.0, speed_mps=4.0, grade=0.0),
    )


#: High-energy EV pack: a large Type 2 brick. Sized so the commute is
#: comfortably within pack energy but the summit climb exceeds this
#: pack's power capability alone.
EV_HIGH_ENERGY = BatteryDescriptor(
    battery_id="EV-HE",
    label="EV high-energy pack",
    chemistry=ChemistryType.TYPE_2_LCO_STANDARD,
    capacity_mah=40_000.0,
    r_scale=2.0,  # pack wiring raises effective DCIR over a bare cell
    dcir_decay=4.0,
    r_ct_scale=0.15,
    c_plate_f=8000.0,
    max_discharge_c=4.0,  # parallel strings sustain pack-level 4C
)

#: High-power EV pack: a smaller Type 1 (LFP) booster for hills.
EV_HIGH_POWER = BatteryDescriptor(
    battery_id="EV-HP",
    label="EV high-power booster pack",
    chemistry=ChemistryType.TYPE_1_LFP_POWER,
    capacity_mah=12_000.0,
    r_scale=1.0,
    dcir_decay=5.0,
    r_ct_scale=0.20,
    c_plate_f=3000.0,
)


def ev_cells(soc: float = 1.0) -> List[TheveninCell]:
    """Fresh [high-energy, high-power] EV cells."""
    return [
        TheveninCell(make_cell_params(EV_HIGH_ENERGY), soc=soc),
        TheveninCell(make_cell_params(EV_HIGH_POWER), soc=soc),
    ]


#: Battery power above this is "climb power" the booster pack should be
#: preserved for (the flats and rolling hills sit below, the summit above).
CLIMB_POWER_THRESHOLD_W = 250.0

#: Discharge-circuit parameters scaled for EV currents: the integrated
#: switch of a vehicle power stage has sub-milliohm on resistance, and
#: controller overhead is negligible against traction power.
EV_DISCHARGE_SPEC = DischargeCircuitSpec(
    controller_overhead_w=0.05,
    drive_loss_fraction=0.005,
    switch_resistance=0.0008,
    v_bus=3.7,
)


def ev_controller(soc: float = 1.0) -> SDBMicrocontroller:
    """An SDB controller over the two EV packs with EV-scale circuits."""
    return SDBMicrocontroller(ev_cells(soc=soc), discharge_spec=EV_DISCHARGE_SPEC)
