"""The three emulation platforms of Section 4.3.

"We focus on three hardware platforms: a tablet, a phone and a watch. The
tablet is a '2-in-1' development device with Intel Core i5 CPU ... The
phone is a Qualcomm development device with Snapdragon 800 chipset ...
The watch is a Qualcomm Snapdragon 200 development board."

A :class:`DeviceSpec` names the platform, its battery configuration (ids
from the library), and its typical power envelope; :func:`build_controller`
instantiates the SDB hardware around fresh cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.cell.thevenin import new_cell
from repro.hardware.charge import ChargeProfile
from repro.hardware.microcontroller import SDBMicrocontroller


@dataclass(frozen=True)
class DeviceSpec:
    """One emulation platform.

    Attributes:
        name: platform label.
        description: the paper's hardware description.
        battery_ids: library ids of the batteries installed.
        idle_w: typical idle draw, watts.
        typical_w: typical active draw, watts.
        peak_w: peak sustained draw, watts.
        charger_w: wall-supply power the stock charger provides.
    """

    name: str
    description: str
    battery_ids: Tuple[str, ...]
    idle_w: float
    typical_w: float
    peak_w: float
    charger_w: float


DEVICES: Dict[str, DeviceSpec] = {
    "tablet": DeviceSpec(
        name="tablet",
        description="2-in-1 development device: Intel Core i5, 4GB DRAM, 128GB SSD, 12-inch display",
        battery_ids=("B11", "B11"),  # internal + keyboard base, equal Li-ion
        idle_w=3.0,
        typical_w=12.0,
        peak_w=36.0,
        charger_w=45.0,
    ),
    "phone": DeviceSpec(
        name="phone",
        description="Qualcomm development device: Snapdragon 800, 1GB DRAM, 4-inch display",
        battery_ids=("B06",),
        idle_w=0.15,
        typical_w=1.2,
        peak_w=5.0,
        charger_w=10.0,
    ),
    "watch": DeviceSpec(
        name="watch",
        description="Qualcomm Snapdragon 200 development board (smart-watch class)",
        battery_ids=("B12", "B01"),  # rigid Li-ion in the body + bendable strap
        idle_w=0.03,
        typical_w=0.12,
        peak_w=1.2,
        charger_w=2.5,
    ),
}


def build_controller(
    device: str,
    socs: Optional[Sequence[float]] = None,
    battery_ids: Optional[Sequence[str]] = None,
    profiles: Optional[Sequence[ChargeProfile]] = None,
) -> SDBMicrocontroller:
    """Instantiate the SDB hardware for a named platform.

    Args:
        device: key into :data:`DEVICES`.
        socs: optional per-battery initial SoC (default: all full).
        battery_ids: optional override of the platform's battery set (the
            Section 5 scenarios swap combinations in and out).
        profiles: optional per-battery charge profiles.
    """
    try:
        spec = DEVICES[device]
    except KeyError:
        raise KeyError(f"unknown device {device!r}; valid: {', '.join(DEVICES)}") from None
    ids = tuple(battery_ids) if battery_ids is not None else spec.battery_ids
    if socs is None:
        socs = [1.0] * len(ids)
    if len(socs) != len(ids):
        raise ValueError("need one initial SoC per battery")
    cells = [new_cell(bid, soc=s) for bid, s in zip(ids, socs)]
    return SDBMicrocontroller(cells, profiles=profiles)
