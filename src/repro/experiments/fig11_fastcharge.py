"""Figure 11: the energy density / charge speed / longevity tradeoff.

An 8000 mAh device capacity budget is met three ways:

* **traditional** — 0% fast-charging capacity: two high energy-density
  Type 2 cells (library B09);
* **SDB** — 50% fast-charging: one B09 plus one fast-charging B14, with
  per-battery charge profiles and a charge-as-fast-as-possible policy;
* **all fast** — 100% fast-charging: two B14 cells.

Panels:

* (a) pack volumetric energy density vs % fast-charging capacity (the
  fast cells swell under high-current charging, so their *effective*
  density is 500-510 Wh/l against 590-600 for the high-energy cells);
* (b) wall-clock time to reach each charge level;
* (c) pack capacity retained after 1000 fast-charge cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro import units
from repro.cell.thevenin import new_cell
from repro.experiments.reporting import Table
from repro.hardware.charge import FAST_PROFILE, STANDARD_PROFILE, ChargeProfile
from repro.hardware.microcontroller import SDBMicrocontroller

#: Volumetric energy density of the high energy-density cells, Wh/l
#: (Section 5.1: 590-600).
HE_DENSITY_WH_L = 595.0

#: Effective density of the fast-charging cells after swell allowance
#: (Section 5.1: 530-540 raw, 500-510 effective).
FAST_EFFECTIVE_DENSITY_WH_L = 505.0

#: Fast-charging capacity fractions for panel (a).
DENSITY_FRACTIONS = (0.0, 0.25, 0.50, 0.75, 1.0)

#: Charge targets (% of pack capacity) for panel (b).
CHARGE_TARGETS_PCT = tuple(range(15, 90, 5))

#: External supply power, watts — generous so the profiles are binding.
SUPPLY_W = 80.0

#: Use (battery ids, profiles) per arm.
ARMS: Dict[str, Tuple[Tuple[str, ...], Tuple[ChargeProfile, ...]]] = {
    "traditional": (("B09", "B09"), (STANDARD_PROFILE, STANDARD_PROFILE)),
    "sdb": (("B09", "B14"), (STANDARD_PROFILE, FAST_PROFILE)),
    "all-fast": (("B14", "B14"), (FAST_PROFILE, FAST_PROFILE)),
}


@dataclass
class Fig11Result:
    """All three panels of Figure 11."""

    energy_density: Table
    charge_time: Table
    longevity: Table
    density_by_fraction: Dict[float, float]
    minutes_to_40pct: Dict[str, float]
    retention_pct: Dict[str, float]

    def tables(self) -> List[Table]:
        """All printable tables for this experiment."""
        return [self.energy_density, self.charge_time, self.longevity]


def pack_energy_density(fast_fraction: float) -> float:
    """Volumetric density of a pack with the given fast-capacity share.

    Densities combine harmonically: each Wh of fast capacity occupies
    ``1/505`` liters, each Wh of high-energy capacity ``1/595``.
    """
    if not 0.0 <= fast_fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    volume_per_wh = fast_fraction / FAST_EFFECTIVE_DENSITY_WH_L + (1.0 - fast_fraction) / HE_DENSITY_WH_L
    return 1.0 / volume_per_wh


def fastest_charge_ratios(controller: SDBMicrocontroller) -> List[float]:
    """Charge-power ratios that fill the pack as fast as possible.

    Each battery's share is proportional to the power its profile can
    absorb right now — the "charge the batteries as quickly as possible"
    parameter setting of Section 5.1.
    """
    weights = []
    for cell, profile in zip(controller.cells, controller.profiles):
        if cell.is_full:
            weights.append(0.0)
            continue
        current = profile.current_for(cell)
        weights.append(current * max(cell.terminal_voltage(), 1e-6))
    total = sum(weights)
    if total <= 0.0:
        return [1.0 / controller.n] * controller.n
    return [w / total for w in weights]


def charge_curve(
    battery_ids: Sequence[str],
    profiles: Sequence[ChargeProfile],
    targets_pct: Sequence[int] = CHARGE_TARGETS_PCT,
    supply_w: float = SUPPLY_W,
    dt: float = 10.0,
    max_hours: float = 6.0,
) -> Dict[int, float]:
    """Minutes to reach each pack-charge target from empty."""
    cells = [new_cell(bid, soc=0.0) for bid in battery_ids]
    controller = SDBMicrocontroller(cells, profiles=list(profiles))
    total_capacity = sum(cell.capacity_c for cell in cells)
    times: Dict[int, float] = {}
    targets = list(targets_pct)
    t = 0.0
    while targets and t < max_hours * 3600.0:
        controller.set_charge_ratios(fastest_charge_ratios(controller))
        controller.step_charge(supply_w, dt)
        t += dt
        charged_pct = 100.0 * sum(c.soc * c.capacity_c for c in cells) / total_capacity
        while targets and charged_pct >= targets[0]:
            times[targets.pop(0)] = units.seconds_to_minutes(t)
    return times


def arm_longevity_pct(battery_ids: Sequence[str], profiles: Sequence[ChargeProfile], n_cycles: int = 1000) -> float:
    """Pack capacity retained (%) after ``n_cycles`` of profile charging."""
    retained = 0.0
    total = 0.0
    for bid, profile in zip(battery_ids, profiles):
        cell = new_cell(bid)
        charge_c = min(profile.cc_c_rate, cell.params.max_charge_c)
        cell.aging.simulate_cycles(n_cycles, charge_c, 0.3)
        retained += cell.aging.capacity_factor * cell.params.capacity_c
        total += cell.params.capacity_c
    return 100.0 * retained / total


def run_figure11() -> Fig11Result:
    """Regenerate all three panels of Figure 11."""
    energy_density = Table(
        title="Figure 11(a): pack energy density vs % fast-charging capacity",
        headers=("Fast-charging capacity (%)", "Energy density (Wh/l)"),
    )
    density_by_fraction = {}
    for fraction in DENSITY_FRACTIONS:
        density = pack_energy_density(fraction)
        density_by_fraction[fraction] = density
        energy_density.add_row(fraction * 100.0, density)

    charge_time = Table(
        title="Figure 11(b): charging time (min) vs % charged",
        headers=("% charged", "Traditional battery", "SDB", "Fast-charging battery"),
    )
    curves = {name: charge_curve(ids, profiles) for name, (ids, profiles) in ARMS.items()}
    for target in CHARGE_TARGETS_PCT:
        charge_time.add_row(
            target,
            curves["traditional"].get(target),
            curves["sdb"].get(target),
            curves["all-fast"].get(target),
        )
    minutes_to_40 = {name: curve.get(40, float("inf")) for name, curve in curves.items()}

    longevity = Table(
        title="Figure 11(c): pack capacity retained after 1000 cycles",
        headers=("Configuration", "Longevity (% capacity after 1000 cycles)"),
    )
    retention = {}
    for name, (ids, profiles) in ARMS.items():
        pct = arm_longevity_pct(ids, profiles)
        retention[name] = pct
        label = {
            "traditional": "No fast-charging battery",
            "sdb": "SDB (50/50)",
            "all-fast": "All fast-charging battery",
        }[name]
        longevity.add_row(label, pct)

    return Fig11Result(
        energy_density=energy_density,
        charge_time=charge_time,
        longevity=longevity,
        density_by_fraction=density_by_fraction,
        minutes_to_40pct=minutes_to_40,
        retention_pct=retention,
    )
