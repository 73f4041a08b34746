"""Heterogeneous pack design: pick battery combinations for a device.

Section 1: "this design allows a system designer to select any
combination of batteries for an optimal design, including new chemistries
as they are invented." This module is that selection, made executable: it
enumerates two-way splits of a device's battery volume budget across the
library chemistries, derives each candidate pack's energy, peak power,
charge speed, longevity and cost analytically, filters by the designer's
requirements, and ranks what survives.

The Figure 11 tradeoff falls out as a special case (high-energy vs
fast-charge mixes), but the same machinery answers the wearable question
(how much strap volume must be bendable?) and the turbo question (how
much high-power capacity unlocks a CPU power level).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.chemistry.library import BATTERY_LIBRARY, BatteryDescriptor, battery_by_id

#: Volume split grid used when enumerating two-battery designs.
SPLIT_GRID = tuple(x / 10.0 for x in range(0, 11))


@dataclass(frozen=True)
class DesignRequirements:
    """What the device needs from its battery compartment.

    Attributes:
        volume_ml: battery volume budget, milliliters.
        min_energy_wh: minimum pack energy.
        min_peak_power_w: minimum sustained discharge power.
        max_minutes_to_40pct: optional fast-charge requirement — minutes
            to reach 40% of pack capacity from empty.
        min_tolerable_cycles: minimum cycle life of the *weakest* battery.
        min_bendable_fraction: fraction of the volume that must be
            mechanically flexible (a watch strap, a curved edge).
    """

    volume_ml: float
    min_energy_wh: float = 0.0
    min_peak_power_w: float = 0.0
    max_minutes_to_40pct: Optional[float] = None
    min_tolerable_cycles: int = 0
    min_bendable_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.volume_ml <= 0:
            raise ValueError("volume budget must be positive")
        if not 0.0 <= self.min_bendable_fraction <= 1.0:
            raise ValueError("bendable fraction must be in [0, 1]")


@dataclass(frozen=True)
class Partition:
    """One battery's slice of the volume budget."""

    battery_id: str
    volume_ml: float

    @property
    def descriptor(self) -> BatteryDescriptor:
        """The library battery filling this partition."""
        return battery_by_id(self.battery_id)

    @property
    def energy_wh(self) -> float:
        """Energy stored in this partition."""
        return self.volume_ml / 1000.0 * self.descriptor.effective_energy_density_wh_per_l

    @property
    def capacity_ah(self) -> float:
        """Charge capacity of this partition at the nominal voltage."""
        return self.energy_wh / self.descriptor.spec.nominal_voltage

    @property
    def peak_power_w(self) -> float:
        """Sustained discharge power this partition supports."""
        return self.capacity_ah * self.descriptor.spec.max_discharge_c * self.descriptor.spec.nominal_voltage

    @property
    def max_charge_a(self) -> float:
        """Maximum charge current of this partition."""
        return self.capacity_ah * self.descriptor.effective_max_charge_c

    @property
    def is_bendable(self) -> bool:
        """Whether the partition's chemistry is flexible."""
        return self.descriptor.spec.bendable


@dataclass(frozen=True)
class PackDesign:
    """A candidate battery configuration and its derived metrics."""

    partitions: Tuple[Partition, ...]

    @property
    def energy_wh(self) -> float:
        """Total pack energy."""
        return sum(p.energy_wh for p in self.partitions)

    @property
    def capacity_ah(self) -> float:
        """Total pack capacity."""
        return sum(p.capacity_ah for p in self.partitions)

    @property
    def peak_power_w(self) -> float:
        """Total sustained discharge power (SDB draws from all at once)."""
        return sum(p.peak_power_w for p in self.partitions)

    @property
    def tolerable_cycles(self) -> int:
        """Cycle life of the weakest partition."""
        return min(p.descriptor.spec.tolerable_cycles for p in self.partitions)

    @property
    def cost_dollars(self) -> float:
        """Indicative pack cost."""
        return sum(p.energy_wh * p.descriptor.spec.cost_per_wh for p in self.partitions)

    @property
    def bendable_fraction(self) -> float:
        """Fraction of the volume on flexible chemistry."""
        total = sum(p.volume_ml for p in self.partitions)
        if total == 0:
            return 0.0
        return sum(p.volume_ml for p in self.partitions if p.is_bendable) / total

    def minutes_to_pct(self, target_fraction: float) -> float:
        """Minutes to charge the pack to a fraction of capacity from empty.

        All partitions charge simultaneously at their maximum rates; a
        partition stops contributing once full, so the fill is piecewise
        linear in time.
        """
        if not 0.0 < target_fraction <= 1.0:
            raise ValueError("target fraction must be in (0, 1]")
        target_ah = target_fraction * self.capacity_ah
        remaining = [(p.capacity_ah, p.max_charge_a) for p in self.partitions]
        filled = 0.0
        elapsed_h = 0.0
        active = [(cap, rate) for cap, rate in remaining if rate > 0]
        while active and filled < target_ah - 1e-12:
            rate_total = sum(rate for _, rate in active)
            # Time until the next partition tops out, at current rates.
            t_next_full = min(cap / rate for cap, rate in active)
            t_target = (target_ah - filled) / rate_total
            step = min(t_next_full, t_target)
            filled += rate_total * step
            elapsed_h += step
            active = [
                (cap - rate * step, rate)
                for cap, rate in active
                if cap - rate * step > 1e-12
            ]
        if filled < target_ah - 1e-9:
            return float("inf")
        return elapsed_h * 60.0

    def meets(self, req: DesignRequirements) -> bool:
        """Whether this design satisfies every requirement."""
        if self.energy_wh < req.min_energy_wh:
            return False
        if self.peak_power_w < req.min_peak_power_w:
            return False
        if self.tolerable_cycles < req.min_tolerable_cycles:
            return False
        if self.bendable_fraction < req.min_bendable_fraction - 1e-9:
            return False
        if req.max_minutes_to_40pct is not None and self.minutes_to_pct(0.40) > req.max_minutes_to_40pct:
            return False
        return True

    def describe(self) -> str:
        """One-line human-readable summary."""
        parts = " + ".join(f"{p.battery_id}:{p.volume_ml:.0f}ml" for p in self.partitions if p.volume_ml > 0)
        return (
            f"{parts} | {self.energy_wh:.1f} Wh, peak {self.peak_power_w:.0f} W, "
            f"40% in {self.minutes_to_pct(0.4):.0f} min, "
            f">={self.tolerable_cycles} cycles, ${self.cost_dollars:.2f}"
        )


def enumerate_designs(
    req: DesignRequirements,
    battery_ids: Optional[Sequence[str]] = None,
    splits: Sequence[float] = SPLIT_GRID,
) -> List[PackDesign]:
    """All feasible one- and two-battery designs for the requirements.

    Results are sorted by pack energy (descending) — designers usually
    maximize capacity once hard requirements are met; re-sort by another
    metric if cost or charge speed is the objective.
    """
    ids = tuple(battery_ids) if battery_ids is not None else tuple(sorted(BATTERY_LIBRARY))
    feasible: List[PackDesign] = []
    seen = set()
    for a, b in itertools.combinations_with_replacement(ids, 2):
        for split in splits:
            volumes = (req.volume_ml * (1.0 - split), req.volume_ml * split)
            partitions = tuple(
                Partition(bid, vol) for bid, vol in zip((a, b), volumes) if vol > 1e-9
            )
            if not partitions:
                continue
            key = tuple(sorted((p.battery_id, round(p.volume_ml, 6)) for p in partitions))
            if key in seen:
                continue
            seen.add(key)
            design = PackDesign(partitions)
            if design.meets(req):
                feasible.append(design)
    feasible.sort(key=lambda d: d.energy_wh, reverse=True)
    return feasible


def best_design(req: DesignRequirements, battery_ids: Optional[Sequence[str]] = None) -> Optional[PackDesign]:
    """The highest-energy feasible design, or None if nothing fits."""
    designs = enumerate_designs(req, battery_ids=battery_ids)
    return designs[0] if designs else None
