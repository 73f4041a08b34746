"""Warranty-aware charge/discharge rate selection (Section 7).

"A few concepts of SDB are applicable to single battery systems as well.
For example, the tradeoffs of increased turbo capabilities and how
quickly to charge (or discharge) such that the cycle count longevity
requirements are met, are useful for single battery systems."

Longevity is "typically included in the device's warranty" (Section 5.1),
so the practical question a designer asks is inverted from Figure 1(b):
not "how much capacity remains after N cycles at rate c" but "what is the
fastest rate that still meets the warranty". These helpers answer it from
the aging model analytically-ish (bisection over the closed-form per-cycle
fade), so they are cheap enough for an OS to call at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.chemistry.aging import DISCHARGE_STRESS_WEIGHT, AgingParams

#: Default warranty: 80% capacity after 800 counted cycles — a common
#: consumer-device commitment.
DEFAULT_WARRANTY_CYCLES = 800
DEFAULT_WARRANTY_RETENTION = 0.80


@dataclass(frozen=True)
class Warranty:
    """A longevity commitment: retain at least ``min_retention`` of the
    original capacity after ``cycles`` full charge/discharge cycles."""

    cycles: int = DEFAULT_WARRANTY_CYCLES
    min_retention: float = DEFAULT_WARRANTY_RETENTION

    def __post_init__(self) -> None:
        if self.cycles <= 0:
            raise ValueError("warranty cycles must be positive")
        if not 0.0 < self.min_retention < 1.0:
            raise ValueError("retention must be in (0, 1)")


def per_cycle_fade(params: AgingParams, charge_c: float, discharge_c: float) -> float:
    """Fractional capacity fade per full cycle at the given rates.

    One full cycle moves one capacity through on each leg; discharge
    stress carries the model's reduced weight.
    """
    return params.fade_per_cycle(charge_c) + DISCHARGE_STRESS_WEIGHT * params.fade_per_cycle(discharge_c)


def retention_after(params: AgingParams, cycles: int, charge_c: float, discharge_c: float) -> float:
    """Capacity fraction remaining after ``cycles`` full cycles.

    Multiplicative fade: ``(1 - f)^cycles`` with the per-cycle fade ``f``.
    Matches :meth:`AgingModel.simulate_cycles` asymptotically (that method
    cycles the *current* capacity, which is the same geometric decay).
    """
    if cycles < 0:
        raise ValueError("cycles must be non-negative")
    f = per_cycle_fade(params, charge_c, discharge_c)
    if f >= 1.0:
        return 0.0
    return (1.0 - f) ** cycles


def warranty_cycles(params: AgingParams, charge_c: float, discharge_c: float, min_retention: float = DEFAULT_WARRANTY_RETENTION) -> int:
    """Cycles until retention falls below ``min_retention`` at these rates."""
    if not 0.0 < min_retention < 1.0:
        raise ValueError("retention must be in (0, 1)")
    f = per_cycle_fade(params, charge_c, discharge_c)
    if f <= 0.0:
        return 10**9
    if f >= 1.0:
        return 0
    return int(math.log(min_retention) / math.log(1.0 - f))


def max_charge_c_for_warranty(
    params: AgingParams,
    warranty: Warranty = Warranty(),
    discharge_c: float = 0.3,
    hard_limit_c: float = 6.0,
) -> float:
    """Fastest charge rate that still meets the warranty.

    Bisection on the monotone map charge-rate -> retention. Returns 0.0
    if even infinitesimal charging breaks the warranty (the baseline fade
    alone exceeds it) and ``hard_limit_c`` if the warranty is met even at
    the hard limit.
    """
    if hard_limit_c <= 0:
        raise ValueError("hard limit must be positive")

    def meets(charge_c: float) -> bool:
        return retention_after(params, warranty.cycles, charge_c, discharge_c) >= warranty.min_retention

    if not meets(0.0):
        return 0.0
    if meets(hard_limit_c):
        return hard_limit_c
    lo, hi = 0.0, hard_limit_c
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if meets(mid):
            lo = mid
        else:
            hi = mid
    return lo


def max_discharge_c_for_warranty(
    params: AgingParams,
    warranty: Warranty = Warranty(),
    charge_c: float = 0.5,
    hard_limit_c: float = 12.0,
) -> float:
    """Fastest sustained discharge rate that still meets the warranty.

    The single-battery turbo question of Section 7: how hard may the CPU
    pull before the longevity commitment breaks.
    """
    if hard_limit_c <= 0:
        raise ValueError("hard limit must be positive")

    def meets(discharge_c: float) -> bool:
        return retention_after(params, warranty.cycles, charge_c, discharge_c) >= warranty.min_retention

    if not meets(0.0):
        return 0.0
    if meets(hard_limit_c):
        return hard_limit_c
    lo, hi = 0.0, hard_limit_c
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if meets(mid):
            lo = mid
        else:
            hi = mid
    return lo
