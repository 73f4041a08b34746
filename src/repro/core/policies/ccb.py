"""CCB-Charge / CCB-Discharge: wear balancing.

Section 3.3: "these policies essentially enforce the controller to schedule
the batteries ... in such a way that the resulting CCB is minimized, i.e.
is as close to 1 as possible."

Both policies allocate power so that the *projected* wear ratios equalize:
a battery accrues wear in proportion to the coulombs moved through it,
normalized by capacity and tolerable cycle count, so the marginal wear of
one watt on battery i is ``1 / (V_i * 2 * q_i * chi_i)``. Given a planning
horizon, the allocation "fills" the least-worn batteries up to a common
wear level L (classic water-filling), subject to per-battery power caps.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, List, Sequence, Tuple

from repro.cell.thevenin import TheveninCell
from repro.core.policies.base import ChargePolicy, DischargePolicy, normalize, usable_mask
from repro.errors import PolicyError

#: Horizon (seconds) over which the projected wear is equalized. The ratio
#: vector is scale-invariant in the total power, so the horizon only
#: matters relative to how far apart the wear ratios already are: a short
#: horizon concentrates everything on the least-worn battery, a long one
#: approaches a capacity-weighted split.
DEFAULT_HORIZON_S = 3600.0


def wear_rate_per_watt(cell: TheveninCell) -> float:
    """Marginal wear-ratio increase per watt-second moved through a cell."""
    v = max(cell.terminal_voltage(), 1e-6)
    denominator = v * 2.0 * cell.params.capacity_c * cell.params.aging.tolerable_cycles
    return 1.0 / denominator


def waterfill_wear(
    cells: Sequence[TheveninCell],
    total_w: float,
    caps_w: Sequence[float],
    horizon_s: float,
) -> List[float]:
    """Power allocation equalizing projected wear after ``horizon_s``.

    Finds the wear level L such that giving every battery
    ``p_i = clamp((L - lambda_i) / (rate_i * horizon), 0, cap_i)`` consumes
    exactly ``total_w``; solved by bisection on L (monotone).

    The bisection compares each midpoint with the threshold level: the
    smallest float level whose allotment sum reaches the demand. Each step
    of that sum (subtract the wear, divide by a positive width, clamp, add
    up non-negative terms) is monotone under round-to-nearest, so "the sum
    reaches the demand" flips once along the floats and the comparison
    gives the answer summing would. The threshold is searched for from the
    closed-form water level, a few sums away, instead of summing at every
    one of the 60 midpoints.
    """
    n = len(cells)
    lambdas = [cell.aging.throughput_wear for cell in cells]
    rates = [wear_rate_per_watt(cell) for cell in cells]

    def power_at(level: float) -> List[float]:
        powers = []
        for i in range(n):
            if caps_w[i] <= 0.0:
                powers.append(0.0)
                continue
            p = (level - lambdas[i]) / (rates[i] * horizon_s)
            powers.append(min(max(p, 0.0), caps_w[i]))
        return powers

    # A NaN cap is not "<= 0", so the sum alone lets caps like [nan] through.
    if sum(caps_w) <= 0.0 or not any(cap > 0.0 for cap in caps_w):
        raise PolicyError("no battery can accept power")
    total_capacity = sum(caps_w)
    demand = min(total_w, total_capacity)
    lo = min(lambdas)
    hi = max(lambdas) + max(rates[i] * horizon_s * caps_w[i] for i in range(n) if caps_w[i] > 0)
    # The batteries power_at fills, as (wear, width, cap); the others add
    # only zeros, which leave sum() unchanged.
    live = [(lambdas[i], rates[i] * horizon_s, caps_w[i]) for i in range(n) if not caps_w[i] <= 0.0]

    def reaches(level: float) -> bool:
        return sum([min(max((level - lam) / width, 0.0), cap) for lam, width, cap in live]) >= demand

    # Every allotment is at least zero, so a demand that is not positive
    # holds at every level.
    threshold = -math.inf if demand <= 0.0 else _first_level(reaches, _water_level(live, demand))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid >= threshold:
            hi = mid
        else:
            lo = mid
    return power_at(hi)


def _water_level(live: Sequence[Tuple[float, float, float]], demand: float) -> float:
    """The level at which the exact (real-number) allotment sum meets ``demand``.

    ``live`` holds ``(wear, width, cap)`` per battery: its allotment rises
    with slope ``1 / width`` from ``wear`` until it is capped at
    ``wear + width * cap`` (a NaN cap never binds, as in ``min``). The sum
    is piecewise linear, so walking its breakpoints in order finds the
    level in closed form. Only a starting guess: the float sum can meet the
    demand a few floats away.
    """
    breaks = []
    for lam, width, cap in live:
        breaks.append((lam, 1.0 / width, 1))
        if cap < math.inf:
            breaks.append((lam + width * cap, -1.0 / width, -1))
    breaks.sort()
    level, total, slope, rising = breaks[0][0], 0.0, 0.0, 0
    for at, change, count in breaks:
        reached = total + slope * (at - level)
        if reached >= demand:
            break
        level, total, slope, rising = at, reached, slope + change, rising + count
    guess = level + (demand - total) / slope if rising and slope > 0.0 else level
    return guess if math.isfinite(guess) else 0.0


_DOUBLE = struct.Struct("<d")
_BITS = struct.Struct("<Q")
_SIGN = 1 << 63
#: Float-order position of +inf, its bit pattern (that of -inf is its negative).
_INF_POSITION = 0x7FF0000000000000


def _position(x: float) -> int:
    """Index of a non-NaN float in float order; -0.0 and 0.0 share 0."""
    (bits,) = _BITS.unpack(_DOUBLE.pack(x))
    return bits if bits < _SIGN else _SIGN - bits


def _float_at(position: int) -> float:
    """The float at a float-order index (the inverse of :func:`_position`)."""
    return _DOUBLE.unpack(_BITS.pack(position if position >= 0 else _SIGN - position))[0]


def _first_level(reaches: Callable[[float], bool], guess: float) -> float:
    """The smallest float at which ``reaches`` holds, searched from ``guess``.

    ``reaches`` must be false and then true along the floats. The search
    gallops away from ``guess`` in float order, doubling its step until the
    answer flips, then bisects that bracket, so it costs about twice the
    log of the distance in floats. Returns ``-inf`` when ``reaches`` holds
    everywhere and NaN (which compares false with every level) when it
    holds nowhere.
    """
    holds = reaches(guess)
    end = -_INF_POSITION if holds else _INF_POSITION
    near, step = _position(guess), 1
    while True:
        if near == end:
            return -math.inf if holds else math.nan
        far = max(near - step, end) if holds else min(near + step, end)
        if reaches(_float_at(far)) != holds:
            break
        near, step = far, 2 * step
    hit, miss = (near, far) if holds else (far, near)
    while hit - miss > 1:
        mid = (hit + miss) // 2
        if reaches(_float_at(mid)):
            hit = mid
        else:
            miss = mid
    return _float_at(hit)


class CCBDischargePolicy(DischargePolicy):
    """Discharge so the wear ratios converge (CCB -> 1)."""

    def __init__(self, horizon_s: float = DEFAULT_HORIZON_S):
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        self.horizon_s = float(horizon_s)

    def discharge_ratios(self, cells: Sequence[TheveninCell], load_w: float, t: float = 0.0) -> List[float]:
        mask = usable_mask(cells, charging=False)
        if not any(mask):
            raise PolicyError("all batteries empty")
        caps = [
            cell.max_discharge_power() * 0.9 if ok else 0.0
            for cell, ok in zip(cells, mask)
        ]
        demand = max(load_w, 1e-3)
        powers = waterfill_wear(cells, demand, caps, self.horizon_s)
        return normalize(powers)


class CCBChargePolicy(ChargePolicy):
    """Charge so the wear ratios converge (CCB -> 1).

    Charging the least-worn battery hardest raises its wear toward the
    others'; a worn-out battery is spared until balance is restored.
    """

    def __init__(self, horizon_s: float = DEFAULT_HORIZON_S):
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        self.horizon_s = float(horizon_s)

    def charge_ratios(self, cells: Sequence[TheveninCell], external_w: float, t: float = 0.0) -> List[float]:
        mask = usable_mask(cells, charging=True)
        if not any(mask):
            raise PolicyError("all batteries full")
        caps = [
            cell.max_charge_power() if ok else 0.0
            for cell, ok in zip(cells, mask)
        ]
        demand = max(external_w, 1e-3)
        powers = waterfill_wear(cells, demand, caps, self.horizon_s)
        return normalize(powers)
