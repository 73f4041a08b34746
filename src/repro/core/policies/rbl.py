"""RBL-Charge / RBL-Discharge: instantaneous loss minimization.

Section 3.3: "we can maximize the instantaneous RBL of the battery system
by minimizing the total resistance losses across all the batteries", with
the refinement that the allocation should account for the slope delta_i of
each battery's DCIR curve — drawing from a battery whose resistance will
rise steeply as its SoC drops is more expensive than the instantaneous
R_i alone suggests.

We implement the allocation as the exact minimizer of::

    sum_i  y_i^2 * (R_i + beta * |delta_i| / q_i)

subject to ``sum_i y_i = Y`` and per-battery current caps, where ``q_i`` is
the battery capacity in coulombs (so the penalty term is the marginal
future resistance increase caused by one amp of draw over the lookahead
``beta`` seconds). The unconstrained solution of this quadratic program is
the classic Lagrangian result ``y_i proportional to 1 / R'_i`` with all the
marginal costs ``R'_i * y_i`` equal — the equalization the paper describes;
caps are handled by water-filling (pin saturated batteries, re-solve).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cell.thevenin import TheveninCell
from repro.core.policies.base import ChargePolicy, DischargePolicy, normalize, usable_mask
from repro.errors import PolicyError

#: Default lookahead (seconds) weighting the DCIR-slope term. Zero reduces
#: the policy to pure instantaneous 1/R loss minimization.
DEFAULT_SLOPE_LOOKAHEAD_S = 300.0


def effective_resistances(cells: Sequence[TheveninCell], slope_lookahead_s: float) -> List[float]:
    """Marginal-cost resistances R'_i including the DCIR-slope penalty."""
    out = []
    for cell in cells:
        r = cell.resistance()
        if slope_lookahead_s > 0.0 and cell.capacity_c > 0:
            # One amp sustained for the lookahead moves lookahead coulombs,
            # i.e. lookahead / capacity of SoC, raising R by |slope| * that.
            r += slope_lookahead_s / cell.capacity_c * abs(cell.dcir_slope())
        out.append(r)
    return out


def allocate_inverse_resistance(
    cells: Sequence[TheveninCell],
    total_current: float,
    caps: Sequence[float],
    slope_lookahead_s: float,
) -> List[float]:
    """Loss-minimizing current allocation with per-battery caps.

    Water-filling on the KKT conditions of the quadratic program: batteries
    share current inversely to R'_i; any battery whose share exceeds its
    cap is pinned at the cap and the remainder is re-split among the rest.
    """
    n = len(cells)
    if len(caps) != n:
        raise ValueError("need one cap per cell")
    currents = [0.0] * n
    resistances = effective_resistances(cells, slope_lookahead_s)
    active = [i for i in range(n) if caps[i] > 0.0]
    remaining = total_current
    for _ in range(n):
        if remaining <= 1e-15 or not active:
            break
        inv_sum = sum(1.0 / resistances[i] for i in active)
        pinned = []
        for i in active:
            share = remaining * (1.0 / resistances[i]) / inv_sum
            if share >= caps[i] - currents[i]:
                pinned.append(i)
        if not pinned:
            for i in active:
                currents[i] += remaining * (1.0 / resistances[i]) / inv_sum
            remaining = 0.0
            break
        for i in pinned:
            delta = caps[i] - currents[i]
            currents[i] = caps[i]
            remaining -= delta
            active.remove(i)
    if remaining > 1e-9 and not active:
        # Caps could not absorb the demand; the hardware layer will raise
        # if this is a real overload. Scale proportionally as best effort.
        total = sum(currents)
        if total <= 0:
            raise PolicyError("no battery can carry any current")
    return currents


class RBLDischargePolicy(DischargePolicy):
    """Minimize instantaneous resistive loss while discharging.

    Args:
        slope_lookahead_s: weight of the DCIR-slope term (the paper's
            delta_i); 0 gives the pure 1/R split.
    """

    def __init__(self, slope_lookahead_s: float = DEFAULT_SLOPE_LOOKAHEAD_S):
        if slope_lookahead_s < 0:
            raise ValueError("lookahead must be non-negative")
        self.slope_lookahead_s = float(slope_lookahead_s)

    def discharge_ratios(self, cells: Sequence[TheveninCell], load_w: float, t: float = 0.0) -> List[float]:
        mask = usable_mask(cells, charging=False)
        if not any(mask):
            raise PolicyError("all batteries empty")
        voltages = [cell.terminal_voltage() for cell in cells]
        v_avg = _mean_voltage(voltages, mask)
        total_current = max(load_w, 0.0) / v_avg if v_avg > 0 else 0.0
        caps = [
            cell.params.max_discharge_current if ok else 0.0
            for cell, ok in zip(cells, mask)
        ]
        if total_current <= 0.0:
            # Resting: report the split a load would get, for telemetry.
            total_current = 1.0
        currents = allocate_inverse_resistance(cells, total_current, caps, self.slope_lookahead_s)
        # Convert currents to power shares at each cell's voltage.
        return normalize([i * max(v, 1e-6) for i, v in zip(currents, voltages)])


class RBLChargePolicy(ChargePolicy):
    """Minimize charging losses: charge current inversely to R'_i.

    Charging raises SoC, which *lowers* future resistance, so the slope
    term rewards (rather than penalizes) charging high-slope batteries; we
    keep the same effective-resistance form with the sign folded in by
    using the plain resistance plus a reduced slope weight — in practice
    charge-loss differences are dominated by R_i itself.
    """

    def __init__(self, slope_lookahead_s: float = 0.0):
        if slope_lookahead_s < 0:
            raise ValueError("lookahead must be non-negative")
        self.slope_lookahead_s = float(slope_lookahead_s)

    def charge_ratios(self, cells: Sequence[TheveninCell], external_w: float, t: float = 0.0) -> List[float]:
        mask = usable_mask(cells, charging=True)
        if not any(mask):
            raise PolicyError("all batteries full")
        voltages = [cell.terminal_voltage() for cell in cells]
        v_avg = _mean_voltage(voltages, mask)
        total_current = max(external_w, 0.0) / v_avg if v_avg > 0 else 0.0
        if total_current <= 0.0:
            total_current = 1.0
        caps = [
            cell.params.max_charge_current if ok else 0.0
            for cell, ok in zip(cells, mask)
        ]
        currents = allocate_inverse_resistance(cells, total_current, caps, self.slope_lookahead_s)
        return normalize([i * max(v, 1e-6) for i, v in zip(currents, voltages)])


def _mean_voltage(voltages: Sequence[float], mask: Sequence[bool]) -> float:
    usable = [v for v, ok in zip(voltages, mask) if ok]
    if not usable:
        return 0.0
    return sum(usable) / len(usable)
