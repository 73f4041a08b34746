"""Adaptive charging sessions: longevity-aware hold-then-top-off.

Section 3.3's overnight example ("a low value of the Charging Directive
Parameter indicates that the user is in no hurry (e.g. charging at
night)") implies more than a gentle current: time spent *full* is itself
an aging stressor, and the paper's cycle-count rule only advances when
charge actually flows. The OS therefore holds overnight charging at a
plateau (e.g. 80%) and tops off just in time for the user's first
demanding event — the behaviour shipped today as "optimized/adaptive
charging", built here from SDB primitives:

* the scheduler (or an explicit ready-time) says when the pack must be
  full;
* the controller's profiles and ratios do the actual charging;
* a time-to-full estimate from the cells' headroom and charge-rate
  limits decides when the top-off must begin.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro import units
from repro.hardware.charge import GENTLE_PROFILE, STANDARD_PROFILE
from repro.hardware.microcontroller import ChargeReport, SDBMicrocontroller


class ChargePhase(enum.Enum):
    """Where an adaptive session currently is."""

    #: Charging toward the hold plateau.
    FILLING = "filling"
    #: Sitting at the plateau, waiting for the top-off window.
    HOLDING = "holding"
    #: Charging to full ahead of the ready time.
    TOPPING_OFF = "topping-off"
    #: Pack full (or ready time passed with charging still commanded).
    DONE = "done"


def estimate_time_to_full_s(controller: SDBMicrocontroller, from_soc: Optional[float] = None) -> float:
    """Seconds to bring every battery from ``from_soc`` (default: its
    current SoC) to full at its profile-commanded rates.

    Conservative: uses each cell's *taper-aware* mean rate between the
    start SoC and full, and takes the slowest battery (all charge in
    parallel on separate channels).
    """
    worst = 0.0
    for cell, profile in zip(controller.cells, controller.profiles):
        start = cell.soc if from_soc is None else from_soc
        if start >= profile.terminate_soc:
            continue
        # Average the commanded C-rate over the remaining SoC span.
        steps = 20
        total_rate = 0.0
        for k in range(steps):
            soc = start + (profile.terminate_soc - start) * (k + 0.5) / steps
            total_rate += min(profile.c_rate_at(soc), cell.params.max_charge_c)
        mean_c = max(total_rate / steps, 1e-6)
        hours = (profile.terminate_soc - start) / mean_c
        worst = max(worst, units.hours_to_seconds(hours))
    return worst


@dataclass
class AdaptiveChargingSession:
    """One plugged-in session with a target ready time.

    Args:
        controller: the SDB hardware.
        ready_at_s: simulation time by which the pack must be full.
        hold_soc: plateau state of charge during the hold phase.
        margin_s: start the top-off this much earlier than strictly
            estimated.
    """

    controller: SDBMicrocontroller
    ready_at_s: float
    hold_soc: float = 0.80
    margin_s: float = 900.0

    def __post_init__(self) -> None:
        if not 0.1 <= self.hold_soc < 1.0:
            raise ValueError("hold soc must be in [0.1, 1)")
        if self.margin_s < 0:
            raise ValueError("margin must be non-negative")
        self.phase = ChargePhase.FILLING
        # Gentle profiles while filling/holding: the session is by
        # definition unhurried until the top-off.
        for index in range(self.controller.n):
            self.controller.select_profile(index, GENTLE_PROFILE)

    def _pack_soc(self) -> float:
        total = sum(cell.capacity_c for cell in self.controller.cells)
        if total <= 0:
            return 0.0
        return sum(cell.soc * cell.capacity_c for cell in self.controller.cells) / total

    def _must_start_topoff(self, t_s: float) -> bool:
        needed = estimate_time_to_full_s(self.controller)
        return t_s + needed + self.margin_s >= self.ready_at_s

    def step(self, t_s: float, external_w: float, dt: float) -> ChargeReport:
        """Advance the session by ``dt`` seconds of wall-clock charging."""
        if external_w < 0:
            raise ValueError("external power must be non-negative")
        pack_soc = self._pack_soc()

        if self.phase is ChargePhase.FILLING and pack_soc >= self.hold_soc:
            self.phase = ChargePhase.HOLDING
        if self.phase in (ChargePhase.FILLING, ChargePhase.HOLDING) and self._must_start_topoff(t_s):
            self.phase = ChargePhase.TOPPING_OFF
            for index in range(self.controller.n):
                self.controller.select_profile(index, STANDARD_PROFILE)
        if all(cell.is_full for cell in self.controller.cells):
            self.phase = ChargePhase.DONE

        if self.phase is ChargePhase.HOLDING or self.phase is ChargePhase.DONE:
            # Trickle nothing: rest the cells (self-consumption is outside
            # this model); report an idle step.
            for cell in self.controller.cells:
                if not (cell.is_empty or cell.is_full):
                    cell.step_current(0.0, dt)
            return ChargeReport(dt, external_w, [])
        return self.controller.step_charge(external_w, dt)
