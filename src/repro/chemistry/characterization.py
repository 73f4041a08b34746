"""Battery characterization: the paper's cycler workflow, in software.

Section 4.3: "We measure the open circuit potential, internal resistance,
concentration resistance and the plate capacitance for several kinds of
batteries. We use the industry standard Arbin BT-2000 and Maccor 4200
battery cycling and testing hardware ... These systems allow us to send a
configurable amount of power in and out of the batteries and accurately
measure [the parameters] at fine time scales."

This module is that workflow against any battery-like object exposing
``step_current`` / ``terminal_voltage`` / ``soc`` / ``reset`` (the
:class:`~repro.cell.reference.ReferenceCell` plays the physical battery):

1. **OCV protocol** — a very slow discharge; at quasi-zero current the
   terminal voltage *is* the OCP, sampled on a SoC grid.
2. **Pulse protocol (GITT-style)** — at each SoC checkpoint, apply a
   current pulse and read the *instantaneous* voltage drop (series
   resistance) and the *relaxed* drop after the pulse settles (series +
   concentration resistance); the relaxation time constant gives the
   plate capacitance.

:func:`characterize` returns a :class:`~repro.cell.thevenin.CellParams`
built from the measurements, and :func:`model_accuracy_pct` replays
Figure 10's validation for any fitted model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.cell.thevenin import CellParams, TheveninCell
from repro.chemistry.aging import AgingParams
from repro.chemistry.curves import SocCurve

#: Default SoC grid for curve extraction.
DEFAULT_SOC_GRID = tuple(x / 20.0 for x in range(1, 20))  # 0.05 .. 0.95


@dataclass(frozen=True)
class PulseMeasurement:
    """One GITT pulse at one SoC checkpoint."""

    soc: float
    series_resistance_ohm: float
    total_resistance_ohm: float
    relaxation_tau_s: float

    @property
    def concentration_resistance_ohm(self) -> float:
        """The RC branch's resistance: total minus series."""
        return max(1e-6, self.total_resistance_ohm - self.series_resistance_ohm)


def measure_ocv_curve(battery, capacity_c: float, soc_grid: Sequence[float] = DEFAULT_SOC_GRID, crawl_c_rate: float = 0.02) -> SocCurve:
    """Extract the OCP curve with a crawl-rate discharge.

    At C/50 the resistive drop is negligible, so the terminal voltage
    tracks the OCP; the residual IR offset is corrected analytically from
    the crawl current and the pulse-measured resistance would be, but at
    this rate the correction is below curve-fit noise and is omitted —
    exactly the cycler lab practice.
    """
    battery.reset(1.0)
    current = crawl_c_rate * capacity_c / 3600.0
    targets = sorted(soc_grid, reverse=True)
    socs: List[float] = [1.0]
    values: List[float] = [battery.terminal_voltage(0.0)]
    dt = 30.0
    while targets and not battery.is_empty:
        step = battery.step_current(current, dt)
        while targets and battery.soc <= targets[0]:
            socs.append(targets.pop(0))
            values.append(step.terminal_voltage)
    # Crawl down to (nearly) empty for the 0% anchor.
    while not battery.is_empty:
        step = battery.step_current(current, dt)
    socs.append(0.0)
    values.append(battery.terminal_voltage(0.0))
    order = np.argsort(socs)
    socs_arr = np.asarray(socs)[order]
    vals_arr = np.maximum.accumulate(np.asarray(values)[order])
    # Deduplicate identical soc points (the 1.0 anchor can repeat).
    keep = np.concatenate(([True], np.diff(socs_arr) > 1e-9))
    return SocCurve(socs_arr[keep], vals_arr[keep])


def pulse_test(battery, capacity_c: float, soc: float, pulse_c_rate: float = 0.5, pulse_s: float = 30.0, rest_s: float = 900.0) -> PulseMeasurement:
    """One GITT pulse: instantaneous and relaxed resistance at ``soc``."""
    battery.reset(soc)
    rest_v = battery.terminal_voltage(0.0)
    current = pulse_c_rate * capacity_c / 3600.0
    # Instantaneous drop on the first short step: series resistance.
    first = battery.step_current(current, 0.1)
    r_series = (rest_v - first.terminal_voltage) / current
    # Hold the pulse until the RC branch saturates: total DC resistance.
    elapsed = 0.1
    last_v = first.terminal_voltage
    while elapsed < pulse_s:
        last_v = battery.step_current(current, 1.0).terminal_voltage
        elapsed += 1.0
    r_total = (rest_v - last_v) / current
    # Relaxation: time for the recovery to reach 63% of the RC share.
    v_after = battery.terminal_voltage(0.0)
    recovery_target = v_after + 0.632 * (rest_v - v_after)
    tau = rest_s
    t = 0.0
    while t < rest_s:
        v = battery.step_current(0.0, 1.0).terminal_voltage
        t += 1.0
        if v >= recovery_target:
            tau = t
            break
    return PulseMeasurement(
        soc=soc,
        series_resistance_ohm=max(r_series, 1e-6),
        total_resistance_ohm=max(r_total, r_series + 1e-6),
        relaxation_tau_s=max(tau, 1.0),
    )


def characterize(
    battery,
    capacity_c: float,
    name: str = "characterized cell",
    soc_grid: Sequence[float] = DEFAULT_SOC_GRID,
    pulse_socs: Sequence[float] = (0.2, 0.35, 0.5, 0.65, 0.8),
    aging: AgingParams = None,
    max_charge_c: float = 1.0,
    max_discharge_c: float = 2.5,
) -> CellParams:
    """Run the full cycler workflow and build Thevenin parameters.

    Args:
        battery: the physical-battery stand-in (must expose reset /
            step_current / terminal_voltage / soc / is_empty).
        capacity_c: the battery's capacity in coulombs (measured by a
            prior full crawl discharge in practice; passed in here).
        name, max_charge_c, max_discharge_c: datasheet fields for the
            resulting parameter set.
        aging: aging coefficients to attach (characterization does not
            measure aging; the paper cycles for weeks to get Fig 1b).
    """
    ocv = measure_ocv_curve(battery, capacity_c, soc_grid)
    pulses = [pulse_test(battery, capacity_c, soc) for soc in pulse_socs]

    # Series resistance vs SoC from the pulses, extended to the ends.
    pulse_soc = np.array([p.soc for p in pulses])
    pulse_r = np.array([p.series_resistance_ohm for p in pulses])
    order = np.argsort(pulse_soc)
    pulse_soc, pulse_r = pulse_soc[order], pulse_r[order]
    socs = np.concatenate(([0.0], pulse_soc, [1.0]))
    # Linear extrapolation at the ends, clamped positive.
    r_lo = pulse_r[0] + (pulse_r[0] - pulse_r[1]) * pulse_soc[0] / max(pulse_soc[1] - pulse_soc[0], 1e-9)
    r_hi = pulse_r[-1] + (pulse_r[-1] - pulse_r[-2]) * (1.0 - pulse_soc[-1]) / max(
        pulse_soc[-1] - pulse_soc[-2], 1e-9
    )
    values = np.concatenate(([max(r_lo, pulse_r[0])], pulse_r, [max(min(r_hi, pulse_r[-1]), 1e-6)]))
    # DCIR must be monotone non-increasing for the policy math; enforce.
    values = np.minimum.accumulate(values)
    values = np.maximum(values, 1e-6)
    eps = 1e-9
    values = values - np.arange(len(values)) * eps  # strictify ties harmlessly
    dcir = SocCurve(socs, values)

    r_ct = float(np.mean([p.concentration_resistance_ohm for p in pulses]))
    tau = float(np.mean([p.relaxation_tau_s for p in pulses]))
    c_plate = max(tau / r_ct, 1.0)

    if aging is None:
        aging = AgingParams(tolerable_cycles=1000, fade_base=2e-6, fade_rate_coeff=2e-4, resistance_growth=1.5)
    return CellParams(
        name=name,
        chemistry=None,
        capacity_c=capacity_c,
        ocp=ocv,
        dcir=dcir,
        r_ct=r_ct,
        c_plate=c_plate,
        max_charge_c=max_charge_c,
        max_discharge_c=max_discharge_c,
        aging=aging,
    )


def model_accuracy_pct(battery, params: CellParams, currents_a: Sequence[float] = (0.2, 0.5, 0.7), dt: float = 10.0) -> float:
    """Figure 10's validation for an arbitrary fitted model.

    Discharges the physical battery and the fitted model with the same
    constant-current schedules and returns ``100 * (1 - mean relative
    voltage error)``.
    """
    errors: List[float] = []
    grid = [x / 100.0 for x in range(90, 9, -5)]
    for amps in currents_a:
        battery.reset(1.0)
        model = TheveninCell(params)
        ref_samples = {}
        model_samples = {}
        targets = list(grid)
        while targets and not battery.is_empty:
            step = battery.step_current(amps, dt)
            while targets and battery.soc <= targets[0]:
                ref_samples[targets.pop(0)] = step.terminal_voltage
        targets = list(grid)
        while targets and not model.is_empty:
            step = model.step_current(amps, dt)
            while targets and model.soc <= targets[0]:
                model_samples[targets.pop(0)] = step.terminal_voltage
        for soc in grid:
            if soc in ref_samples and soc in model_samples:
                errors.append(abs(model_samples[soc] - ref_samples[soc]) / ref_samples[soc])
    if not errors:
        raise ValueError("validation produced no comparable samples")
    return 100.0 * (1.0 - sum(errors) / len(errors))
