"""Offline-optimal discharge scheduling: the upper bound on every policy.

Section 3.3: the RBL algorithms are "'optimal' only in an instantaneous
sense ... if we had knowledge of the future workload, we could improve
upon the above instantaneously-optimal algorithms by making temporarily
sub-optimal choices from which the system can profit later." The paper
leaves the global problem open ("the underlying algorithmic problems are
deep and interesting").

For a piecewise-constant load and the quadratic resistive-loss model, the
*offline* problem is a convex quadratic program:

    minimize    sum_s dur_s * sum_i  (p_{i,s}^2 * R_i / V_i^2)
    subject to  sum_i p_{i,s} = load_s              (serve every segment)
                sum_s dur_s * p_{i,s} <= E_i        (battery energy)
                0 <= p_{i,s} <= cap_i               (power capability)

with per-battery resistance/voltage frozen at representative values
(resistance varies with SoC, so the bound is approximate — it is still a
meaningful yardstick because the policies face the same physics).

:func:`solve_offline_schedule` solves the QP with SLSQP and
:func:`optimality_gap` compares any emulated policy's losses against the
bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np
from scipy.optimize import minimize

from repro.cell.thevenin import TheveninCell
from repro.errors import PolicyError
from repro.workloads.traces import PowerTrace


@dataclass(frozen=True)
class BatteryAbstract:
    """The QP's view of one battery: a quadratic-cost energy reservoir."""

    name: str
    energy_j: float
    resistance_ohm: float
    voltage_v: float
    cap_w: float

    @property
    def loss_coeff(self) -> float:
        """Loss per watt-squared: R / V^2."""
        return self.resistance_ohm / (self.voltage_v * self.voltage_v)


def abstract_cell(cell: TheveninCell, reference_soc: float = 0.5) -> BatteryAbstract:
    """Freeze a cell into the QP abstraction at a representative SoC."""
    soc = cell.soc
    try:
        cell.soc = reference_soc
        resistance = cell.resistance()
        voltage = cell.ocp()
        cap = cell.max_discharge_power() * 0.9
    finally:
        cell.soc = soc
    return BatteryAbstract(
        name=cell.name,
        energy_j=cell.open_circuit_energy_j(),
        resistance_ohm=resistance,
        voltage_v=voltage,
        cap_w=cap,
    )


@dataclass
class OfflineSchedule:
    """Solution of the offline QP."""

    segment_durations_s: np.ndarray
    segment_loads_w: np.ndarray
    powers_w: np.ndarray  # shape (n_batteries, n_segments)
    loss_j: float
    feasible: bool

    def battery_energy_j(self, index: int) -> float:
        """Energy the schedule draws from one battery."""
        return float(np.sum(self.powers_w[index] * self.segment_durations_s))


def _compress_trace(trace: PowerTrace, max_segments: int) -> tuple:
    """Merge trace segments down to at most ``max_segments`` pieces.

    Adjacent segments merge into energy-preserving averages; the merge
    walks greedily by equal time slices, which keeps high-power episodes
    distinct as long as they are longer than a slice.
    """
    if max_segments < 1:
        raise ValueError("need at least one segment")
    total = trace.duration_s
    slice_s = total / max_segments
    durations: List[float] = []
    loads: List[float] = []
    t = trace.start_s
    for _ in range(max_segments):
        end = min(t + slice_s, trace.end_s)
        if end <= t:
            break
        energy = trace.energy_between_j(t, end)
        durations.append(end - t)
        loads.append(energy / (end - t))
        t = end
    return np.asarray(durations), np.asarray(loads)


def solve_offline_schedule(
    batteries: Sequence[BatteryAbstract],
    trace: PowerTrace,
    max_segments: int = 48,
) -> OfflineSchedule:
    """Solve the offline QP for a load trace over N abstract batteries.

    Returns an :class:`OfflineSchedule`; ``feasible`` is False when the
    batteries cannot serve the trace at all (energy or power shortfall),
    in which case the returned powers are the solver's best effort.
    """
    batteries = list(batteries)
    if not batteries:
        raise PolicyError("need at least one battery")
    durations, loads = _compress_trace(trace, max_segments)
    n, m = len(batteries), len(durations)

    # Quick infeasibility screens.
    total_energy = float(np.sum(durations * loads))
    if total_energy > sum(b.energy_j for b in batteries) or float(np.max(loads)) > sum(b.cap_w for b in batteries):
        feasible_hint = False
    else:
        feasible_hint = True

    coeffs = np.array([b.loss_coeff for b in batteries])

    def unpack(x: np.ndarray) -> np.ndarray:
        return x.reshape(n, m)

    def objective(x: np.ndarray) -> float:
        p = unpack(x)
        return float(np.sum(durations * (coeffs[:, None] * p * p)))

    def objective_grad(x: np.ndarray) -> np.ndarray:
        p = unpack(x)
        return (2.0 * durations * coeffs[:, None] * p).ravel()

    constraints = [
        {
            "type": "eq",
            "fun": lambda x: unpack(x).sum(axis=0) - loads,
            "jac": lambda x: np.tile(np.eye(m), (1, n)).reshape(m, n * m),
        }
    ]
    for i, battery in enumerate(batteries):
        def energy_slack(x, i=i, limit=battery.energy_j):
            return limit - float(np.sum(unpack(x)[i] * durations))

        constraints.append({"type": "ineq", "fun": energy_slack})

    bounds = [(0.0, batteries[i].cap_w) for i in range(n) for _ in range(m)]
    # Start from the proportional-to-1/R split (the RBL answer).
    weights = 1.0 / np.array([b.resistance_ohm for b in batteries])
    weights = weights / weights.sum()
    x0 = np.clip(np.outer(weights, loads), 0.0, np.array([b.cap_w for b in batteries])[:, None]).ravel()

    result = minimize(
        objective,
        x0,
        jac=objective_grad,
        bounds=bounds,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 300, "ftol": 1e-10},
    )
    powers = unpack(result.x)
    # SLSQP sometimes stops with a benign linesearch message at the
    # optimum; judge feasibility by the constraints themselves.
    served = np.allclose(powers.sum(axis=0), loads, rtol=1e-3, atol=1e-6)
    energies_ok = all(
        float(np.sum(powers[i] * durations)) <= batteries[i].energy_j * (1.0 + 1e-6)
        for i in range(n)
    )
    return OfflineSchedule(
        segment_durations_s=durations,
        segment_loads_w=loads,
        powers_w=powers,
        loss_j=objective(result.x),
        feasible=bool(feasible_hint and served and energies_ok),
    )


def optimality_gap(measured_loss_j: float, schedule: OfflineSchedule) -> float:
    """Fractional excess loss of a policy over the offline bound.

    0.0 means the policy matched the bound; 0.5 means 50% more loss.
    """
    if schedule.loss_j <= 0:
        return float("inf") if measured_loss_j > 0 else 0.0
    return measured_loss_j / schedule.loss_j - 1.0
