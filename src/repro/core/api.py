"""The four SDB APIs of Section 3.3.

The SDB Runtime communicates with the SDB microcontroller using exactly
four calls::

    Charge(c1, ..., cN)                  # charge-power ratios
    Discharge(d1, ..., dN)               # discharge-power ratios
    ChargeOneFromAnother(X, Y, W, T)     # battery X -> battery Y, W watts, T seconds
    QueryBatteryStatus()                 # per-battery status array

:class:`SDBApi` is that wire protocol as a Python object. It deliberately
exposes *nothing else* — the prototype carried these calls over a Bluetooth
link, and this class is the seam where a real transport would sit. Method
names match the paper's capitalization for recognisability.

When a :class:`~repro.core.vdag.BatteryDAG` is attached, the calls gain a
``node`` argument and operate on *any* virtual battery in the directory —
aggregates, splitters, tenants — with the DAG resolving per-child shares
down to the physical ratio vector (see ``docs/virtual_batteries.md``).
``SelectProfile`` rounds out Figure 4c's dynamic charge-profile select at
node granularity.
"""

from __future__ import annotations

from typing import List

from repro.cell.fuel_gauge import BatteryStatus
from repro.hardware.microcontroller import SDBMicrocontroller, TransferReport


class SDBApi:
    """The OS <-> microcontroller command surface.

    Thread safety: this class is the bare wire protocol and performs no
    locking. Each individual controller command installs its vector
    atomically (a single reference assignment after validation), but
    call *sequences* — and any interleaving with a ticking
    :class:`~repro.core.runtime.SDBRuntime` — must be serialized by the
    caller, normally by holding ``runtime.lock`` (see the runtime's
    thread-safety contract). The fleet serving path
    (:mod:`repro.serve`) does exactly that via the runtime's
    ``apply_*`` methods.

    Args:
        controller: the SDB microcontroller being commanded.
        transfer_step_s: integration step used to realize the time-boxed
            ``ChargeOneFromAnother`` calls.
        dag: optional :class:`~repro.core.vdag.BatteryDAG`. When present,
            every call accepts a ``node`` argument (a DAG node or its
            directory name) and operates on that *virtual* battery:
            ratio vectors are per-child shares that the DAG resolves
            down to the physical vector, status queries roll up, and
            profile selection applies to every leaf under the node.
    """

    def __init__(self, controller: SDBMicrocontroller, transfer_step_s: float = 1.0, dag=None):
        if transfer_step_s <= 0:
            raise ValueError("transfer step must be positive")
        self.controller = controller
        self.transfer_step_s = float(transfer_step_s)
        self.dag = dag

    @property
    def n_batteries(self) -> int:
        """Number of batteries behind the controller."""
        return self.controller.n

    def _require_dag(self, node):
        if self.dag is None:
            raise ValueError(
                f"cannot address node {node!r}: this API has no virtual-battery DAG attached"
            )
        return self.dag

    # The paper spells these with capitals; keep that spelling here and
    # provide PEP 8 aliases below.

    def Charge(self, *ratios: float, node=None) -> None:
        """Charge N batteries in proportion to c1..cN from external power.

        With ``node``, the ratios are per-child shares of that virtual
        battery, resolved to the physical vector by the DAG.
        """
        if node is not None:
            ratios = self._require_dag(node).expand(node, ratios)
        self.controller.set_charge_ratios(list(ratios))

    def Discharge(self, *ratios: float, node=None) -> None:
        """Discharge N batteries in proportion to d1..dN.

        With ``node``, the ratios are per-child shares of that virtual
        battery; the DAG expands them over the node's leaves and gates
        branches whose tenants have exhausted their reserves.
        """
        if node is not None:
            dag = self._require_dag(node)
            ratios = dag.gate_ratios(dag.expand(node, ratios))
        self.controller.set_discharge_ratios(list(ratios))

    def SelectProfile(self, target, profile) -> None:
        """Select a charge profile for a battery index or a DAG node.

        An integer selects one physical battery (the original call); a
        node or node name applies the profile to every physical leaf
        beneath it.
        """
        if isinstance(target, int):
            self.controller.select_profile(target, profile)
            return
        dag = self._require_dag(target)
        for index in dag.node(target).leaf_indices():
            self.controller.select_profile(index, profile)

    def ChargeOneFromAnother(self, x: int, y: int, w: float, t: float) -> List[TransferReport]:
        """Charge battery ``y`` from battery ``x`` at ``w`` watts for ``t`` s.

        Realized as a sequence of transfer steps; returns the per-step
        reports so callers can audit delivered energy.
        """
        if t <= 0:
            raise ValueError("transfer duration must be positive")
        if w < 0:
            raise ValueError("transfer power must be non-negative")
        reports = []
        remaining = t
        while remaining > 1e-9:
            dt = min(self.transfer_step_s, remaining)
            report = self.controller.transfer(x, y, w, dt)
            reports.append(report)
            remaining -= dt
            if report.drawn_w == 0.0:
                break  # source exhausted or destination full
        return reports

    def QueryBatteryStatus(self, node=None):
        """State of charge, terminal voltage and cycle count per battery.

        Without ``node``: the physical per-battery list, as always. With
        ``node``: one rolled-up :class:`~repro.core.vdag.NodeStatus` for
        that virtual battery (capacity-weighted over its leaves; tenant
        nodes report their contract accounting instead).
        """
        statuses: List[BatteryStatus] = self.controller.query_status()
        if node is None:
            return statuses
        return self._require_dag(node).status(node, statuses)

    # PEP 8 aliases for library users who prefer conventional names.
    charge = Charge
    discharge = Discharge
    charge_one_from_another = ChargeOneFromAnother
    query_battery_status = QueryBatteryStatus
    select_profile = SelectProfile
