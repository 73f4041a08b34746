"""The SDB Runtime (Figure 5).

"An SDB Runtime encapsulates the SDB microcontroller from the rest of the
OS. The SDB Runtime is responsible for all scheduling decisions affecting
the charging and discharging of batteries. It takes clues from the rest of
the OS, and communicates the charging and discharging scheduling decisions
to the SDB controller."

The runtime owns a discharge policy and a charge policy, re-evaluates them
"at coarse granular time steps" (Section 3.3), and pushes the resulting
ratio vectors through the four-call :class:`~repro.core.api.SDBApi`. The
rest of the OS influences it only through the two directive parameters and
(for workload-aware policies) the policy objects themselves.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence

from repro.cell.fuel_gauge import BatteryStatus
from repro.core.api import SDBApi
from repro.core.health import HealthMonitor, Incident
from repro.core.policies.base import ChargePolicy, DischargePolicy
from repro.core.policies.blended import BlendedChargePolicy, BlendedDischargePolicy
from repro.errors import BatteryError, HardwareError, PolicyError, RatioError
from repro.hardware.charge import FAST_PROFILE, GENTLE_PROFILE, STANDARD_PROFILE
from repro.hardware.microcontroller import SDBMicrocontroller
from repro.obs.tracer import Tracer, get_default_tracer

#: How often the runtime re-evaluates its policies, in seconds. The paper
#: updates "at coarse granular time steps"; 60 s keeps policy cost
#: negligible against the emulation step.
DEFAULT_UPDATE_INTERVAL_S = 60.0

#: Charging directive above which fast-charge-capable batteries get the
#: aggressive profile ("about to board a plane").
FAST_PROFILE_DIRECTIVE = 0.8

#: Charging directive below which every battery gets the gentle overnight
#: profile ("charging at night, in no hurry").
GENTLE_PROFILE_DIRECTIVE = 0.2

#: A battery must accept at least this C-rate for the fast profile to be
#: worth selecting on it.
FAST_CAPABLE_C = 2.0

#: How many times a lost ratio command is re-sent before the runtime gives
#: up for this tick and keeps the controller's last-installed ratios.
COMMAND_RETRY_LIMIT = 3


class SDBRuntime:
    """OS-side scheduler: policies in, ratio vectors out.

    Thread safety: a runtime may be ticked by an emulation loop while
    other threads (the fleet serving path, a heartbeat snapshotter)
    issue SDB calls against the same controller. The runtime serializes
    its own compound read-modify-write sequences — :meth:`tick`,
    :meth:`query_status`, and the external command surface
    (:meth:`apply_charge` / :meth:`apply_discharge` /
    :meth:`apply_profile`) — behind :attr:`lock`, a reentrant lock.
    :class:`~repro.core.api.SDBApi` itself performs **no** locking (it is
    the bare wire protocol); a thread bypassing the runtime to call the
    api/controller directly while another thread may be ticking must
    hold ``runtime.lock`` around the call.

    Args:
        controller: the SDB microcontroller (wrapped in an :class:`SDBApi`).
        discharge_policy: decides discharge ratios; defaults to the
            directive-blended policy of Section 3.3.
        charge_policy: decides charge ratios; same default.
        update_interval_s: minimum time between ratio recomputations.
        manage_profiles: if True, the runtime also selects each battery's
            charging profile from the charging directive (Figure 4c's
            dynamic "charge profile select"): fast for capable batteries
            when the directive is urgent, gentle overnight, standard
            otherwise.
        health_monitor: optional :class:`~repro.core.health.HealthMonitor`.
            When present the runtime is *resilient*: it cross-checks every
            status read, quarantines implausible batteries (their ratio
            shares renormalize onto the healthy set), and degrades to the
            last-good ratio vector instead of raising when a policy fails.
            Without it the runtime is strict — policy errors propagate.
        tracer: observability sink (see :mod:`repro.obs`); every ratio
            decision is recorded in it as a ``runtime.ratio_decision``
            event, the runtime's only record of its decisions, and every
            incident as ``runtime.incident``. Defaults to the process
            default tracer (normally disabled), which records nothing.
        protection: optional
            :class:`~repro.protection.manager.ProtectionManager`. When
            present the runtime drives it once per tick: estimator
            councils and envelope guards update, and (in enforce mode)
            the resulting derates/cutoffs reshape the ratio vectors the
            policies produced, so planning re-routes around protected
            batteries.
        dag: optional :class:`~repro.core.vdag.BatteryDAG` placing the
            physical cells behind virtual batteries (aggregates and
            tenant splitters). The runtime gates policy output through
            the DAG (shares under exhausted splitters are zeroed and
            renormalized) *before* the health/protection filters, which
            keep operating at the physical leaves exactly as without a
            DAG; the trivial one-level DAG is bit-identical to ``None``.
    """

    def __init__(
        self,
        controller: SDBMicrocontroller,
        discharge_policy: Optional[DischargePolicy] = None,
        charge_policy: Optional[ChargePolicy] = None,
        update_interval_s: float = DEFAULT_UPDATE_INTERVAL_S,
        manage_profiles: bool = False,
        health_monitor: Optional[HealthMonitor] = None,
        tracer: Optional[Tracer] = None,
        protection=None,
        dag=None,
    ):
        if update_interval_s <= 0:
            raise ValueError("update interval must be positive")
        self.dag = dag
        self.api = SDBApi(controller, dag=dag)
        self.controller = controller
        self.discharge_policy = discharge_policy if discharge_policy is not None else BlendedDischargePolicy()
        self.charge_policy = charge_policy if charge_policy is not None else BlendedChargePolicy()
        self.update_interval_s = float(update_interval_s)
        self.manage_profiles = bool(manage_profiles)
        self.health = health_monitor
        self.tracer = tracer if tracer is not None else get_default_tracer()
        self.protection = protection
        if protection is not None:
            protection.bind(health_monitor, self.tracer)
        if dag is not None:
            # The tracer is read through a provider at event time: the
            # emulator propagates an enabled tracer onto the runtime
            # after construction, and DAG events must follow it.
            dag.bind(controller, lambda: self.tracer)
        #: Serializes tick/query/apply_* against each other across threads
        #: (see the class docstring's thread-safety contract). Reentrant so
        #: locked helpers can compose.
        self.lock = threading.RLock()
        self._last_update_t: Optional[float] = None
        self._last_profile_directive: Optional[float] = None
        self.ratio_updates = 0
        #: Ticks where a failing policy was degraded to a last-good vector.
        self.degraded_ticks = 0
        #: Runtime-side incident log (command retries/drops, degradations).
        #: Quarantine incidents live on the monitor; :meth:`all_incidents`
        #: merges both views chronologically.
        self.incidents: List[Incident] = []
        self._last_good_discharge: Optional[List[float]] = None
        self._last_good_charge: Optional[List[float]] = None

    # ------------------------------------------------------------------ #
    # Directive parameters (the OS power manager's knobs, Figure 5)
    # ------------------------------------------------------------------ #

    def set_discharge_directive(self, value: float) -> None:
        """Forward the Discharging Directive Parameter to the policy."""
        setter = getattr(self.discharge_policy, "set_directive", None)
        if setter is None:
            raise PolicyError(f"{self.discharge_policy.name()} does not take a directive parameter")
        setter(value)
        self.force_update()

    def set_charge_directive(self, value: float) -> None:
        """Forward the Charging Directive Parameter to the policy."""
        setter = getattr(self.charge_policy, "set_directive", None)
        if setter is None:
            raise PolicyError(f"{self.charge_policy.name()} does not take a directive parameter")
        setter(value)
        self.force_update()

    def set_discharge_policy(self, policy: DischargePolicy) -> None:
        """Swap the discharge policy (a software update, Section 1)."""
        self.discharge_policy = policy
        self.force_update()

    def set_charge_policy(self, policy: ChargePolicy) -> None:
        """Swap the charge policy."""
        self.charge_policy = policy
        self.force_update()

    def force_update(self) -> None:
        """Recompute ratios at the next tick regardless of the interval."""
        self._last_update_t = None

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    @property
    def resilient(self) -> bool:
        """True when a health monitor is attached (best-effort mode)."""
        return self.health is not None

    def all_incidents(self) -> List[Incident]:
        """Runtime, monitor, and protection incidents, merged chronologically."""
        merged = list(self.incidents)
        if self.health is not None:
            merged.extend(self.health.incidents)
        if self.protection is not None:
            merged.extend(self.protection.incidents)
        if self.dag is not None:
            merged.extend(self.dag.incidents)
        merged.sort(key=lambda inc: inc.t)
        return merged

    def _evaluate(self, compute: Callable[[], List[float]], last_good: Optional[List[float]], t: float, side: str):
        """Run one policy; in resilient mode degrade instead of raising.

        Returns ``(ratios, degraded)``. The fallback is the last ratio
        vector that pushed successfully, or an equal split when the policy
        has never succeeded.
        """
        try:
            return compute(), False
        except (PolicyError, BatteryError) as exc:
            if not self.resilient:
                raise
            n = self.controller.n
            fallback = list(last_good) if last_good else [1.0 / n] * n
            self.degraded_ticks += 1
            self._record(
                Incident(t, "policy-degraded", None, f"{side} policy raised {type(exc).__name__}: {exc}")
            )
            return fallback, True

    def _record(self, incident: Incident) -> None:
        self.incidents.append(incident)
        self.tracer.count("runtime.incidents")
        self.tracer.event(
            "runtime.incident",
            incident.t,
            kind=incident.kind,
            battery=incident.battery_index,
            detail=incident.detail,
        )

    def _push(self, command: Callable[..., None], ratios: Sequence[float], t: float, side: str) -> bool:
        """Push one ratio vector, retrying transiently lost commands.

        A :class:`~repro.errors.HardwareError` from the link is retried up
        to :data:`COMMAND_RETRY_LIMIT` times (the paper's prototype carried
        these commands over Bluetooth — loss is expected, not fatal).
        :class:`~repro.errors.RatioError` — a malformed vector — is the
        caller's bug and always propagates. If every retry fails the
        controller keeps its previously installed ratios; in strict mode
        that exhaustion propagates, in resilient mode it is logged.
        """
        attempts = 1 + COMMAND_RETRY_LIMIT
        for attempt in range(1, attempts + 1):
            try:
                command(*ratios)
            except RatioError:
                raise
            except HardwareError as exc:
                if attempt == attempts:
                    if not self.resilient:
                        raise
                    self._record(
                        Incident(t, "command-dropped", None, f"{side} command failed {attempts}x: {exc}")
                    )
                    return False
                continue
            if attempt > 1:
                self._record(Incident(t, "command-retried", None, f"{side} command landed on attempt {attempt}"))
            return True
        return False

    def tick(self, t: float, load_w: float, external_w: float = 0.0) -> bool:
        """Re-evaluate policies if the update interval has elapsed.

        In resilient mode (a health monitor is attached) this never raises
        for policy or transient hardware failures: the tick degrades to the
        last-good ratio vectors, quarantines implausible batteries, and
        logs an :class:`~repro.core.health.Incident` for each deviation.

        Serialized behind :attr:`lock` against :meth:`query_status` and
        the ``apply_*`` external command surface.

        Args:
            t: current simulation time, seconds.
            load_w: present system load (discharge side).
            external_w: present external supply power (charge side).

        Returns:
            True if new ratio vectors were pushed *and installed* on the
            controller. False when the interval has not elapsed, or when
            retries were exhausted and the controller kept its previous
            ratios (an enabled tracer still records the attempt as a
            ``runtime.ratio_decision`` event with ``installed=False``).
        """
        with self.lock:
            return self._tick_locked(t, load_w, external_w)

    def _tick_locked(self, t: float, load_w: float, external_w: float) -> bool:
        if self._last_update_t is not None and t - self._last_update_t < self.update_interval_s:
            # A charging directive set between ticks (directly on the
            # policy, without force_update) must still reselect charge
            # profiles the moment the charger is attached — waiting out
            # the ratio interval would charge on a stale profile.
            if self.manage_profiles and external_w > 0.0:
                directive = getattr(self.charge_policy, "directive", None)
                if directive is not None and directive != self._last_profile_directive:
                    self._select_profiles()
            return False
        tracer = self.tracer
        with tracer.timer("runtime.update"):
            cells = self.controller.cells
            if self.health is not None or self.protection is not None:
                statuses = self.controller.query_status()
                if self.health is not None:
                    self.health.observe(t, statuses)
                if self.protection is not None:
                    # After the health pass so the councils can quarantine
                    # through it this very tick (and re-assert while a
                    # consensus failure persists).
                    self.protection.observe(t, statuses)
            with tracer.timer("runtime.policy_eval"):
                discharge, degraded = self._evaluate(
                    lambda: self.discharge_policy.discharge_ratios(cells, load_w, t),
                    self._last_good_discharge,
                    t,
                    "discharge",
                )
            discharge = self._gate(discharge, discharge=True)
            installed = True
            if self._push(self.api.Discharge, discharge, t, "discharge"):
                self._last_good_discharge = list(discharge)
            else:
                installed = False
            charge = None
            if external_w > 0.0:
                with tracer.timer("runtime.policy_eval"):
                    charge, charge_degraded = self._evaluate(
                        lambda: self.charge_policy.charge_ratios(cells, external_w, t),
                        self._last_good_charge,
                        t,
                        "charge",
                    )
                degraded = degraded or charge_degraded
                charge = self._gate(charge, discharge=False)
                if self._push(self.api.Charge, charge, t, "charge"):
                    self._last_good_charge = list(charge)
                else:
                    installed = False
                if self.manage_profiles:
                    self._select_profiles()
            self._last_update_t = t
            if installed:
                self.ratio_updates += 1
            if installed:
                tracer.count("runtime.ratio_updates")
            else:
                tracer.count("runtime.dropped_updates")
            if degraded:
                tracer.count("runtime.degraded_ticks")
            if tracer.enabled:
                # The one record of this decision: built only when someone
                # is listening, so an untraced tick keeps nothing.
                tracer.event(
                    "runtime.ratio_decision",
                    t,
                    discharge_ratios=list(discharge),
                    charge_ratios=list(charge) if charge is not None else None,
                    load_w=load_w,
                    external_w=external_w,
                    degraded=degraded,
                    installed=installed,
                )
        return installed

    def _select_profiles(self) -> None:
        """Map the charging directive to per-battery charge profiles."""
        directive = getattr(self.charge_policy, "directive", None)
        if directive is None:
            return
        for index, cell in enumerate(self.controller.cells):
            if directive >= FAST_PROFILE_DIRECTIVE and cell.params.max_charge_c >= FAST_CAPABLE_C:
                profile = FAST_PROFILE
            elif directive <= GENTLE_PROFILE_DIRECTIVE:
                profile = GENTLE_PROFILE
            else:
                profile = STANDARD_PROFILE
            self.controller.select_profile(index, profile)
        self._last_profile_directive = directive

    def query_status(self, node=None) -> List[BatteryStatus]:
        """QueryBatteryStatus for the rest of the OS.

        When a protection manager is attached, each status is annotated
        with the council's ``soc_confidence`` and the guard's
        ``protection_state`` (the monitor/health layers always see the
        raw hardware response). With ``node`` set (a DAG node or its
        name) the response is the rolled-up
        :class:`~repro.core.vdag.NodeStatus` for that virtual battery.
        """
        with self.lock:
            if node is not None:
                return self.api.QueryBatteryStatus(node=node)
            statuses = self.api.QueryBatteryStatus()
            if self.protection is not None:
                statuses = self.protection.annotate(statuses)
            return statuses

    def _gate(self, ratios: Sequence[float], *, discharge: bool) -> List[float]:
        """The gates every ratio vector passes, from a tick or a caller.

        A discharge vector first passes the DAG's gate, which sheds the
        shares of cells under a splitter whose tenants are all exhausted;
        a charge vector skips it, as charging draws on no tenant's
        reserve. Then health quarantine and protection derates act
        exactly as without a DAG. Raises
        :class:`~repro.errors.RatioError` on a malformed vector.
        """
        ratios = list(ratios)
        if discharge and self.dag is not None:
            ratios = self.dag.gate_ratios(ratios)
        if self.health is not None:
            ratios = self.health.filter_ratios(ratios, n=self.controller.n)
        if self.protection is not None:
            ratios = self.protection.filter_ratios(ratios)
        return ratios

    # ------------------------------------------------------------------ #
    # External command surface (the serving path)
    # ------------------------------------------------------------------ #

    def apply_discharge(self, ratios: Sequence[float], t: float = 0.0) -> bool:
        """Install a discharge ratio vector on behalf of an external caller.

        The serving front end's ``SetDischarge``: the vector passes the
        same DAG/health/protection gates as a tick's output, then pushes
        with the usual transient-loss retries. Returns True when the
        vector landed on the controller; False when retries were
        exhausted (resilient mode). :class:`~repro.errors.RatioError`
        (a malformed vector — the caller's bug) always propagates.
        """
        with self.lock:
            filtered = self._gate(ratios, discharge=True)
            if self._push(self.api.Discharge, filtered, t, "discharge"):
                self._last_good_discharge = list(filtered)
                return True
            return False

    def apply_charge(self, ratios: Sequence[float], t: float = 0.0) -> bool:
        """Install a charge ratio vector on behalf of an external caller.

        ``SetCharge`` over the serving path; same contract as
        :meth:`apply_discharge`.
        """
        with self.lock:
            filtered = self._gate(ratios, discharge=False)
            if self._push(self.api.Charge, filtered, t, "charge"):
                self._last_good_charge = list(filtered)
                return True
            return False

    def apply_profile(self, profile, battery_index: Optional[int] = None) -> None:
        """Select a charging profile on behalf of an external caller.

        ``SelectChargingProfile`` over the serving path: one battery when
        ``battery_index`` is given, every battery otherwise (the serving
        granularity is a whole device).
        """
        with self.lock:
            if battery_index is not None:
                self.api.SelectProfile(battery_index, profile)
                return
            for index in range(self.controller.n):
                self.api.SelectProfile(index, profile)
