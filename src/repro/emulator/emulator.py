"""The SDB emulator's timestep loop.

Wires a device power trace through the OS runtime (policy re-evaluation),
the SDB hardware models (ratio quantization, circuit losses, charge
profiles) and the Thevenin battery models, collecting the energy
bookkeeping the Section 5 experiments report.

The loop per step:

1. read the trace's load power and the plug schedule's supply power;
2. let the runtime tick (recompute and push ratios if its interval
   elapsed);
3. run scenario hooks (e.g. the 2-in-1 cascade's base-to-internal
   transfer);
4. when plugged, serve the load from the supply and charge with the rest;
   when unplugged, discharge the batteries through the SDB circuit.

A device "dies" when the batteries can no longer serve the load; the
emulator records the death time and stops (matching how the paper reports
battery life).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import units
from repro.core.health import Incident
from repro.core.runtime import SDBRuntime
from repro.emulator.events import PlugSchedule
from repro.errors import (
    BatteryEmptyError,
    BatteryError,
    CheckpointError,
    EmulationAborted,
    InvariantViolation,
    PolicyError,
    PowerLimitError,
    require_positive,
)
from repro.faults.events import FaultEvent
from repro.faults.schedule import FaultSchedule
from repro.hardware.microcontroller import SDBMicrocontroller
from repro.obs.tracer import NULL_TRACER, Tracer, get_default_tracer
from repro.workloads.traces import PowerTrace

#: A scenario hook: called as ``hook(controller, t, dt)`` before each
#: discharge step. Used for controller-level scenario logic such as the
#: 2-in-1 cascade transfer.
Hook = Callable[[SDBMicrocontroller, float, float], None]


@dataclass
class EmulationResult:
    """Time series and energy totals from one emulation run."""

    dt_s: float
    times_s: List[float] = field(default_factory=list)
    load_w: List[float] = field(default_factory=list)
    soc_history: List[List[float]] = field(default_factory=list)
    loss_w: List[float] = field(default_factory=list)
    delivered_j: float = 0.0
    battery_heat_j: float = 0.0
    circuit_loss_j: float = 0.0
    charge_input_j: float = 0.0
    charge_loss_j: float = 0.0
    depletion_s: Optional[float] = None
    battery_depletion_s: List[Optional[float]] = field(default_factory=list)
    completed: bool = True
    #: Actual elapsed end time of the run, seconds. Set by the emulator to
    #: the trace-clipped end of the last step, so a survived run reports
    #: the true trace duration even when it is not a multiple of ``dt_s``.
    end_s: Optional[float] = None
    #: Every injected :class:`~repro.faults.events.FaultEvent`, in order.
    fault_events: List[FaultEvent] = field(default_factory=list)
    #: Resilience incidents: quarantines, degradations, command drops, and
    #: policy failures the emulator caught from a strict runtime.
    incidents: List[Incident] = field(default_factory=list)
    #: Per-battery seconds spent unavailable (physically disconnected or
    #: quarantined by the health monitor).
    downtime_s: List[float] = field(default_factory=list)

    @property
    def total_loss_j(self) -> float:
        """All losses: battery heat + discharge-circuit + charger losses."""
        return self.battery_heat_j + self.circuit_loss_j + self.charge_loss_j

    @property
    def elapsed_s(self) -> float:
        """Wall-clock seconds the run actually covered.

        Prefers the emulator-recorded :attr:`end_s`; hand-constructed
        results without one fall back to the last step plus ``dt_s``.
        """
        if self.end_s is not None:
            return self.end_s
        return self.times_s[-1] + self.dt_s if self.times_s else 0.0

    @property
    def battery_life_h(self) -> float:
        """Hours until death (or the actual elapsed time if it survived)."""
        end = self.depletion_s if self.depletion_s is not None else self.elapsed_s
        return units.seconds_to_hours(end)

    def hourly_loss_j(self) -> List[float]:
        """Losses aggregated per wall-clock hour (Figure 13's loss bars)."""
        if not self.times_s:
            return []
        hours = int(self.times_s[-1] // units.SECONDS_PER_HOUR) + 1
        buckets = [0.0] * hours
        for t, loss in zip(self.times_s, self.loss_w):
            buckets[int(t // units.SECONDS_PER_HOUR)] += loss * self.dt_s
        return buckets

    def final_socs(self) -> List[float]:
        """Per-battery SoC at the end of the run."""
        if not self.soc_history:
            return []
        return self.soc_history[-1]

    def summary(self) -> str:
        """A one-paragraph human-readable account of the run."""
        lines = [
            f"ran {units.seconds_to_hours(self.elapsed_s):.2f} h "
            f"at dt={self.dt_s:.0f} s; "
            + ("completed the trace" if self.completed else f"died at {self.battery_life_h:.2f} h"),
            f"delivered {self.delivered_j:.0f} J to the load; "
            f"losses: {self.battery_heat_j:.0f} J battery heat, "
            f"{self.circuit_loss_j:.0f} J discharge circuit, "
            f"{self.charge_loss_j:.0f} J charger",
        ]
        if self.charge_input_j > 0:
            lines.append(f"drew {self.charge_input_j:.0f} J from external power")
        if self.soc_history:
            socs = ", ".join(f"{s:.0%}" for s in self.final_socs())
            lines.append(f"final SoC: {socs}")
        for i, death in enumerate(self.battery_depletion_s):
            if death is not None:
                lines.append(f"battery {i} emptied at {units.seconds_to_hours(death):.2f} h")
        return "; ".join(lines)

    def resilience_summary(self) -> str:
        """A human-readable account of what went wrong and what it cost.

        Aggregates the fault timeline, the incident log, and the
        per-battery downtime into one paragraph — the robustness
        counterpart of :meth:`summary`.
        """
        lines = []
        if self.fault_events:
            counts = Counter(event.fault for event in self.fault_events if event.action == "inject")
            injected = ", ".join(f"{name} x{n}" for name, n in sorted(counts.items()))
            lines.append(f"{len(self.fault_events)} fault event(s): {injected}")
        else:
            lines.append("no faults injected")
        if self.incidents:
            counts = Counter(incident.kind for incident in self.incidents)
            kinds = ", ".join(f"{kind} x{n}" for kind, n in sorted(counts.items()))
            lines.append(f"{len(self.incidents)} incident(s): {kinds}")
        else:
            lines.append("no incidents")
        for i, downtime in enumerate(self.downtime_s):
            if downtime > 0:
                lines.append(f"battery {i} unavailable {units.seconds_to_hours(downtime):.2f} h")
        lines.append("completed the trace" if self.completed else f"died at {self.battery_life_h:.2f} h")
        return "; ".join(lines)


#: The emulation engines :class:`SDBEmulator` can run on.
ENGINES = ("reference", "vectorized")


class SDBEmulator:
    """Drives one controller + runtime through a workload trace.

    Args:
        engine: ``"reference"`` runs the original scalar per-step loop;
            ``"vectorized"`` runs the chunked NumPy fast path of
            :mod:`repro.emulator.engine`, which advances the pure-physics
            spans between policy ticks as array operations and falls back
            to scalar stepping around ticks, plug windows, and fault
            activity (see ``docs/performance.md``).
        tracer: observability sink (see :mod:`repro.obs`); defaults to the
            process default tracer, normally the disabled no-op tracer.
            When enabled, :meth:`run` also attaches it to the runtime and
            controller (unless they already carry an enabled tracer) so
            one flag lights up the whole stack.
        strict: raise a typed :class:`InvariantViolation` the moment a
            step produces physically impossible state (non-finite SoC/RC
            voltage/accumulators, SoC outside [0, 1], installed discharge
            ratios not summing to 1) instead of letting NaNs propagate.
            On by default under the run supervisor.
        rngs: optional name -> :class:`numpy.random.Generator` registry of
            every stream the run consumes (hook noise, estimator noise,
            ...). Registered generators are captured in checkpoints and
            restored on resume so stochastic runs stay bit-reproducible.
        checkpoint_path: when set, :meth:`run` persists a ``repro.ckpt/v3``
            snapshot here every ``checkpoint_every_s`` simulated seconds
            (atomic write; a crash never leaves a torn file).
        checkpoint_every_s: periodic checkpoint cadence in simulated
            seconds (default one sim-hour when ``checkpoint_path`` is set).
        abort_signal: optional event-like object (``threading.Event`` or
            ``multiprocessing.Event``) polled at every step boundary.
            When set, the run raises :class:`EmulationAborted` with all
            state consistent — the cooperative abort channel used by the
            supervisor watchdog off the main thread and by fleet workers
            being cancelled. Settable after construction too.
        load_shaper: optional admission-control hook called as
            ``load_shaper(t, dt, load) -> float`` once per step, after
            fault perturbation and before anything consumes the load.
            The multi-tenant scenarios use it to route the step's
            per-tenant demands through
            :meth:`~repro.core.vdag.BatteryDAG.account`, so the battery
            only serves the power the contracts admit. A shaper forces
            the vectorized engine onto the reference loop (it can mutate
            arbitrary state between steps).
    """

    def __init__(
        self,
        controller: SDBMicrocontroller,
        runtime: SDBRuntime,
        trace: PowerTrace,
        plug: Optional[PlugSchedule] = None,
        dt_s: float = 10.0,
        hooks: Sequence[Hook] = (),
        stop_on_depletion: bool = True,
        faults: Optional[FaultSchedule] = None,
        engine: str = "reference",
        tracer: Optional[Tracer] = None,
        strict: bool = False,
        rngs: Optional[Dict[str, np.random.Generator]] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every_s: Optional[float] = None,
        abort_signal=None,
        load_shaper: Optional[Callable[[float, float, float], float]] = None,
    ):
        require_positive(dt_s, "dt")
        if runtime.controller is not controller:
            raise ValueError("runtime must wrap the same controller")
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        for seg in trace.segments:
            if not math.isfinite(seg.power_w):
                raise ValueError(
                    f"workload trace has a non-finite power sample "
                    f"({seg.power_w!r}) at t={seg.start_s:.1f} s"
                )
        if checkpoint_every_s is not None:
            require_positive(checkpoint_every_s, "checkpoint_every_s")
        self.controller = controller
        self.runtime = runtime
        self.trace = trace
        self.plug = plug if plug is not None else PlugSchedule.never()
        self.dt_s = float(dt_s)
        self.hooks = list(hooks)
        self.stop_on_depletion = stop_on_depletion
        self.faults = faults
        self.engine = engine
        self.tracer = tracer if tracer is not None else get_default_tracer()
        self.strict = bool(strict)
        self.rngs = dict(rngs) if rngs else {}
        self.checkpoint_path = checkpoint_path
        if checkpoint_path is not None and checkpoint_every_s is None:
            checkpoint_every_s = units.SECONDS_PER_HOUR
        self.checkpoint_every_s = checkpoint_every_s
        self.abort_signal = abort_signal
        self.load_shaper = load_shaper
        #: Per-run fault-event sink; rebound by :meth:`run` so traced runs
        #: mirror the fault timeline into the tracer.
        self._fault_sink: Callable[[FaultEvent], None] = lambda event: None
        #: Resume cursor: how many completed steps the restored result
        #: already holds. 0 for a fresh run.
        self._resume_index: int = 0
        #: Vectorized-engine warm start restored from a checkpoint.
        self._resume_warm_current: Optional[List[float]] = None
        #: Simulated time of the last periodic checkpoint.
        self._last_checkpoint_t: Optional[float] = None
        #: Monotonic progress counter the supervisor's watchdog polls.
        self._steps_completed: int = 0
        #: The in-flight result, for mid-run :meth:`save_checkpoint` calls.
        self._live_result: Optional[EmulationResult] = None
        #: The partial result :meth:`load_checkpoint` restored, which the
        #: next :meth:`run` continues instead of starting afresh.
        self._restored: Optional[EmulationResult] = None

    def _propagate_tracer(self) -> None:
        """Attach an enabled tracer to the runtime and controller.

        Only fills in components still carrying the disabled default, so a
        deliberately separate tracer on either is respected.
        """
        if not self.tracer.enabled:
            return
        if not getattr(self.runtime, "tracer", NULL_TRACER).enabled:
            self.runtime.tracer = self.tracer
        # The protection manager captures the runtime's tracer at bind
        # time, which may predate this propagation.
        protection = getattr(self.runtime, "protection", None)
        if protection is not None and not protection.tracer.enabled:
            protection.tracer = self.tracer
        if not getattr(self.controller, "tracer", NULL_TRACER).enabled:
            self.controller.tracer = self.tracer

    def _make_fault_sink(self, result: EmulationResult) -> Callable[[FaultEvent], None]:
        """The recorder handed to the fault schedule for this run."""
        if not self.tracer.enabled:
            return result.fault_events.append
        tracer = self.tracer

        def sink(event: FaultEvent) -> None:
            result.fault_events.append(event)
            tracer.event(
                f"fault.{event.action}",
                event.t,
                fault=event.fault,
                battery=event.battery_index,
                detail=event.detail,
            )

        return sink

    def run(self, resume_from: Optional[str] = None) -> EmulationResult:
        """Execute the full trace and return the collected bookkeeping.

        With ``resume_from`` set to a ``repro.ckpt/v3`` file, the run
        restores that snapshot and continues from its step cursor; the
        finished result is step-for-step identical to an uninterrupted
        run under both engines (see ``docs/checkpointing.md``). A run
        after :meth:`load_checkpoint` continues the restored state the
        same way.
        """
        if resume_from is not None:
            self.load_checkpoint(resume_from)
        result, self._restored = self._restored, None
        if result is None:
            result = EmulationResult(dt_s=self.dt_s)
            n = self.controller.n
            result.battery_depletion_s = [None] * n
            result.downtime_s = [0.0] * n
            self._resume_index = 0
            self._resume_warm_current = None
        self._live_result = result
        self._steps_completed = len(result.times_s)
        self._last_checkpoint_t = result.times_s[-1] if result.times_s else self.trace.start_s
        self._propagate_tracer()
        self._fault_sink = self._make_fault_sink(result)

        with self.tracer.timer("emulator.run"):
            if self.engine == "vectorized":
                from repro.emulator.engine import VectorizedEngine

                VectorizedEngine(self).run(result)
            else:
                self._run_reference(result)

        result.incidents.extend(self.runtime.all_incidents())
        result.incidents.sort(key=lambda incident: incident.t)
        if result.times_s:
            result.end_s = min(result.times_s[-1] + self.dt_s, self.trace.end_s)
        else:
            result.end_s = 0.0
        if self.tracer.enabled:
            self.tracer.span(
                "emulator.run",
                self.trace.start_s,
                result.end_s - self.trace.start_s,
                engine=self.engine,
                steps=len(result.times_s),
                completed=result.completed,
            )
        return result

    def _run_reference(self, result: EmulationResult) -> None:
        """The original scalar loop: one :meth:`_step` per trace step.

        The explicit accumulation mirrors :meth:`PowerTrace.steps` exactly
        (same float additions, same end guard) so a resumed run visits
        bit-identical timestamps: the resume skip advances ``t`` through
        the same ``t += dt`` sequence the original run performed.
        """
        dt = self.dt_s
        end = self.trace.end_s - 1e-9
        t = self.trace.start_s
        for _ in range(self._resume_index):
            t += dt
        while t < end:
            if not self._step(result, t, self.trace.power_at(t)):
                break
            self._maybe_checkpoint(result, t)
            t += dt

    # ------------------------------------------------------------------ #
    # Checkpoint/restore
    # ------------------------------------------------------------------ #

    def _maybe_checkpoint(
        self, result: EmulationResult, t: float, warm_current: Optional[List[float]] = None
    ) -> None:
        """Advance the progress counter; persist a snapshot on cadence.

        Called by both engines at points where all object state is
        committed and ``len(result.times_s)`` equals the number of
        completed steps — the property the resume cursor relies on.
        """
        self._steps_completed = len(result.times_s)
        if self.checkpoint_path is None or self.checkpoint_every_s is None:
            return
        last = self._last_checkpoint_t
        if last is not None and t - last < self.checkpoint_every_s:
            return
        self.save_checkpoint(self.checkpoint_path, result, warm_current=warm_current)
        self._last_checkpoint_t = t

    def save_checkpoint(
        self,
        path: str,
        result: Optional[EmulationResult] = None,
        *,
        warm_current: Optional[List[float]] = None,
    ) -> str:
        """Atomically persist the current emulation state as ``repro.ckpt/v3``.

        ``result`` defaults to the in-flight result of the current
        :meth:`run`; ``warm_current`` is the vectorized engine's
        fixed-point warm start (the engine passes it automatically).
        """
        from repro.checkpoint.format import write_checkpoint
        from repro.checkpoint.state import capture_emulator_state

        if result is None:
            result = self._live_result
        if result is None:
            raise CheckpointError(
                "no emulation state to checkpoint: call run() first or pass a result"
            )
        payload = capture_emulator_state(self, result, warm_current=warm_current)
        write_checkpoint(path, payload)
        if self.tracer.enabled:
            self.tracer.count("emulator.checkpoints")
        return path

    def load_checkpoint(self, path: str) -> EmulationResult:
        """Restore a ``repro.ckpt/v3`` snapshot into this emulator.

        Returns the partial :class:`EmulationResult` and arms the resume
        cursor, so the next :meth:`run` continues the interrupted run,
        as ``run(resume_from=path)`` does. Raises
        :class:`CheckpointError` on corruption or configuration mismatch.
        """
        from repro.checkpoint.format import read_checkpoint
        from repro.checkpoint.state import restore_emulator_state

        payload = read_checkpoint(path)
        result = restore_emulator_state(self, payload)
        self._resume_index = int(payload["step_index"])
        engine_state = payload.get("engine") or {}
        warm = engine_state.get("warm_current")
        self._resume_warm_current = None if warm is None else [float(c) for c in warm]
        self._live_result = result
        self._restored = result
        return result

    # ------------------------------------------------------------------ #
    # Strict invariants
    # ------------------------------------------------------------------ #

    def _check_invariants(self, t: float) -> None:
        """Raise :class:`InvariantViolation` on physically impossible state."""
        for i, cell in enumerate(self.controller.cells):
            if not (math.isfinite(cell.soc) and math.isfinite(cell.v_rc)):
                raise InvariantViolation(
                    f"battery {i} has non-finite state at t={t:.1f} s "
                    f"(soc={cell.soc!r}, v_rc={cell.v_rc!r})"
                )
            if not -1e-9 <= cell.soc <= 1.0 + 1e-9:
                raise InvariantViolation(
                    f"battery {i} SoC {cell.soc!r} outside [0, 1] at t={t:.1f} s"
                )
        total = sum(self.controller.discharge_ratios)
        if not math.isfinite(total) or abs(total - 1.0) > 1e-6:
            raise InvariantViolation(
                f"installed discharge ratios sum to {total!r} (expected 1) at t={t:.1f} s"
            )

    def _step(self, result: EmulationResult, t: float, load: float) -> bool:
        """Advance one full emulation step at time ``t``.

        This is the single source of truth for per-step semantics; the
        reference loop runs every step through it and the vectorized
        engine runs its scalar-path steps (ticks, plug windows, fault
        windows, chunk-boundary steps) through it unchanged.

        Returns False when the run should stop (depletion with
        ``stop_on_depletion``), True otherwise.
        """
        if self.abort_signal is not None and self.abort_signal.is_set():
            raise EmulationAborted(f"cooperative abort requested at t={t:.1f} s")
        n = self.controller.n
        monitor = self.runtime.health
        tracer = self.tracer
        tracer.count("emulator.steps")
        if self.faults is not None:
            load = self.faults.perturb_load(t, load)
        if self.load_shaper is not None:
            load = self.load_shaper(t, self.dt_s, load)
        if self.strict and not math.isfinite(load):
            raise InvariantViolation(f"non-finite load power {load!r} at t={t:.1f} s")
        supply = self.plug.power_at(t)
        try:
            with tracer.timer("emulator.policy_tick"):
                self.runtime.tick(t, load, external_w=supply)
        except (PolicyError, BatteryError) as exc:
            # A strict runtime surfaces policy failures; record the
            # incident and fall through to the discharge step, which
            # classifies an actual death cleanly. Anything else (a
            # programming error) propagates instead of being masked.
            result.incidents.append(
                Incident(t, "policy-error", None, f"{type(exc).__name__}: {exc}")
            )
            tracer.event("runtime.policy_error", t, error=f"{type(exc).__name__}: {exc}")
        if self.faults is not None:
            self.faults.step(self.controller, t, self.dt_s, self._fault_sink)
        for hook in self.hooks:
            hook(self.controller, t, self.dt_s)
        for i in range(n):
            if not self.controller.connected[i] or (monitor is not None and i in monitor.quarantined):
                result.downtime_s[i] += self.dt_s

        with tracer.timer("emulator.step_kernel"):
            step_loss = 0.0
            depleted = False
            if supply > 0.0:
                served = min(load, supply)
                headroom = supply - served
                if headroom > 0.0:
                    report = self.controller.step_charge(headroom, self.dt_s)
                    result.charge_input_j += report.input_used_w * self.dt_s
                    result.charge_loss_j += report.loss_w * self.dt_s
                    step_loss += report.loss_w
                load -= served
                result.delivered_j += served * self.dt_s

            if load > 0.0:
                try:
                    report = self.controller.step_discharge(load, self.dt_s)
                except (BatteryEmptyError, PowerLimitError) as exc:
                    result.depletion_s = t
                    result.completed = False
                    tracer.event(
                        "emulator.depletion", t, load_w=load, error=type(exc).__name__
                    )
                    depleted = True
                else:
                    result.delivered_j += load * self.dt_s
                    result.battery_heat_j += report.battery_heat_w * self.dt_s
                    result.circuit_loss_j += report.circuit_loss_w * self.dt_s
                    step_loss += report.total_loss_w
            else:
                # Fully powered externally: batteries rest.
                for cell in self.controller.cells:
                    if not (cell.is_empty or cell.is_full):
                        cell.step_current(0.0, self.dt_s)

        if self.strict:
            self._check_invariants(t)
            if not math.isfinite(result.delivered_j + result.battery_heat_j + step_loss):
                raise InvariantViolation(f"non-finite energy accumulators at t={t:.1f} s")

        if depleted:
            if self.stop_on_depletion:
                return False
            # Shed the load entirely and keep the clock running.
            result.times_s.append(t)
            result.load_w.append(load)
            result.loss_w.append(0.0)
            result.soc_history.append([cell.soc for cell in self.controller.cells])
            return True

        for i, cell in enumerate(self.controller.cells):
            if cell.is_empty and result.battery_depletion_s[i] is None:
                result.battery_depletion_s[i] = t + self.dt_s

        with tracer.timer("emulator.bookkeeping"):
            result.times_s.append(t)
            result.load_w.append(load)
            result.loss_w.append(step_loss)
            result.soc_history.append([cell.soc for cell in self.controller.cells])
        return True


#: Friendly alias matching the paper-facing ``Emulator(engine=...)`` API.
Emulator = SDBEmulator


def cascade_transfer_hook(source_index: int, dest_index: int, power_w: float) -> Hook:
    """Hook reproducing the traditional 2-in-1 behaviour (Section 5.3).

    The external (keyboard base) battery does nothing but charge the
    internal battery at a fixed rate while it has charge left — "external
    battery packs under the keyboard are typically used to charge the main
    internal battery".
    """
    if power_w <= 0:
        raise ValueError("transfer power must be positive")

    def hook(controller: SDBMicrocontroller, t: float, dt: float) -> None:
        source = controller.cells[source_index]
        dest = controller.cells[dest_index]
        if source.is_empty or dest.is_full:
            return
        controller.transfer(source_index, dest_index, power_w, dt)

    return hook
