"""Batched run-axis sweep execution: many emulations, one NumPy kernel.

The vectorized engine (:mod:`repro.emulator.engine`) vectorizes across
*time* for a single run; sweeps and fleet shards still loop it one run at
a time. This module adds the second axis: battery-state arrays carry a
leading run dimension — ``(R runs, M cells)`` flattened to ``R * M``
rows — so one chunk kernel advances an entire sweep between runtime
ticks, and the per-step scalar work at tick boundaries runs as small
``(R, M)`` array operations ("virtual steps") instead of Python loops.

Bit-exactness contract
----------------------

Every batched run must be **bit-identical** to executing its emulator
alone with ``engine="vectorized"``. Three mechanisms make that hold by
construction rather than by tolerance:

* One chunk kernel: between ticks the batch calls the same
  :meth:`~repro.emulator.engine.PackParams.solve` and
  :meth:`~repro.emulator.engine.PackParams.commit_sums` as the
  single-run engine, with the unique rows of all runs stacked. Both are
  row-wise except the fixed point's convergence test, which is per run,
  so a run's rows get the bits its solo chunk would. Only the per-run
  totals are reduced here, in the single-run engine's layout.

* Arithmetic replication in the virtual step: its policy, quantization,
  loss, cap, quadratic, RC, aging and gauge math is written with the
  exact association and reduction order of the scalar code in
  :mod:`repro.cell.thevenin` / :mod:`repro.hardware` /
  :mod:`repro.core.runtime`. Where the scalar path uses
  ``math.exp``/``math.sqrt``, the batch uses per-cell Python
  ``math.exp`` constants and ``np.sqrt`` (IEEE-exact).

* Demote-before-commit: whenever a run is about to diverge from the
  pure lockstep fast path — a cell crossing the empty threshold, a
  power-cap violation engaging the redistribution logic, a policy
  producing no usable weights, a non-finite value, any rare branch the
  virtual step does not replicate — the run is *demoted* before that
  step or chunk is committed. Its array state (still the pre-event
  state) is synced back into the authoritative cell/gauge/runtime
  objects, a private :class:`~repro.emulator.engine.VectorizedEngine`
  is seeded with the batch's warm-start currents, and the run resumes
  alone from the same step index. The single-run engine then re-executes
  the divergent region with its own truncation/scalar-boundary logic,
  so the demoted run's remaining trajectory is the single-run
  trajectory by definition.

Known telemetry-only divergences (documented, asserted nowhere):
runs executed in-batch emit no ``runtime.ratio_decision`` events (the
runtime's one record of its ratio decisions), controller command
counters, or per-run ``engine.*`` tracer counters; the batch emits
``sweep.*`` counters instead. No numeric result field is affected.

Eligibility
-----------

:func:`batch_blockers` lists why an emulator cannot join a batch:
anything event-driven (plug windows, fault schedules, protection,
health monitoring, checkpointing, hooks, command dropout, abort
signals) or outside the replicated policy set (even-split and
proportional-to-capacity, packs of at most ``MAX_BATCH_CELLS`` cells).
Blocked runs simply execute on the single-run path — correctness never
depends on eligibility, only throughput does.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cell.thevenin import SOC_EMPTY
from repro.chemistry.aging import DISCHARGE_STRESS_WEIGHT
from repro.core.policies.baselines import (
    EvenSplitDischargePolicy,
    ProportionalToCapacityDischargePolicy,
)
from repro.emulator.emulator import EmulationResult
from repro.emulator.engine import (
    MAX_CHUNK_STEPS,
    SCALAR_FALLBACK_STEPS,
    PackParams,
    VectorizedEngine,
    next_tick_index,
    step_times,
)
from repro.hardware.discharge import RATIO_SUM_TOL
from repro.hardware.microcontroller import POWER_SAFETY_MARGIN
from repro.obs.tracer import get_default_tracer

__all__ = ["BatchedRunner", "batch_blockers", "MAX_BATCH_CELLS"]

#: Largest pack the virtual-step reductions replicate exactly. The scalar
#: path accumulates per-cell sums with Python's left-to-right ``sum``; for
#: up to two addends that is a single IEEE addition, identical to the
#: pairwise ``ndarray.sum`` the batch uses. Larger packs would need an
#: order-exact reduction, so they fall back to the single-run engine.
MAX_BATCH_CELLS = 2

#: Discharge policies whose per-tick ratio computation the virtual tick
#: replicates exactly (see :meth:`BatchedRunner._virtual_step`).
BATCHABLE_POLICIES = (EvenSplitDischargePolicy, ProportionalToCapacityDischargePolicy)


def batch_blockers(em) -> List[str]:
    """Reasons this emulator cannot join a batched sweep.

    Empty means the run is statically eligible; per-run dynamic checks
    (strictly positive loads, initially non-empty cells) happen at batch
    prepare time and reject runs to the single-run path individually.
    """
    blockers: List[str] = []
    if em.engine != "vectorized":
        blockers.append(f"engine {em.engine!r}")
    if em.faults is not None:
        blockers.append("fault schedule")
    if em.plug.windows:
        blockers.append("plug windows")
    if em.checkpoint_path is not None:
        blockers.append("checkpointing")
    if em.strict:
        blockers.append("strict mode")
    if em.abort_signal is not None:
        blockers.append("abort signal")
    if not em.stop_on_depletion:
        blockers.append("stop_on_depletion=False")
    runtime = em.runtime
    if runtime.health is not None:
        blockers.append("health monitor")
    if runtime.protection is not None:
        blockers.append("protection manager")
    dag = getattr(runtime, "dag", None)
    if dag is not None and not dag.is_trivial:
        # A splitter can gate ratios mid-run; the virtual tick cannot
        # replicate that. Trivial DAGs never gate and stay batchable.
        blockers.append("virtual-battery DAG")
    if runtime._last_update_t is not None:
        blockers.append("runtime already ticked")
    if not isinstance(runtime.discharge_policy, BATCHABLE_POLICIES):
        blockers.append(f"policy {runtime.discharge_policy.name()}")
    controller = em.controller
    if controller.n > MAX_BATCH_CELLS:
        blockers.append(f"pack of {controller.n} cells")
    if controller.command_dropout > 0:
        blockers.append("command dropout")
    if not all(controller.connected):
        blockers.append("disconnected battery")
    if any(d != 1.0 for d in controller.protection_derating):
        blockers.append("protection derating")
    blockers.extend(VectorizedEngine(em).fast_path_blockers())
    return blockers


class BatchedRunner:
    """Advance a homogeneous group of eligible emulators in lockstep.

    All emulators must be statically eligible (:func:`batch_blockers`
    empty) and homogeneous: same cell count, dt, trace start/end, and
    runtime update interval — the sweep planner groups runs by exactly
    this key. Runs that fail per-run dynamic checks at prepare time
    (non-positive loads anywhere in the trace, initially empty cells)
    are executed on the single-run engine instead, transparently.

    Args:
        emulators: the runs, in result order.
        tracer: sink for ``sweep.*`` counters/spans; defaults to the
            process default tracer.
        keep_series: when True, per-step time series (``times_s``,
            ``load_w``, ``loss_w``, ``soc_history``) are appended to
            each result exactly as the single-run engine would. Off by
            default — a large sweep of day-long dt=1 runs would hold
            gigabytes of history; energy totals, depletion times, and
            final state are always exact either way.
    """

    def __init__(self, emulators: Sequence, *, tracer=None, keep_series: bool = False):
        self.ems = list(emulators)
        if not self.ems:
            raise ValueError("batched sweep needs at least one emulator")
        self.tracer = tracer if tracer is not None else get_default_tracer()
        self.keep_series = bool(keep_series)
        em0 = self.ems[0]
        self.M = em0.controller.n
        self.dt = em0.dt_s
        self.interval = em0.runtime.update_interval_s
        start, end = em0.trace.start_s, em0.trace.end_s
        for em in self.ems:
            blockers = batch_blockers(em)
            if blockers:
                raise ValueError(f"emulator not batch-eligible: {', '.join(blockers)}")
            if (
                em.controller.n != self.M
                or em.dt_s != self.dt
                or em.runtime.update_interval_s != self.interval
                or em.trace.start_s != start
                or em.trace.end_s != end
            ):
                raise ValueError("batched emulators must share pack size, dt, trace span, and tick interval")
        self.R = len(self.ems)
        #: Run indices retired to the single-run fallback mid-batch, in
        #: demotion order (sweep rollups report this without a tracer).
        self.demoted: List[int] = []

    # ------------------------------------------------------------------ #
    # Orchestration
    # ------------------------------------------------------------------ #

    def run(self) -> List[EmulationResult]:
        """Execute every run to completion; results are in input order."""
        tracer = self.tracer
        self.results = [self._make_result(em) for em in self.ems]
        for em, result in zip(self.ems, self.results):
            # Replicate SDBEmulator.run()'s preamble for a fresh run.
            em._resume_index = 0
            em._resume_warm_current = None
            em._live_result = result
            em._steps_completed = 0
            em._last_checkpoint_t = em.trace.start_s
            em._propagate_tracer()
            em._fault_sink = em._make_fault_sink(result)

        with tracer.timer("sweep.batch"):
            rejected = self._prepare()
            #: Run indices rejected at prepare time (degenerate inputs the
            #: kernel never touches) and executed single-run instead.
            self.rejected: List[int] = list(rejected)
            for r in rejected:
                VectorizedEngine(self.ems[r]).run(self.results[r])
            if tracer.enabled:
                tracer.count("sweep.batch_runs", int(self.active.sum()))
                if rejected:
                    tracer.count("sweep.fallback_runs", len(rejected))

            pos = 0
            n_steps = len(self.times)
            while pos < n_steps and self.active.any():
                # Every run ticks in lockstep: they start untouched (an
                # eligibility requirement), so the first step ticks
                # everywhere and the shared last_update_t tracks them all.
                stop = next_tick_index(self.times, pos, self.last_update_t, self.interval)
                if stop == pos:
                    self._virtual_step(pos, tick=True)
                    pos += 1
                    continue
                while pos < stop and self.active.any():
                    k = min(stop - pos, MAX_CHUNK_STEPS)
                    if k <= SCALAR_FALLBACK_STEPS:
                        for j in range(pos, pos + k):
                            self._virtual_step(j, tick=False)
                        pos += k
                    else:
                        self._chunk(pos, k)
                        pos += k

            for r in np.flatnonzero(self.active):
                self._sync_out(int(r), self.last_update_t, self.tick_count)

        self._finish()
        return self.results

    def _make_result(self, em) -> EmulationResult:
        result = EmulationResult(dt_s=em.dt_s)
        n = em.controller.n
        result.battery_depletion_s = [None] * n
        result.downtime_s = [0.0] * n
        return result

    def _finish(self) -> None:
        """Apply SDBEmulator.run()'s tail bookkeeping to every result."""
        dt = self.dt
        for r, (em, result) in enumerate(zip(self.ems, self.results)):
            result.incidents.extend(em.runtime.all_incidents())
            result.incidents.sort(key=lambda incident: incident.t)
            # Committed steps are consecutive from index 0 and share one
            # time grid, so the count pins the end time even when the
            # batched prefix kept no series (batch_steps counts it).
            total = int(self.batch_steps[r]) + len(result.times_s) if not self.keep_series else len(result.times_s)
            if total:
                result.end_s = min(float(self.times[total - 1]) + dt, em.trace.end_s)
            else:
                result.end_s = 0.0

    # ------------------------------------------------------------------ #
    # Prepare: shared grids, stacked constants, state arrays
    # ------------------------------------------------------------------ #

    def _prepare(self) -> List[int]:
        """Build shared arrays; return indices of dynamically rejected runs."""
        em0 = self.ems[0]
        dt = self.dt
        self.times = step_times(em0.trace.start_s, em0.trace.end_s, dt)
        n_steps = len(self.times)
        R, M = self.R, self.M

        self.loads = np.empty((R, n_steps))
        for r, em in enumerate(self.ems):
            self.loads[r] = em.trace.powers_at(self.times)

        cells = [cell for em in self.ems for cell in em.controller.cells]
        gauges = [gauge for em in self.ems for gauge in em.controller.gauges]
        # Row r*M + j of these cell-level arrays is cell j of run r.
        self.offsets_c = np.array([g.sense_offset_a for g in gauges])
        # The scalar step path computes its RC decay with math.exp, the
        # chunk kernel with np.exp (PackParams). They are not guaranteed
        # bitwise equal, so virtual steps carry their own constants.
        self.sdecay = np.array([math.exp(-dt / (c.params.r_ct * c.params.c_plate)) for c in cells])
        self.som = 1.0 - self.sdecay

        # Scalar-path curve lookups go through SocCurve.__call__ (np.interp
        # on the original breakpoints), not the uniform tables; group rows
        # by curve content so one interp serves every identical chemistry.
        self.ocp_groups = self._curve_groups([c.params.ocp for c in cells])
        self.dcir_groups = self._curve_groups([c.params.dcir for c in cells])

        soc_c = np.array([c.soc for c in cells])
        v_rc_c = np.array([c.v_rc for c in cells])
        fade_c = np.array([c.aging.state.fade for c in cells])
        thr_c = np.array([c.aging.state.throughput_c for c in cells])
        est_c = np.array([g.estimated_soc for g in gauges])
        last_v_c = np.array([g._last_voltage for g in gauges])
        g_disch_c = np.array([g.total_discharged_c for g in gauges])
        g_heat_c = np.array([g.total_heat_j for g in gauges])

        # Unique-row (urow) collapse: within one run, cells that are
        # bit-identical in every kernel input — physical constants, curve
        # content, gauge calibration, and full dynamic state — evolve
        # bit-identically forever (both batchable policies compute weights
        # from cell state alone, so identical cells always draw identical
        # ratios, hence identical powers). The chunk kernel therefore runs
        # on one representative row per group; a homogeneous pack halves
        # its row count. Never collapses across runs (loads differ).
        self.inv = inv = np.empty(R * M, dtype=np.intp)
        slots: List[int] = []
        urow_run: List[int] = []
        for r, em in enumerate(self.ems):
            seen: Dict[tuple, int] = {}
            for j in range(M):
                i = r * M + j
                params = cells[i].params
                key = (
                    params.ocp.breakpoints.tobytes(),
                    params.ocp.values.tobytes(),
                    params.dcir.breakpoints.tobytes(),
                    params.dcir.values.tobytes(),
                    float(params.capacity_c),
                    float(params.r_ct),
                    float(params.max_discharge_current),
                    float(params.aging.resistance_growth),
                    float(params.aging.fade_base),
                    float(params.aging.fade_rate_coeff),
                    float(gauges[i].sense_gain_error),
                    float(self.sdecay[i]),
                    float(self.offsets_c[i]),
                    float(soc_c[i]),
                    float(v_rc_c[i]),
                    float(fade_c[i]),
                    float(thr_c[i]),
                    float(est_c[i]),
                    float(last_v_c[i]),
                    float(g_disch_c[i]),
                    float(g_heat_c[i]),
                    float(em.controller.discharge_ratios[j]),
                )
                u = seen.get(key)
                if u is None:
                    u = len(slots)
                    seen[key] = u
                    slots.append(i)
                    urow_run.append(r)
                inv[i] = u
        self.slots = np.array(slots, dtype=np.intp)

        # Urow-level constants and state: what the chunk kernel advances.
        self.pp = pp = PackParams([cells[s] for s in self.slots], [gauges[s] for s in self.slots], dt, runs=urow_run)
        # Collapsed cells share every constant, so gathering the urow
        # constants through inv gives the virtual steps their cell-level
        # values.
        self.nominal_c = pp.nominal[inv]
        self.r_ct_c = pp.r_ct[inv]
        self.i_max_c = pp.i_max[inv]
        self.growth_c = pp.growth[inv]
        self.fade_base_c = pp.fade_base[inv]
        self.fade_coeff_c = pp.fade_coeff[inv]
        self.gain1_c = 1.0 + pp.gain[inv]
        self.offsets = self.offsets_c[self.slots]
        self.soc = soc_c[self.slots]
        self.v_rc = v_rc_c[self.slots]
        self.fade = fade_c[self.slots]
        self.thr = thr_c[self.slots]
        self.est = est_c[self.slots]
        self.last_v = last_v_c[self.slots]
        self.g_disch = g_disch_c[self.slots]
        self.g_heat = g_heat_c[self.slots]

        self.delivered = np.zeros(R)
        self.bheat = np.zeros(R)
        self.closs = np.zeros(R)
        self.batch_steps = np.zeros(R, dtype=np.int64)

        self.v_busR = np.array([em.controller.discharge_circuit.spec.v_bus for em in self.ems])
        self.overheadR = np.array([em.controller.discharge_circuit.spec.controller_overhead_w for em in self.ems])
        self.drivefR = np.array([em.controller.discharge_circuit.spec.drive_loss_fraction for em in self.ems])
        self.switchrR = np.array([em.controller.discharge_circuit.spec.switch_resistance for em in self.ems])
        self.dresR = np.array([float(em.controller.discharge_circuit.spec.duty_resolution) for em in self.ems])
        self.doffR = np.array([em.controller.discharge_circuit.spec.duty_offset for em in self.ems])
        self.kind_prop = np.array(
            [isinstance(em.runtime.discharge_policy, ProportionalToCapacityDischargePolicy) for em in self.ems]
        )

        self.installed = np.array([em.controller.discharge_ratios for em in self.ems], dtype=float)
        self.effective = np.zeros((R, M))
        self.realized = np.zeros((R, M))
        self.base_updates = np.array([em.runtime.ratio_updates for em in self.ems], dtype=np.int64)
        self.last_update_t: Optional[float] = None
        self.tick_count = 0

        #: Each row's current at the end of the last chunk (None before it).
        self.warm: Optional[np.ndarray] = None
        self.active = np.ones(R, dtype=bool)

        rejected: List[int] = []
        socM = soc_c.reshape(R, M)
        capM = (self.nominal_c * np.maximum(0.0, 1.0 - fade_c)).reshape(R, M)
        for r in range(R):
            if (self.loads[r] <= 0.0).any():
                rejected.append(r)
            elif (socM[r] <= SOC_EMPTY).any() or (capM[r] <= 0.0).any():
                rejected.append(r)
        for r in rejected:
            self.active[r] = False
        return rejected

    def _curve_groups(self, curves) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Group stack rows by identical curve data for shared np.interp."""
        grouped: Dict[bytes, Tuple[List[int], np.ndarray, np.ndarray]] = {}
        for row, curve in enumerate(curves):
            bp = np.asarray(curve.breakpoints, dtype=float)
            vals = np.asarray(curve.values, dtype=float)
            key = bp.tobytes() + b"|" + vals.tobytes()
            if key not in grouped:
                grouped[key] = ([], bp, vals)
            grouped[key][0].append(row)
        return [(np.array(rows, dtype=np.intp), bp, vals) for rows, bp, vals in grouped.values()]

    def _interp(self, groups, soc: np.ndarray) -> np.ndarray:
        """SocCurve.__call__ for every stack row: clamp + np.interp."""
        s = np.minimum(1.0, np.maximum(0.0, soc))
        out = np.empty_like(s)
        for rows, bp, vals in groups:
            out[rows] = np.interp(s[rows], bp, vals)
        return out

    # ------------------------------------------------------------------ #
    # Virtual scalar steps (tick boundaries and short spans)
    # ------------------------------------------------------------------ #

    def _virtual_step(self, pos: int, tick: bool) -> None:
        """One reference-path step for every active run, as (R, M) math.

        Replicates ``SDBEmulator._step`` exactly for the eligible
        configuration (no supply, positive load, no faults/monitor):
        optional runtime tick (policy -> normalize -> validate ->
        install), effective/realized ratios, split_load, discharge caps,
        the per-cell power quadratic, ``step_current``'s RC/aging/gauge
        chain, and the energy accumulators. Any run hitting a branch
        this replication does not cover is demoted *before* commit.
        """
        if not self.active.any():
            return
        R, M = self.R, self.M
        dt = self.dt
        t = float(self.times[pos])
        load = self.loads[:, pos]
        reasons: Dict[int, str] = {}

        def mark(mask: np.ndarray, reason: str) -> None:
            """Demote the active runs in ``mask``, each for its first reason."""
            for r in np.flatnonzero(mask & self.active):
                reasons.setdefault(int(r), reason)

        # Virtual steps run at cell granularity (they are cheap and the
        # ratio math is per-cell anyway): gather the urow state out, and
        # scatter the committed state back below. Collapsed duplicates
        # produce identical values, so the duplicate scatters are benign.
        inv = self.inv
        soc = self.soc[inv]
        v_rc = self.v_rc[inv]
        fade = self.fade[inv]
        est = self.est[inv]
        socM = soc.reshape(R, M)
        fadeM = fade.reshape(R, M)
        nominalM = self.nominal_c.reshape(R, M)

        # A cell at/below the empty threshold changes the usable mask and
        # the effective-ratio computation — single-run territory.
        mark((socM <= SOC_EMPTY).any(axis=1), "cell-empty")

        with np.errstate(all="ignore"):
            if tick:
                prev_last, prev_count = self.last_update_t, self.tick_count
                # Policy weights (normalize(): max(0, w), Python sum, w/total).
                w = np.ones((R, M))
                if self.kind_prop.any():
                    cap_now = nominalM * np.maximum(0.0, 1.0 - fadeM)
                    w_prop = np.maximum(0.0, socM - SOC_EMPTY) * cap_now
                    w = np.where(self.kind_prop[:, None], w_prop, w)
                total = w.sum(axis=1)
                mark(total <= 0.0, "policy-no-weights")
                ratios_cand = w / np.where(total > 0.0, total, 1.0)[:, None]
                # validate_ratios: |sum - 1| must be within RATIO_SUM_TOL.
                sums = ratios_cand.sum(axis=1)
                mark(np.abs(sums - 1.0) > RATIO_SUM_TOL, "ratio-sum")
                # _effective_discharge_ratios over the fresh install.
                mark(sums <= 0.0, "effective-no-total")
                eff = ratios_cand / np.where(sums != 0.0, sums, 1.0)[:, None]
                # realized_ratios: dwell quantization + comparator offset.
                q = np.rint(eff * self.dresR[:, None]) / self.dresR[:, None]
                q = np.where(q == 0.0, 1.0 / self.dresR[:, None], q)
                raw = np.where(eff == 0.0, 0.0, q + self.doffR[:, None])
                rtot = raw.sum(axis=1)
                mark(rtot == 0.0, "zero-realized")
                real = raw / np.where(rtot != 0.0, rtot, 1.0)[:, None]
            else:
                prev_last, prev_count = self.last_update_t, self.tick_count
                eff, real = self.effective, self.realized

            # split_load: circuit loss, gross demand, per-battery powers.
            bus_cur = load / self.v_busR
            loss = self.overheadR + self.drivefR * load + self.switchrR * bus_cur * bus_cur
            gross = load + loss
            powers = (gross[:, None] * real).reshape(R * M)

            # Discharge caps: mdp() * POWER_SAFETY_MARGIN * derating(=1).
            ocp = self._interp(self.ocp_groups, soc)
            dcir = self._interp(self.dcir_groups, soc)
            rr = dcir * (1.0 + self.growth_c * fade)
            veff = ocp - v_rc
            mark((veff <= 0.0).reshape(R, M).any(axis=1), "veff-nonpositive")
            p_theory = veff * veff / (4.0 * rr)
            p_rate = (veff - self.i_max_c * rr) * self.i_max_c
            mdp = np.where(p_rate <= 0.0, p_theory, np.minimum(p_theory, p_rate))
            caps = mdp * POWER_SAFETY_MARGIN
            # Any violation engages redistribute_over_caps, which mutates
            # the power vector even for vanishing excess — demote.
            mark((powers > caps).reshape(R, M).any(axis=1), "power-cap")

            # solve_discharge_current + step_current, elementwise.
            disc = veff * veff - 4.0 * rr * powers
            mark((disc < 0.0).reshape(R, M).any(axis=1), "power-limit")
            cur = (veff - np.sqrt(np.maximum(disc, 0.0))) / (2.0 * rr)
            v_term = ocp - cur * rr - v_rc
            heat = cur * cur * rr + v_rc * v_rc / self.r_ct_c
            v_rc_new = v_rc * self.sdecay + cur * self.r_ct_c * self.som
            moved = cur * dt
            cap_pre = self.nominal_c * np.maximum(0.0, 1.0 - fade)
            mark((cap_pre <= 0.0).reshape(R, M).any(axis=1), "zero-capacity")
            new_soc = soc - moved / np.where(cap_pre > 0.0, cap_pre, 1.0)
            # A crossing (or clamp engagement) ends the lockstep for that
            # run; the single-run path raises BatteryEmptyError next step.
            mark((new_soc <= SOC_EMPTY).reshape(R, M).any(axis=1), "soc-empty")
            actual_moved = (soc - new_soc) * cap_pre
            c_rate = np.abs(cur) * 3600.0 / self.nominal_c
            per_cycle = self.fade_base_c + self.fade_coeff_c * c_rate * c_rate
            dfade = DISCHARGE_STRESS_WEIGHT * per_cycle * (actual_moved / self.nominal_c)
            fade_new = np.minimum(1.0, fade + dfade)
            measured = cur * self.gain1_c + self.offsets_c
            gmoved = measured * dt
            cap_post = self.nominal_c * np.maximum(0.0, 1.0 - fade_new)
            mark((cap_post <= 0.0).reshape(R, M).any(axis=1), "zero-capacity")
            est_new = np.maximum(0.0, np.minimum(1.0, est - gmoved / np.where(cap_post > 0.0, cap_post, 1.0)))
            bhw = heat.reshape(R, M).sum(axis=1)
            total_loss = loss + bhw

            finite = np.isfinite(new_soc) & np.isfinite(v_rc_new) & np.isfinite(heat) & np.isfinite(est_new)
            mark(~finite.reshape(R, M).all(axis=1), "non-finite")

        for r in sorted(reasons):
            self._demote(r, pos, reasons[r], prev_last, prev_count)

        commit = self.active.copy()
        if not commit.any():
            return
        rows = np.repeat(commit, M)
        urows = inv[rows]
        self.soc[urows] = new_soc[rows]
        self.v_rc[urows] = v_rc_new[rows]
        self.fade[urows] = fade_new[rows]
        self.thr[urows] += actual_moved[rows]
        self.est[urows] = est_new[rows]
        self.last_v[urows] = v_term[rows]
        self.g_disch[urows] += moved[rows]
        self.g_heat[urows] += heat[rows] * dt
        self.delivered[commit] += load[commit] * dt
        self.bheat[commit] += bhw[commit] * dt
        self.closs[commit] += loss[commit] * dt
        self.batch_steps[commit] += 1
        if tick:
            self.installed[commit] = ratios_cand[commit]
            self.effective[commit] = eff[commit]
            self.realized[commit] = real[commit]
            self.last_update_t = t
            self.tick_count += 1
        if self.keep_series:
            new_socM = new_soc.reshape(R, M)
            for r in np.flatnonzero(commit):
                result = self.results[int(r)]
                result.times_s.append(t)
                result.load_w.append(float(load[r]))
                result.loss_w.append(float(total_loss[r]))
                result.soc_history.append([float(s) for s in new_socM[r]])
        if self.tracer.enabled:
            self.tracer.count("sweep.virtual_steps", int(commit.sum()))

    # ------------------------------------------------------------------ #
    # Stacked chunk kernel (between ticks)
    # ------------------------------------------------------------------ #

    def _chunk(self, pos: int, k: int) -> None:
        """One load chunk for every active run through the shared kernel.

        The kernel's rows are the unique rows of all ``R`` runs and it
        solves each run's fixed point on its own
        (:meth:`~repro.emulator.engine.PackParams.solve`), so every run's
        rows get the bits its single-run chunk would. Runs whose chunk
        would truncate (power-cap violation or empty-threshold crossing
        anywhere in the chunk) or turn non-finite are demoted before
        commit and re-execute the chunk alone.
        """
        R, M = self.R, self.M
        inv = self.inv
        dt = self.dt
        pp = self.pp
        reasons: Dict[int, str] = {}

        def mark(rows: np.ndarray, reason: str) -> None:
            """Demote the active runs owning a row with a ``rows`` entry set."""
            for r in np.flatnonzero(np.logical_or.reduceat(rows.any(axis=1), pp.run_first) & self.active):
                reasons.setdefault(int(r), reason)

        with np.errstate(all="ignore"):
            loads_k = self.loads[:, pos : pos + k]
            bus = loads_k / self.v_busR[:, None]
            losses = self.overheadR[:, None] + self.drivefR[:, None] * loads_k + self.switchrR[:, None] * bus * bus
            chunk = pp.solve(
                self.realized.reshape(R * M)[self.slots],
                loads_k + losses,
                self.soc,
                self.v_rc,
                self.fade,
                self.warm,
                ~self.active,
            )
            mark(chunk.P > chunk.caps, "power-cap")
            mark((chunk.soc_after <= SOC_EMPTY) & (self.soc > SOC_EMPTY)[:, None], "empty-crossing")
            mark(~(np.isfinite(chunk.current) & np.isfinite(chunk.soc_after) & np.isfinite(chunk.fade_after)), "non-finite")

        for r in sorted(reasons):
            self._demote(r, pos, reasons[r], self.last_update_t, self.tick_count)

        commit = self.active.copy()
        if not commit.any():
            return
        rows = commit[pp.row_run]
        with np.errstate(all="ignore"):
            heat, v_term_last, est_delta, discharged, heat_rows, throughput, v_rc_new = pp.commit_sums(
                chunk, k, chunk.moved, chunk.fade_after, self.offsets, rows
            )
            deliv_add = loads_k.sum(axis=1) * dt
            # The per-run heat total sums the *cell-ordered* flattened
            # (M*k,) row — pairwise blocking depends on that layout, so
            # gather the urows back to cell order before reducing.
            heat_cells = heat[inv]
            bheat_add = heat_cells.reshape(R, M * k).sum(axis=1) * dt
            closs_add = losses.sum(axis=1) * dt

        self.soc[rows] = chunk.soc_after[rows, -1]
        self.v_rc[rows] = v_rc_new[rows]
        self.fade[rows] = chunk.fade_after[rows, -1]
        self.thr[rows] += throughput[rows]
        self.est[rows] = np.maximum(0.0, np.minimum(1.0, self.est[rows] - est_delta[rows]))
        self.last_v[rows] = v_term_last[rows]
        self.g_disch[rows] += discharged[rows]
        self.g_heat[rows] += heat_rows[rows]
        self.delivered[commit] += deliv_add[commit]
        self.bheat[commit] += bheat_add[commit]
        self.closs[commit] += closs_add[commit]
        self.batch_steps[commit] += k
        # Rows of retired runs take values too; nothing reads them again.
        self.warm = chunk.current[:, -1].copy()
        if self.keep_series:
            socs3 = chunk.soc_after[inv].reshape(R, M, k)
            hsum = heat_cells.reshape(R, M, k).sum(axis=1)
            step_times_k = self.times[pos : pos + k].tolist()
            for r in np.flatnonzero(commit):
                result = self.results[int(r)]
                result.times_s.extend(step_times_k)
                result.load_w.extend(loads_k[r].tolist())
                result.loss_w.extend((losses[r] + hsum[r]).tolist())
                result.soc_history.extend(socs3[r].T.tolist())
        if self.tracer.enabled:
            n_committed = int(commit.sum())
            self.tracer.count("sweep.chunks", n_committed)
            self.tracer.count("sweep.vector_steps", k * n_committed)

    # ------------------------------------------------------------------ #
    # Demotion: hand a diverging run to its own single-run engine
    # ------------------------------------------------------------------ #

    def _sync_out(self, r: int, last_update_t: Optional[float], tick_count: int) -> None:
        """Write run ``r``'s array state back into its objects/result."""
        em = self.ems[r]
        result = self.results[r]
        base = r * self.M
        for j in range(self.M):
            row = int(self.inv[base + j])
            cell = em.controller.cells[j]
            cell.soc = float(self.soc[row])
            cell.v_rc = float(self.v_rc[row])
            state = cell.aging.state
            state.fade = float(self.fade[row])
            state.throughput_c = float(self.thr[row])
            gauge = em.controller.gauges[j]
            gauge.absorb_span(estimated_soc=float(self.est[row]), last_voltage=float(self.last_v[row]))
            gauge.total_discharged_c = float(self.g_disch[row])
            gauge.total_heat_j = float(self.g_heat[row])
        if tick_count > 0:
            ratios = [float(x) for x in self.installed[r]]
            em.controller.discharge_ratios = ratios
            em.runtime._last_good_discharge = list(ratios)
            em.runtime._last_update_t = last_update_t
            em.runtime.ratio_updates = int(self.base_updates[r]) + tick_count
        result.delivered_j = float(self.delivered[r])
        result.battery_heat_j = float(self.bheat[r])
        result.circuit_loss_j = float(self.closs[r])

    def _demote(self, r: int, pos: int, reason: str, last_update_t: Optional[float], tick_count: int) -> None:
        """Retire run ``r`` from the batch and finish it single-run.

        Called *before* the diverging step/chunk is committed, so the
        array state is the state at step index ``pos`` — exactly what a
        solo run would hold there. The private engine re-prepares, takes
        the batch's warm-start currents (the fixed point is seeded
        identically), and replays the divergence with the full scalar /
        truncation logic.
        """
        self.active[r] = False
        self.demoted.append(r)
        self._sync_out(r, last_update_t, tick_count)
        em = self.ems[r]
        if self.tracer.enabled:
            self.tracer.count("sweep.demotions")
            self.tracer.event("sweep.demote", float(self.times[pos]), run=r, reason=reason, step=pos)
        engine = VectorizedEngine(em)
        engine._prepare(times=self.times, loads=self.loads[r])
        if self.warm is not None:
            engine._warm_current = self.warm[self.inv[r * self.M : (r + 1) * self.M]].copy()
        engine._run_from(self.results[r], pos)
