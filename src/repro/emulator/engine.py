"""Vectorized emulation engine: the chunked NumPy fast path.

The reference loop in :mod:`repro.emulator.emulator` advances one timestep
per iteration, paying Python call overhead for every curve evaluation,
quadratic solve, and bookkeeping append. But between two policy ticks the
system is *pure physics*: the ratio vector is frozen, no fault transitions
fire, and (off the charger) every step is a deterministic function of the
previous state. This engine exploits that structure:

* **Scalar path** — steps where control logic can act (runtime ticks, plug
  windows, fault scalar-spans, and chunk-boundary steps where the power
  capability logic engages) run through the *same*
  :meth:`~repro.emulator.emulator.SDBEmulator._step` the reference engine
  uses, so every control decision is taken by the authoritative objects.
* **Chunk kernel** — the inter-tick spans advance as ``(n_batteries,
  n_steps)`` array operations (:class:`PackParams`, the one kernel the
  batched sweep engine also runs, with many runs' rows stacked).
  Per-battery OCP/DCIR curves come from the LRU-cached dense tables of
  :mod:`repro.chemistry.tables`; the coupled current/SoC/RC-branch/aging
  recursion is solved by fixed-point iteration (the system is causal and
  lower-triangular, so the iteration converges geometrically — typically
  in 3-4 passes at emulation step sizes).
* **Truncation** — a chunk is cut short the moment its assumptions break:
  a battery's share exceeding its safe power cap (the redistribution path
  must run), or a battery crossing its empty threshold (the effective
  ratios change on the next step). The boundary step then runs scalar.

Chunk state is synchronized *into* the cells, gauges, and aging models at
every chunk boundary, so policies, the health monitor, and the incident
machinery always observe exact object state. Configurations the kernel
cannot batch (scenario hooks, thermal models, hysteresis, self-discharge,
extra cell observers) disengage the fast path entirely and fall back to
the reference loop — see ``docs/performance.md``.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.cell.thevenin import SOC_EMPTY
from repro.chemistry.aging import DISCHARGE_STRESS_WEIGHT
from repro.chemistry.tables import PackCurveTable
from repro.errors import BatteryEmptyError, EmulationAborted, InvariantViolation, RatioError

#: Hard ceiling on steps advanced per vectorized chunk (bounds array memory
#: when the policy tick interval is huge relative to the step size).
MAX_CHUNK_STEPS = 4096

#: Fixed-point iteration hands off to the exact consistency pass once no
#: battery's current moved more than this many amps between passes. The
#: recursion contracts by ~2-3 orders of magnitude per pass and the exact
#: pass that follows is itself one more contraction, so a hand-off at
#: ``delta`` leaves a committed-current residual of roughly ``delta *
#: contraction^2`` — below 1e-8 A at this threshold, far inside every
#: equivalence tolerance.
CONVERGENCE_TOL_A = 3e-3

#: Load chunks at or below this many steps run on the scalar path: the
#: kernel's fixed per-chunk overhead (~a hundred small-array operations)
#: outweighs batching gains for tiny chunks, e.g. a coarse ``dt`` under a
#: short policy tick interval.
SCALAR_FALLBACK_STEPS = 8

#: Safety valve on fixed-point passes per chunk. The recursion is causal,
#: so ``k`` passes reproduce a ``k``-step chunk exactly; in practice the
#: tolerance above triggers after a handful of passes.
MAX_ITERATIONS = 64

#: RC-branch kernel terms below this relative weight are truncated.
KERNEL_CUTOFF = 1e-18


def step_times(start_s: float, end_s: float, dt: float) -> np.ndarray:
    """The reference loop's step grid: repeated ``t += dt`` from ``start_s``.

    Replicates :meth:`PowerTrace.steps`'s float accumulation and end guard
    exactly: a closed-form ``start + j*dt`` can differ in the last ulp,
    flipping segment lookups at boundaries.
    """
    ts = []
    t = start_s
    end = end_s - 1e-9
    while t < end:
        ts.append(t)
        t += dt
    return np.array(ts, dtype=float)


def next_tick_index(times: np.ndarray, pos: int, last: Optional[float], interval: float) -> int:
    """First index at/after ``pos`` where a runtime tick fires.

    Replicates the reference predicate ``t - last >= interval`` (a runtime
    that never ticked, ``last is None``, ticks at once) against the exact
    step times, using a searchsorted jump plus a local float fix-up so the
    fire step matches the scalar loop bit for bit.
    """
    if last is None:
        return pos
    j = max(int(np.searchsorted(times, last + interval, side="left")), pos)
    while j > pos and times[j - 1] - last >= interval:
        j -= 1
    while j < len(times) and times[j] - last < interval:
        j += 1
    return j


class Chunk(NamedTuple):
    """The solved ``(rows, k)`` fields of one load chunk (:meth:`PackParams.solve`).

    ``r``, ``veff`` and ``v_rc_before`` come from the first exact pass;
    the SoC, fade and charge fields from the final re-integration.
    """

    P: np.ndarray
    caps: np.ndarray
    current: np.ndarray
    r: np.ndarray
    veff: np.ndarray
    v_rc_before: np.ndarray
    soc_before: np.ndarray
    soc_after: np.ndarray
    fade_after: np.ndarray
    cap_before: np.ndarray
    moved: np.ndarray
    dfade: np.ndarray


class PackParams:
    """Per-row constants, curve tables and the chunk kernel of a row stack.

    A row is one cell trajectory the chunk kernel advances. The single-run
    engine builds this over one pack's cells, all rows of one run; the
    batched sweep engine (:mod:`repro.emulator.batch`) builds it over the
    unique rows of a whole run stack, ``runs[i]`` naming row ``i``'s run
    (rows grouped by run, runs numbered from 0). Every operation is
    row-wise except the per-run convergence test, so a run's rows get the
    same bits whether they are solved alone or stacked with other runs.
    """

    __slots__ = (
        "n",
        "dt",
        "res",
        "inv_res",
        "row_off",
        "ocp_flat_values",
        "ocp_flat_slopes",
        "dcir_flat_values",
        "dcir_flat_slopes",
        "nominal",
        "r_ct",
        "i_max",
        "growth",
        "fade_base",
        "fade_coeff",
        "gain",
        "decay",
        "inject",
        "kernels",
        "decay_groups",
        "row_run",
        "run_first",
    )

    def __init__(self, cells, gauges, dt: float, runs=None) -> None:
        self.n = len(cells)
        self.dt = dt
        ocp_pack = PackCurveTable.for_curves([c.params.ocp for c in cells])
        dcir_pack = PackCurveTable.for_curves([c.params.dcir for c in cells])
        # Flattened copies of both pack tables sharing one index space: the
        # chunk kernel evaluates OCP and DCIR at the same SoC trajectory, so
        # computing the grid index once and gathering four flat arrays beats
        # two independent 2-D fancy-index lookups. Only the first
        # ``resolution`` value entries are reachable (the index is capped),
        # so values and slopes can share a row stride.
        res = ocp_pack.resolution
        self.res = res
        self.inv_res = 1.0 / res
        self.row_off = (np.arange(self.n, dtype=np.intp) * res)[:, None]
        self.ocp_flat_values = np.ascontiguousarray(ocp_pack.values[:, :res]).ravel()
        self.ocp_flat_slopes = np.ascontiguousarray(ocp_pack.slopes).ravel()
        self.dcir_flat_values = np.ascontiguousarray(dcir_pack.values[:, :res]).ravel()
        self.dcir_flat_slopes = np.ascontiguousarray(dcir_pack.slopes).ravel()
        self.nominal = np.array([c.params.capacity_c for c in cells])
        self.r_ct = np.array([c.params.r_ct for c in cells])
        self.i_max = np.array([c.params.max_discharge_current for c in cells])
        self.growth = np.array([c.params.aging.resistance_growth for c in cells])
        self.fade_base = np.array([c.params.aging.fade_base for c in cells])
        self.fade_coeff = np.array([c.params.aging.fade_rate_coeff for c in cells])
        self.gain = np.array([g.sense_gain_error for g in gauges])
        self.decay = np.exp(-dt / (self.r_ct * np.array([c.params.c_plate for c in cells])))
        self.inject = self.r_ct * (1.0 - self.decay)
        # Precomputed RC kernels (stored reversed, see rc_conv) and decay
        # powers, truncated where the decay weight vanishes and sliced per
        # chunk. Rows with equal powers share one vector, so the
        # homogeneous decay broadcasts once per group.
        self.kernels = []
        groups: Dict[bytes, Tuple[np.ndarray, List[int]]] = {}
        for i in range(self.n):
            a = float(self.decay[i])
            if 0.0 < a < 1.0:
                cut = min(MAX_CHUNK_STEPS, max(1, int(math.log(KERNEL_CUTOFF) / math.log(a)) + 1))
            else:
                cut = MAX_CHUNK_STEPS if a >= 1.0 else 1
            pows = a ** np.arange(cut + 1)
            groups.setdefault(pows.tobytes(), (pows, []))[1].append(i)
            self.kernels.append(np.ascontiguousarray((self.inject[i] * (a ** np.arange(cut)))[::-1]))
        self.decay_groups = [(np.array(rows, dtype=np.intp), pows) for pows, rows in groups.values()]
        self.row_run = np.zeros(self.n, dtype=np.intp) if runs is None else np.asarray(runs, dtype=np.intp)
        # Each run's first row: per-run reductions are one ``reduceat``.
        self.run_first = np.flatnonzero(np.diff(self.row_run, prepend=-1))

    def lookup(self, soc: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate OCP and DCIR at ``soc`` with one shared grid index.

        Identical arithmetic to :meth:`PackCurveTable.lookup`, but the
        clip/index/fraction work is done once for both curves and the
        gathers run on flat arrays — the chunk kernel's hottest lookup.
        """
        s = np.clip(soc, 0.0, 1.0)
        idx = np.minimum((s * self.res).astype(np.intp), self.res - 1)
        frac = s - idx * self.inv_res
        flat = idx + self.row_off
        ocp = self.ocp_flat_values[flat] + self.ocp_flat_slopes[flat] * frac
        r = self.dcir_flat_values[flat] + self.dcir_flat_slopes[flat] * frac
        return ocp, r

    def homog(self, v_rc0: np.ndarray, k: int) -> np.ndarray:
        """Homogeneous RC decay ``v_rc0 * a**j`` for a ``k``-step chunk.

        Current-independent, so it is computed once per chunk and reused
        across every fixed-point pass. The product is elementwise, so one
        broadcast per decay group gives each row's own bits.
        """
        out = np.zeros((self.n, k))
        for rows, pows in self.decay_groups:
            width = min(k, len(pows))
            out[rows, :width] = pows[:width] * v_rc0[rows, None]
        return out

    def rc_conv(self, current: np.ndarray, homog: np.ndarray, k: int) -> np.ndarray:
        """Pre-step RC-branch voltages for the whole chunk.

        The recursion ``v' = a v + b I`` unrolls to the homogeneous decay
        of the initial state plus a causal convolution of the currents
        with the geometric kernel ``b a^j`` (trimmed to the chunk length).
        Each row's convolution is a full correlation with the reversed
        kernel, which is how :func:`numpy.convolve` computes it; the
        kernels are stored reversed, so trimming is a tail slice.
        """
        out = homog.copy()
        if k > 1:
            convs = np.empty((self.n, k - 1))
            for i, reversed_kernel in enumerate(self.kernels):
                convs[i] = np.correlate(current[i, : k - 1], reversed_kernel[-(k - 1) :], "full")[: k - 1]
            out[:, 1:] += convs
        return out

    def solve(self, ratios, gross, soc0, v_rc0, fade0, warm, frozen) -> Chunk:
        """Solve one load chunk for every row at once.

        Row ``i`` draws ``ratios[i]`` of its run's gross demand ``gross``
        (``(runs, k)``) at every step, starting from ``soc0``/``v_rc0``/
        ``fade0``. ``warm`` holds the previous chunk's final currents
        (None: cold start). Runs marked in ``frozen`` ride along unsolved;
        every other run's fixed point stops on its own convergence, so its
        rows' results do not depend on what else is stacked with it.
        """
        dt = self.dt
        n, k = self.n, gross.shape[1]
        P = ratios[:, None] * gross[self.row_run]
        fourP = 4.0 * P
        # Load chunks have strictly positive demand every step, so a row's
        # activity is decided by its realized ratio alone.
        row_on = ratios > 0.0
        all_on = bool(row_on.all())
        n_frozen = np.count_nonzero(frozen)
        live = slice(None) if n_frozen == 0 else ~frozen[self.row_run]

        # Fixed-point iteration over the chunk: each pass evaluates the
        # per-step curves at the previous pass's SoC trajectory, solves the
        # power quadratic for every (row, step) at once, then re-integrates
        # SoC from those currents. Causality makes pass m exact for the
        # first m steps; in practice the state moves so little per step
        # that a few passes converge below the tolerance. Fade is held at
        # its chunk-entry value inside the loop (its in-chunk drift
        # perturbs the current by ~1e-7 relative at most); the exact aging
        # chain is re-integrated after convergence and a final consistency
        # pass contracts the residual well below every equivalence
        # tolerance.
        growth_r = (1.0 + self.growth * fade0)[:, None]
        cap0 = self.nominal * np.maximum(0.0, 1.0 - fade0)
        dsoc_scale = np.where(cap0 > 0.0, dt / np.where(cap0 > 0.0, cap0, 1.0), 0.0)[:, None]
        homog = self.homog(v_rc0, k)
        soc_before = np.empty((n, k))
        soc_before[:] = soc0[:, None]
        if warm is not None:
            # Warm start from the previous chunk's final per-row currents:
            # consecutive chunks usually sit inside one workload segment,
            # so the first pass starts within ~1e-3 A of the answer instead
            # of the cold start's full current magnitude.
            current = np.empty((n, k))
            current[:] = warm[:, None]
            if not all_on:
                current[~row_on] = 0.0
            soc_before[:, 1:] = soc0[:, None] - np.cumsum(current[:, :-1], axis=1) * dsoc_scale
        else:
            current = np.zeros((n, k))
        for _ in range(min(MAX_ITERATIONS, max(k, 2))):
            ocp, r = self.lookup(soc_before)
            r *= growth_r
            veff = ocp - self.rc_conv(current, homog, k)
            disc = veff * veff - fourP * r
            np.maximum(disc, 0.0, out=disc)
            new_current = (veff - np.sqrt(disc)) / (2.0 * r)
            if not all_on:
                new_current[~row_on] = 0.0
            # Convergence is judged per run over its rows; max carries no
            # rounding. A converged run's currents stay put, and recomputing
            # its SoC trajectory from them reproduces the same bits.
            delta = np.maximum.reduceat(np.abs(new_current - current).max(axis=1), self.run_first)
            if n_frozen:
                moving = ~frozen[self.row_run]
                current[moving] = new_current[moving]
            else:
                current = new_current
            soc_before[:, 1:] = soc0[:, None] - np.cumsum(current[:, :-1], axis=1) * dsoc_scale
            frozen = frozen | (delta < CONVERGENCE_TOL_A)
            n_frozen = np.count_nonzero(frozen)
            if n_frozen == len(frozen):
                break

        # Exact consistency pass: re-integrate the full aging/SoC chain
        # (the reference path's exact update order) from the converged
        # currents, take one more exact quadratic solve against that state
        # — contracting the loop residual by the recursion's per-pass
        # factor — then re-integrate the chain once more from the final
        # currents. The curve/RC fields (r, veff, v_rc_before) keep their
        # first-exact-pass values: they lag the final currents by one
        # contraction (~1e-8 relative), far inside every tolerance.
        # Branches test only the live rows; both forms agree elementwise on
        # every row the branch matters to.
        nominal = self.nominal[:, None]
        for final in (False, True):
            moved = current * dt
            c_rate = current * (3600.0 / nominal)
            # `moved` is non-negative and the stress expression vanishes
            # with it, so no explicit moved-positive guard is needed.
            dfade = (
                DISCHARGE_STRESS_WEIGHT
                * (self.fade_base[:, None] + self.fade_coeff[:, None] * c_rate * c_rate)
                * (moved / nominal)
            )
            fade_after = np.minimum(1.0, fade0[:, None] + np.cumsum(dfade, axis=1))
            fade_before = np.concatenate([fade0[:, None], fade_after[:, :-1]], axis=1)
            cap_before = nominal * np.maximum(0.0, 1.0 - fade_before)
            if float(cap_before[live, -1].min(initial=np.inf)) > 0.0:
                # Capacity stays positive (the overwhelmingly common case;
                # fade_before is non-decreasing so checking the last column
                # suffices) — skip the degenerate-capacity masking.
                dsoc = moved / cap_before
            else:
                dsoc = np.where(cap_before > 0.0, moved / np.where(cap_before > 0.0, cap_before, 1.0), 0.0)
            soc_after = soc0[:, None] - np.cumsum(dsoc, axis=1)
            soc_before = np.concatenate([soc0[:, None], soc_after[:, :-1]], axis=1)
            if not final:
                ocp, r = self.lookup(soc_before)
                r = r * (1.0 + self.growth[:, None] * fade_before)
                v_rc_before = self.rc_conv(current, homog, k)
                veff = ocp - v_rc_before
                disc = veff * veff - fourP * r
                np.maximum(disc, 0.0, out=disc)
                current = (veff - np.sqrt(disc)) / (2.0 * r)
                if not all_on:
                    current[~row_on] = 0.0

        # Safe discharge power per (row, step), as the controller's
        # discharge_caps() computes it. veff falls monotonically along a
        # discharge chunk (SoC drops, the RC branch charges), so a positive
        # last column means positive everywhere and the degenerate-voltage
        # masking can be skipped.
        if float(veff[live, -1].min(initial=np.inf)) > 0.0:
            p_theory = veff * veff / (4.0 * r)
            voltage_ok = True
        else:
            p_theory = np.where(veff > 0.0, veff * veff / (4.0 * r), 0.0)
            voltage_ok = False
        i_max = self.i_max[:, None]
        p_rate = (veff - i_max * r) * i_max
        caps = 0.90 * np.where(p_rate <= 0.0, p_theory, np.minimum(p_theory, p_rate))
        if not voltage_ok:
            caps = np.where(veff > 0.0, caps, 0.0)
        return Chunk(P, caps, current, r, veff, v_rc_before, soc_before, soc_after, fade_after, cap_before, moved, dfade)

    def commit_sums(self, chunk: Chunk, T: int, moved, fade_after, offsets, rows=slice(None)) -> tuple:
        """Per-row totals over the first ``T`` steps of a solved chunk.

        ``moved`` and ``fade_after`` are the charge and fade to commit (the
        single run clamps its last step), ``offsets`` the gauges' sense
        offsets and ``rows`` the committing rows the capacity branch
        tests. Returns the ``(rows, T)`` heat field, then per row: terminal
        voltage at the last step, gauge SoC decrement, discharged charge,
        heat, throughput and the RC voltage after the chunk.
        """
        dt = self.dt
        cur = chunk.current[:, :T]
        r = chunk.r[:, :T]
        heat = cur * cur * r + (chunk.v_rc_before[:, :T] ** 2) / self.r_ct[:, None]
        cap_after = self.nominal[:, None] * np.maximum(0.0, 1.0 - fade_after[:, :T])
        measured = cur * (1.0 + self.gain[:, None]) + offsets[:, None]
        if float(cap_after[rows, -1].min(initial=np.inf)) > 0.0:
            est_delta = np.sum(measured * dt / cap_after, axis=1)
        else:
            est_delta = np.sum(
                np.where(cap_after > 0.0, measured * dt / np.where(cap_after > 0.0, cap_after, 1.0), 0.0),
                axis=1,
            )
        return (
            heat,
            chunk.veff[:, T - 1] - cur[:, T - 1] * r[:, T - 1],
            est_delta,
            cur.sum(axis=1) * dt,
            heat.sum(axis=1) * dt,
            moved[:, :T].sum(axis=1),
            self.decay * chunk.v_rc_before[:, T - 1] + self.inject * chunk.current[:, T - 1],
        )


class VectorizedEngine:
    """Chunked fast path for one :class:`~repro.emulator.emulator.SDBEmulator`.

    The engine is a single-run object: construct it around an emulator and
    call :meth:`run` once with the result to fill.
    """

    def __init__(self, emulator) -> None:
        self.em = emulator
        self.dt = emulator.dt_s
        self.n = emulator.controller.n

    # ------------------------------------------------------------------ #
    # Fast-path eligibility
    # ------------------------------------------------------------------ #

    def fast_path_blockers(self) -> List[str]:
        """Reasons this configuration cannot use the chunk kernel.

        Non-empty means the engine delegates the whole run to the
        reference loop: scenario hooks can mutate arbitrary state between
        steps, and thermal / hysteresis / self-discharge / extra-observer
        cells carry per-step dynamics the kernel does not model.
        """
        blockers = []
        if self.em.hooks:
            blockers.append("scenario hooks")
        if getattr(self.em, "load_shaper", None) is not None:
            blockers.append("load shaper")
        for cell in self.em.controller.cells:
            if cell.thermal is not None:
                blockers.append(f"{cell.name}: thermal model")
            if getattr(cell, "_hysteresis_delta", 0.0) > 0.0:
                blockers.append(f"{cell.name}: OCV hysteresis")
            if getattr(cell, "_self_discharge_per_month", 0.0) > 0.0 or getattr(
                cell, "_calendar_fade_per_year", 0.0
            ) > 0.0:
                blockers.append(f"{cell.name}: self-discharge")
            if len(cell._observers) != 1:
                blockers.append(f"{cell.name}: extra step observers")
        return blockers

    # ------------------------------------------------------------------ #
    # Run orchestration
    # ------------------------------------------------------------------ #

    def run(self, result) -> None:
        """Fill ``result`` by advancing the whole trace.

        Mirrors :meth:`SDBEmulator._run_reference` exactly; only the
        stepping strategy differs.
        """
        em = self.em
        tracer = em.tracer
        blockers = self.fast_path_blockers()
        if blockers:
            if tracer.enabled:
                tracer.count("engine.fallback_runs")
                tracer.event("engine.fallback", em.trace.start_s, blockers=blockers)
            em._run_reference(result)
            return

        self._prepare()
        # Resume support: the checkpoint's step cursor is the number of
        # completed steps, which is exactly the next index to execute; the
        # warm start must be restored too — it seeds the fixed-point
        # iteration, so a cold restart would converge to values a last-ulp
        # different from the uninterrupted run's.
        pos = em._resume_index
        if em._resume_warm_current is not None:
            self._warm_current = np.asarray(em._resume_warm_current, dtype=float)
        self._run_from(result, pos)

    def _run_from(self, result, pos: int) -> None:
        """Advance from step index ``pos`` to the end of the trace.

        Requires :meth:`_prepare` to have run and ``result`` to hold exactly
        ``pos`` committed steps. Split out of :meth:`run` so the batched
        sweep engine (:mod:`repro.emulator.batch`) can hand a demoted run
        off mid-trace: it syncs the run's array state back into the
        authoritative objects, seeds ``_warm_current``, and resumes here.
        """
        em = self.em
        tracer = em.tracer
        n_steps = len(self.times)
        while pos < n_steps:
            # Checkpoint only here, at the outer-loop top: every committed
            # step has been written back to the authoritative objects and
            # ``pos == len(result.times_s)`` holds. The cooperative abort
            # check shares the boundary for the same reason — the state is
            # consistent and the last checkpoint is a valid resume point.
            # (Scalar-path steps also check inside ``_step`` itself.)
            if em.abort_signal is not None and em.abort_signal.is_set():
                raise EmulationAborted(
                    f"cooperative abort requested at t={float(self.times[pos]):.1f} s"
                )
            em._maybe_checkpoint(result, float(self.times[pos]), warm_current=self._warm_current)
            stop = self._next_scalar_index(pos, n_steps)
            if stop == pos:
                tracer.count("engine.scalar_steps")
                if not em._step(result, float(self.times[pos]), float(self.loads[pos])):
                    return
                pos += 1
                continue
            # Vectorized span [pos, stop): advance chunk by chunk.
            while pos < stop:
                span = min(stop - pos, MAX_CHUNK_STEPS)
                zero_here = self.loads[pos] <= 0.0
                run_len = self._run_length(pos, pos + span, zero_here)
                if zero_here:
                    with tracer.timer("engine.step_kernel"):
                        self._rest_chunk(result, pos, run_len)
                    self._trace_chunk(pos, run_len, "rest")
                    pos += run_len
                    continue
                if run_len <= SCALAR_FALLBACK_STEPS:
                    tracer.count("engine.scalar_steps", run_len)
                    for j in range(pos, pos + run_len):
                        if not em._step(result, float(self.times[j]), float(self.loads[j])):
                            return
                    pos += run_len
                    continue
                with tracer.timer("engine.step_kernel"):
                    committed, need_scalar = self._load_chunk(result, pos, run_len)
                self._trace_chunk(pos, committed, "load", truncated=need_scalar)
                pos += committed
                if need_scalar:
                    tracer.count("engine.scalar_steps")
                    if not em._step(result, float(self.times[pos]), float(self.loads[pos])):
                        return
                    pos += 1
                    break  # re-evaluate scalar stops from the new state

    def _trace_chunk(self, pos: int, steps: int, kind: str, **attrs) -> None:
        """Count and span ``steps`` vectorized steps committed from ``pos``."""
        tracer = self.em.tracer
        if tracer.enabled and steps:
            tracer.count("engine.chunks")
            tracer.count("engine.vector_steps", steps)
            tracer.span("engine.chunk", float(self.times[pos]), steps * self.dt, kind=kind, steps=steps, **attrs)

    def _prepare(self, times: Optional[np.ndarray] = None, loads: Optional[np.ndarray] = None) -> None:
        """Precompute times, loads, supplies, masks, and pack tables.

        ``times``/``loads`` let a caller that already owns the step grid
        (the batched sweep runner, handing a demoted run over) skip the
        accumulation loop — they must match what this method would build.
        """
        em = self.em
        if times is None:
            times = step_times(em.trace.start_s, em.trace.end_s, self.dt)
            loads = em.trace.powers_at(times)
        self.times = times
        self.loads = loads
        supplies = em.plug.powers_at(self.times)
        scalar = supplies > 0.0
        if em.faults is not None:
            for lo, hi in em.faults.scalar_spans(self.dt):
                scalar |= (self.times >= lo - self.dt) & (self.times < hi)
        self.scalar_idx = np.flatnonzero(scalar)
        self.pack = PackParams(em.controller.cells, em.controller.gauges, self.dt)
        self._warm_current: Optional[np.ndarray] = None

    def _next_scalar_index(self, pos: int, n_steps: int) -> int:
        """First index at/after ``pos`` that must run on the scalar path."""
        j = int(np.searchsorted(self.scalar_idx, pos))
        stop = int(self.scalar_idx[j]) if j < len(self.scalar_idx) else n_steps
        rt = self.em.runtime
        return min(stop, next_tick_index(self.times, pos, rt._last_update_t, rt.update_interval_s))

    def _run_length(self, pos: int, limit: int, zero: bool) -> int:
        """Length of the maximal same-zero-ness load run in ``[pos, limit)``."""
        window = self.loads[pos:limit]
        flips = np.flatnonzero((window <= 0.0) != zero)
        return int(flips[0]) if len(flips) else limit - pos

    # ------------------------------------------------------------------ #
    # Rest chunks (no load, no supply): closed-form advance
    # ------------------------------------------------------------------ #

    def _rest_chunk(self, result, pos: int, k: int) -> None:
        """Advance ``k`` resting steps at once.

        The reference rest path steps only cells that are neither empty nor
        full (their RC branch decays and the gauge integrates its sense
        offset); SoC is frozen, so the whole span has a closed form and is
        exact — no curve tables involved.
        """
        em = self.em
        dt = self.dt
        for i, cell in enumerate(em.controller.cells):
            if cell.is_empty or cell.is_full:
                continue
            a = self.pack.decay[i]
            r_ct = self.pack.r_ct[i]
            v_rc0 = cell.v_rc
            if v_rc0 != 0.0 and r_ct > 0:
                a2 = a * a
                geom = k if a2 == 1.0 else (1.0 - a2**k) / (1.0 - a2)
                heat_sum = (v_rc0 * v_rc0) / r_ct * dt * geom
            else:
                heat_sum = 0.0
            v_rc_last_before = v_rc0 * a ** (k - 1)
            cell.v_rc = v_rc0 * a**k
            gauge = em.controller.gauges[i]
            cap = cell.capacity_c
            drift = gauge.sense_offset_a * dt * k / cap if cap > 0 else 0.0
            gauge.absorb_span(
                estimated_soc=gauge.estimated_soc - drift,
                last_voltage=cell.ocp() - v_rc_last_before,
                heat_j=heat_sum,
            )
        self._mark_initial_empties(result, pos)
        self._accrue_downtime(result, k)
        times = self.times[pos : pos + k]
        result.times_s.extend(times.tolist())
        result.load_w.extend([0.0] * k)
        result.loss_w.extend([0.0] * k)
        socs = [cell.soc for cell in em.controller.cells]
        result.soc_history.extend(list(socs) for _ in range(k))

    # ------------------------------------------------------------------ #
    # Load chunks: the fixed-point kernel
    # ------------------------------------------------------------------ #

    def _load_chunk(self, result, pos: int, k: int) -> Tuple[int, bool]:
        """Advance up to ``k`` discharging steps as one array computation.

        The pack's cells are the rows of one run in the shared chunk kernel
        (:meth:`PackParams.solve`). Returns ``(steps_committed,
        need_scalar_boundary)``; the caller runs one scalar step when the
        chunk hit a power-capability boundary (the redistribution /
        PowerLimit logic must engage there).
        """
        ctrl = self.em.controller
        try:
            ratios = ctrl._effective_discharge_ratios()
            realized = np.array(ctrl.discharge_circuit.realized_ratios(ratios))
        except (BatteryEmptyError, RatioError):
            return 0, True

        loads = self.loads[pos : pos + k]
        spec = ctrl.discharge_circuit.spec
        bus_current = loads / spec.v_bus
        losses = (
            spec.controller_overhead_w
            + spec.drive_loss_fraction * loads
            + spec.switch_resistance * bus_current * bus_current
        )
        soc0 = np.array([c.soc for c in ctrl.cells])
        fade0 = np.array([c.aging.state.fade for c in ctrl.cells])
        chunk = self.pack.solve(
            realized,
            (loads + losses)[None, :],
            soc0,
            np.array([c.v_rc for c in ctrl.cells]),
            fade0,
            self._warm_current,
            np.zeros(1, dtype=bool),
        )

        # Truncation: power-cap violations force the scalar redistribution
        # path *at* the violating step; an empty-threshold crossing ends
        # the chunk *after* the crossing step (the next step's effective
        # ratios change). The caps mirror the controller's protection
        # derating (repro.protection), which only changes at runtime
        # ticks — always scalar — so the factors are constant in a chunk.
        caps = chunk.caps
        derate = np.array(ctrl.protection_derating)
        if derate.min() < 1.0:
            caps = caps * derate[:, None]
        usable = np.array([ctrl._usable_for_discharge(i) for i in range(self.n)])
        if not usable.all():
            caps = np.where(usable[:, None], caps, 0.0)
        viol_hits = np.flatnonzero(np.any(chunk.P > caps, axis=0))
        t_viol = int(viol_hits[0]) if len(viol_hits) else None
        # soc_after is non-increasing, so its last column bounds the whole
        # chunk: no battery can cross the empty threshold unless its final
        # SoC is at or below it.
        soc_after = chunk.soc_after
        if soc_after[:, -1].min() <= SOC_EMPTY:
            crossing = np.any((soc_after <= SOC_EMPTY) & (soc0 > SOC_EMPTY)[:, None], axis=0)
            cross_hits = np.flatnonzero(crossing)
            t_cross = int(cross_hits[0]) if len(cross_hits) else None
        else:
            t_cross = None
        need_scalar = False
        T = k
        if t_viol is not None and (t_cross is None or t_viol <= t_cross):
            T = t_viol
            need_scalar = True
        elif t_cross is not None:
            T = t_cross + 1
        if T == 0:
            return 0, need_scalar

        # Last-step SoC clamp: a large final step may overshoot below zero;
        # the reference clamps SoC and records only the charge actually
        # moved, so fix the final column the same way.
        last = T - 1
        under = soc_after[:, last] < 0.0
        moved, dfade, fade_after = chunk.moved, chunk.dfade, chunk.fade_after
        actual_moved = moved
        if np.any(under):
            actual_moved = moved.copy()
            actual_last = chunk.soc_before[:, last] * chunk.cap_before[:, last]
            actual_moved[:, last] = np.where(under, actual_last, moved[:, last])
            ratio = np.where(moved[:, last] > 0.0, actual_moved[:, last] / np.where(moved[:, last] > 0.0, moved[:, last], 1.0), 0.0)
            dfade[:, last] = np.where(under, dfade[:, last] * ratio, dfade[:, last])
            soc_after[:, last] = np.where(under, 0.0, soc_after[:, last])
            fade_after = np.minimum(1.0, fade0[:, None] + np.cumsum(dfade, axis=1))

        self._commit(result, pos, T, loads, losses, chunk, soc_after, fade_after, actual_moved)
        self._warm_current = chunk.current[:, T - 1].copy()
        return T, need_scalar

    # ------------------------------------------------------------------ #
    # Chunk commit: arrays -> authoritative objects + result bookkeeping
    # ------------------------------------------------------------------ #

    def _commit(self, result, pos: int, T: int, loads, losses, chunk: Chunk, soc_after, fade_after, moved) -> None:
        """Write ``T`` committed steps back to cells, gauges, and result."""
        em = self.em
        dt = self.dt
        gauges = em.controller.gauges
        # Per-battery reductions, all at once; the per-cell loop below only
        # writes scalars back into the authoritative objects.
        offsets = np.array([g.sense_offset_a for g in gauges])
        heat, v_term_last, est_delta, discharged, heat_rows, throughput, v_rc_new = self.pack.commit_sums(
            chunk, T, moved, fade_after, offsets
        )

        if em.strict:
            socs = soc_after[:, :T]
            if not (np.isfinite(chunk.current[:, :T]).all() and np.isfinite(socs).all() and np.isfinite(heat).all()):
                raise InvariantViolation(
                    f"vectorized chunk produced non-finite state at t={float(self.times[pos]):.1f} s"
                )
            if socs.min() < -1e-9 or socs.max() > 1.0 + 1e-9:
                raise InvariantViolation(
                    f"vectorized chunk drove SoC outside [0, 1] at t={float(self.times[pos]):.1f} s"
                )

        self._mark_initial_empties(result, pos)
        for i, cell in enumerate(em.controller.cells):
            cell.soc = float(soc_after[i, T - 1])
            cell.v_rc = float(v_rc_new[i])
            state = cell.aging.state
            state.fade = float(fade_after[i, T - 1])
            state.throughput_c += float(throughput[i])
            gauge = gauges[i]
            gauge.absorb_span(
                estimated_soc=gauge.estimated_soc - float(est_delta[i]),
                last_voltage=float(v_term_last[i]),
                discharged_c=float(discharged[i]),
                heat_j=float(heat_rows[i]),
            )
            if result.battery_depletion_s[i] is None:
                hits = np.flatnonzero(soc_after[i, :T] <= SOC_EMPTY)
                if len(hits):
                    result.battery_depletion_s[i] = float(self.times[pos + int(hits[0])]) + dt

        self._accrue_downtime(result, T)
        with em.tracer.timer("engine.bookkeeping"):
            step_loss = losses[:T] + heat.sum(axis=0)
            result.times_s.extend(self.times[pos : pos + T].tolist())
            result.load_w.extend(loads[:T].tolist())
            result.loss_w.extend(step_loss.tolist())
            result.soc_history.extend(soc_after[:, :T].T.tolist())
            result.delivered_j += float(np.sum(loads[:T])) * dt
            result.battery_heat_j += float(np.sum(heat)) * dt
            result.circuit_loss_j += float(np.sum(losses[:T])) * dt

    def _mark_initial_empties(self, result, pos: int) -> None:
        """Mark cells already empty at the chunk's first step.

        The reference loop stamps ``battery_depletion_s`` at the first step
        that *observes* a cell empty; a cell emptied on the last scalar
        step before a chunk is observed at the chunk's first step.
        """
        t_first = float(self.times[pos])
        for i, cell in enumerate(self.em.controller.cells):
            if cell.is_empty and result.battery_depletion_s[i] is None:
                result.battery_depletion_s[i] = t_first + self.dt

    def _accrue_downtime(self, result, k: int) -> None:
        """Accrue ``k`` steps of downtime for unavailable batteries."""
        em = self.em
        monitor = em.runtime.health
        for i in range(self.n):
            if not em.controller.connected[i] or (monitor is not None and i in monitor.quarantined):
                result.downtime_s[i] += self.dt * k
