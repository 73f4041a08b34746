"""Batched parameter sweeps: cartesian run grids over the run-axis kernel.

The paper's results are all sweeps — policies x chemistries x workloads —
and the fleet engine already runs *populations*, but one device at a time.
This module plans a cartesian grid (scenario x policy x seed replicate) as
a :class:`SweepSpec`, derives one deterministic seed per run through
:class:`numpy.random.SeedSequence` exactly like :mod:`repro.fleet`, and
executes the grid through :class:`repro.emulator.batch.BatchedRunner`,
the run-axis kernel that advances every eligible run in one set of NumPy
array operations.

Planning is pure; execution is exact. Runs a batch cannot legally carry
(unbatchable policy, protection armed, fault schedules, the reference
engine) drop to the ordinary single-run path, and runs that *diverge*
mid-batch are demoted by the runner itself — either way every run's
result is bit-identical to executing it alone, which the test suite
asserts property-style. The rollup reports how each run was executed
(``batched`` / ``demoted`` / ``rejected`` / ``fallback``) plus aggregate
throughput (``runs_per_s``), the number the CI benchmark gate protects.

Exit-code contract (mirrors ``repro run`` / ``repro fleet``):

* unusable spec -> :class:`~repro.errors.SweepError` -> CLI exit 2;
* a *degraded* run — one that could not cover a single step — makes the
  sweep exit 1;
* otherwise 0 (battery depletion mid-trace is a result, not a failure).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.policies.baselines import (
    EitherOrDischargePolicy,
    EvenSplitDischargePolicy,
    ProportionalToCapacityDischargePolicy,
    SingleBatteryDischargePolicy,
)
from repro.core.policies.blended import BlendedDischargePolicy
from repro.emulator.batch import BatchedRunner, batch_blockers
from repro.emulator.emulator import EmulationResult, SDBEmulator
from repro.errors import SweepError
from repro.fleet.spec import FLEET_SCENARIOS, build_emulator, check_run_config, item_seed
from repro.obs.tracer import get_default_tracer, percentile

__all__ = [
    "SWEEP_POLICIES",
    "SweepRun",
    "SweepSpec",
    "SweepResult",
    "BatchedSweep",
    "build_run_emulator",
    "execute_runs",
    "run_sweep",
    "parse_axis",
]

#: Policy axis: CLI name -> zero-argument factory. ``even-split`` and
#: ``proportional`` are the batchable pair (pure functions of cell state,
#: which is what lets identical cells stay collapsed in the run-axis
#: kernel); the rest exercise the single-run fallback path. ``single``
#: drains battery 0, ``either-or`` drains in pack order — the fixed
#: choices that keep the axis a flat list of names.
SWEEP_POLICIES: Dict[str, Callable[[], object]] = {
    "even-split": EvenSplitDischargePolicy,
    "proportional": ProportionalToCapacityDischargePolicy,
    "single": lambda: SingleBatteryDischargePolicy(0),
    "either-or": lambda: EitherOrDischargePolicy([0, 1]),
    "blended": BlendedDischargePolicy,
}


@dataclass(frozen=True)
class SweepRun:
    """One grid point: identity, axes values, and its private seed."""

    run_id: str
    scenario: str
    policy: str
    #: Seed replicate number within the (scenario, policy) cell.
    rep: int
    #: Global 0-based index across the grid (stable roster order).
    index: int
    #: Per-run RNG seed derived from the sweep seed; feeds the workload
    #: generator, so replicate ``rep`` is the same day bit-for-bit no
    #: matter how the grid is batched or partitioned.
    seed: int

    def to_dict(self) -> dict:
        """JSON-safe mapping of this grid point, as emitted in summaries."""
        return {
            "run_id": self.run_id,
            "scenario": self.scenario,
            "policy": self.policy,
            "rep": self.rep,
            "index": self.index,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class SweepSpec:
    """A cartesian run grid plus the parameters every run shares.

    Attributes:
        scenarios: workload axis — keys into
            :data:`repro.fleet.spec.FLEET_SCENARIOS`.
        policies: discharge-policy axis — keys into
            :data:`SWEEP_POLICIES`.
        n_seeds: seed replicates per (scenario, policy) cell.
        seed: sweep seed; root of every per-run seed stream.
        duration_s: simulated span of every run.
        dt_s: emulation step, seconds.
        engine: emulation engine (batching requires ``vectorized``;
            ``reference`` runs the whole grid single-run and serves as
            the bit-exactness oracle in tests).
        protection: battery protection mode armed on every run; anything
            but ``off`` routes runs to the single-run path.
        socs: optional per-battery initial SoC shared by every run
            (default: full). Length must match the platform pack.
    """

    scenarios: Tuple[str, ...]
    policies: Tuple[str, ...]
    n_seeds: int = 1
    seed: int = 0
    duration_s: float = 24 * 3600.0
    dt_s: float = 60.0
    engine: str = "vectorized"
    protection: str = "off"
    socs: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise SweepError("sweep has no scenarios")
        if not self.policies:
            raise SweepError("sweep has no policies")
        for scenario in self.scenarios:
            if scenario not in FLEET_SCENARIOS:
                raise SweepError(
                    f"unknown sweep scenario {scenario!r}; valid: "
                    f"{', '.join(sorted(FLEET_SCENARIOS))}"
                )
        for policy in self.policies:
            if policy not in SWEEP_POLICIES:
                raise SweepError(
                    f"unknown sweep policy {policy!r}; valid: "
                    f"{', '.join(sorted(SWEEP_POLICIES))}"
                )
        if self.n_seeds <= 0:
            raise SweepError(f"n_seeds must be positive, got {self.n_seeds}")
        check_run_config(self, SweepError)
        if self.socs is not None:
            for s in self.socs:
                if not 0.0 <= float(s) <= 1.0:
                    raise SweepError(f"initial SoC {s!r} outside [0, 1]")

    @property
    def n_runs(self) -> int:
        return len(self.scenarios) * len(self.policies) * self.n_seeds

    def runs(self) -> List[SweepRun]:
        """The full grid roster, with per-run seeds from :func:`repro.fleet.spec.item_seed`."""
        roster: List[SweepRun] = []
        index = 0
        for scenario in self.scenarios:
            for policy in self.policies:
                for rep in range(self.n_seeds):
                    roster.append(
                        SweepRun(
                            run_id=f"{scenario}+{policy}+r{rep:03d}",
                            scenario=scenario,
                            policy=policy,
                            rep=rep,
                            index=index,
                            seed=item_seed(self.seed, index),
                        )
                    )
                    index += 1
        return roster

    def config_dict(self) -> dict:
        """The shared run parameters (JSON-safe, for summaries)."""
        return {
            "scenarios": list(self.scenarios),
            "policies": list(self.policies),
            "n_seeds": self.n_seeds,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "dt_s": self.dt_s,
            "engine": self.engine,
            "protection": self.protection,
            "socs": None if self.socs is None else list(self.socs),
        }


def parse_axis(text: str, axis: str) -> Tuple[str, ...]:
    """Parse a comma-separated CLI axis (``even-split,proportional``).

    Raises :class:`SweepError` on empty entries — the CLI maps that to
    exit 2. Validity of the names themselves is checked by
    :class:`SweepSpec`.
    """
    values: List[str] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise SweepError(f"empty {axis} entry in {text!r}")
        values.append(part)
    return tuple(values)


def build_run_emulator(spec: SweepSpec, run: SweepRun) -> SDBEmulator:
    """Construct the emulator for one grid point, ready to run.

    Built like a fleet device (:func:`repro.fleet.spec.build_emulator`),
    with the policy axis applied: each run gets its *own* policy instance
    (the run-axis kernel replicates policy arithmetic, it never shares
    objects across runs).
    """
    builder = FLEET_SCENARIOS[run.scenario]
    trace, platform = builder(run.seed, float(spec.duration_s))
    return build_emulator(
        trace,
        platform,
        dt_s=float(spec.dt_s),
        engine=spec.engine,
        protection=spec.protection,
        socs=spec.socs,
        policy=SWEEP_POLICIES[run.policy](),
    )


def execute_runs(
    emulators: Sequence[SDBEmulator], *, tracer=None, keep_series: bool = False
) -> Tuple[List[EmulationResult], List[str]]:
    """Run a list of emulators, batching every run the kernel can carry.

    The partition is mechanical: runs with no :func:`batch_blockers` are
    grouped by the :class:`BatchedRunner` homogeneity key (pack size,
    dt, tick interval, trace span) and each group becomes one batch; the
    rest run single-run in input order. Returns the results plus a
    per-run execution mode: ``batched`` (stayed in the kernel to the
    end), ``demoted`` (diverged mid-batch, finished single-run),
    ``rejected`` (degenerate inputs bounced at batch prepare), or
    ``fallback`` (never batch-eligible).
    """
    tracer = tracer if tracer is not None else get_default_tracer()
    results: List[Optional[EmulationResult]] = [None] * len(emulators)
    modes = ["fallback"] * len(emulators)
    groups: Dict[tuple, List[int]] = {}
    for i, em in enumerate(emulators):
        if batch_blockers(em):
            continue
        key = (
            em.controller.n,
            em.dt_s,
            em.runtime.update_interval_s,
            em.trace.start_s,
            em.trace.end_s,
        )
        groups.setdefault(key, []).append(i)
    for indices in groups.values():
        runner = BatchedRunner(
            [emulators[i] for i in indices], tracer=tracer, keep_series=keep_series
        )
        batch_results = runner.run()
        for pos, i in enumerate(indices):
            results[i] = batch_results[pos]
            modes[i] = "batched"
        for pos in runner.demoted:
            modes[indices[pos]] = "demoted"
        for pos in runner.rejected:
            modes[indices[pos]] = "rejected"
    for i, em in enumerate(emulators):
        if results[i] is None:
            results[i] = em.run()
    return list(results), modes


@dataclass
class SweepResult:
    """Everything one sweep produced: roster, results, and the rollup."""

    spec: SweepSpec
    runs: List[SweepRun]
    results: List[EmulationResult]
    #: Per-run execution mode, aligned with :attr:`runs` (see
    #: :func:`execute_runs`).
    modes: List[str]
    wall_s: float
    records: List[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.records:
            self.records = [
                {
                    **run.to_dict(),
                    "mode": mode,
                    "completed": bool(result.completed),
                    "degraded": _degraded(result),
                    "end_s": float(result.end_s or 0.0),
                    "depletion_s": result.depletion_s,
                    "battery_life_h": result.battery_life_h,
                    "delivered_j": result.delivered_j,
                }
                for run, result, mode in zip(self.runs, self.results, self.modes)
            ]

    def rollup(self) -> dict:
        """Aggregate counts and throughput for the whole grid."""
        lives = sorted(r["battery_life_h"] for r in self.records if not r["degraded"])
        wall = max(self.wall_s, 1e-9)
        return {
            "runs": len(self.records),
            "batched": sum(1 for r in self.records if r["mode"] == "batched"),
            "demoted": sum(1 for r in self.records if r["mode"] == "demoted"),
            "rejected": sum(1 for r in self.records if r["mode"] == "rejected"),
            "fallback": sum(1 for r in self.records if r["mode"] == "fallback"),
            "completed": sum(1 for r in self.records if r["completed"]),
            "depleted": sum(
                1 for r in self.records if not r["completed"] and not r["degraded"]
            ),
            "degraded": sum(1 for r in self.records if r["degraded"]),
            "battery_life_h_p50": percentile(lives, 0.50) if lives else None,
            "battery_life_h_p90": percentile(lives, 0.90) if lives else None,
            "wall_s": self.wall_s,
            "runs_per_s": len(self.records) / wall,
        }

    @property
    def exit_code(self) -> int:
        """0 on a clean grid, 1 when any run came back degraded."""
        return 1 if any(r["degraded"] for r in self.records) else 0

    def summary(self) -> str:
        """A short human-readable account of the sweep."""
        roll = self.rollup()
        spec = self.spec
        lines = [
            f"sweep: {roll['runs']} runs "
            f"({len(spec.scenarios)} scenarios x {len(spec.policies)} policies "
            f"x {spec.n_seeds} seeds) in {roll['wall_s']:.2f} s "
            f"({roll['runs_per_s']:.1f} runs/s)",
            f"modes: {roll['batched']} batched, {roll['demoted']} demoted, "
            f"{roll['rejected']} rejected, {roll['fallback']} fallback",
            f"outcomes: {roll['completed']} completed the trace, "
            f"{roll['depleted']} depleted, {roll['degraded']} degraded",
        ]
        if roll["battery_life_h_p50"] is not None:
            lines.append(
                f"battery life: p50 {roll['battery_life_h_p50']:.2f} h, "
                f"p90 {roll['battery_life_h_p90']:.2f} h"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-safe form for ``repro sweep --summary``."""
        return {
            "spec": self.spec.config_dict(),
            "rollup": self.rollup(),
            "runs": self.records,
            "exit_code": self.exit_code,
        }


def _degraded(result: EmulationResult) -> bool:
    """A run that could not cover even one step of its trace."""
    return float(result.end_s or 0.0) <= 0.0


class BatchedSweep:
    """The planner: a :class:`SweepSpec` executed through the run-axis kernel.

    Splits construction (:meth:`plan`, pure and cheap) from execution
    (:meth:`run`) so callers can inspect the roster — or time just the
    emulation, the way the benchmark harness does.
    """

    def __init__(self, spec: SweepSpec, *, tracer=None, keep_series: bool = False):
        self.spec = spec
        self.tracer = tracer if tracer is not None else get_default_tracer()
        self.keep_series = bool(keep_series)

    def plan(self) -> Tuple[List[SweepRun], List[SDBEmulator]]:
        """Build the roster and one ready-to-run emulator per grid point."""
        roster = self.spec.runs()
        return roster, [build_run_emulator(self.spec, run) for run in roster]

    def run(self) -> SweepResult:
        """Plan and execute the whole grid; wall time covers execution only."""
        roster, emulators = self.plan()
        with self.tracer.timer("sweep.total"):
            start = time.perf_counter()
            results, modes = execute_runs(
                emulators, tracer=self.tracer, keep_series=self.keep_series
            )
            wall = time.perf_counter() - start
        return SweepResult(
            spec=self.spec, runs=roster, results=results, modes=modes, wall_s=wall
        )


def run_sweep(spec: SweepSpec, *, tracer=None, keep_series: bool = False) -> SweepResult:
    """Convenience wrapper: plan and execute ``spec`` in one call."""
    return BatchedSweep(spec, tracer=tracer, keep_series=keep_series).run()
