"""``sweep-grid``: a seeded tablet-day grid through ``BatchedSweep``.

Why: the batch kernel (``BatchedRunner``) and the single-run
``VectorizedEngine`` are the two copies of the cell-step arithmetic; they
do nearly all the work here. Most runs use the batchable ``even-split``
and ``proportional`` policies; a minority use ``blended``, which falls
back to the single-run engine, so a gain for one kernel that costs the
other shows in ``throughput_per_s``. Whether a batchable run stays in the
batch or is demoted is measured per grid, not assumed.

Grids run back to back until the run's seconds of execution are used up;
``BatchedSweep.plan()`` before each is the set-up. A reference sample
(:mod:`perfbench.machine`) follows each planning and each execution, and
the untraced run reports set-up and throughput at the reference speed.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Tuple

import numpy as np

from repro.experiments.sweep import BatchedSweep, SweepSpec, build_run_emulator, execute_runs
from repro.obs import Tracer

from .common import CheckFailed, RunResult, derive_seed
from .machine import MachineSpeed
from .stats import median

BATCHABLE = ("even-split", "proportional")
#: Seed replicates per batchable policy, and of the ``blended`` fallback.
BATCH_SEEDS = 16
FALLBACK_SEEDS = 4
SOLO_SAMPLE = 3
#: Each grid is planned this many times (the last plan is executed) so the
#: run's median set-up rests on more than a handful of samples.
SETUP_REPEATS = 3


def grid_specs(seed: int, index: int) -> Tuple[SweepSpec, SweepSpec]:
    common = dict(scenarios=("tablet-day",), duration_s=24 * 3600.0, dt_s=1.0, engine="vectorized")
    return (
        SweepSpec(policies=BATCHABLE, n_seeds=BATCH_SEEDS, seed=derive_seed(seed, 3, index), **common),
        SweepSpec(policies=("blended",), n_seeds=FALLBACK_SEEDS, seed=derive_seed(seed, 4, index), **common),
    )


def fingerprint(result) -> tuple:
    return (result.delivered_j, result.end_s, result.depletion_s, tuple(result.battery_depletion_s))


def plan_grid(seed: int, index: int, tracer=None):
    """Grid ``index``: its ``(spec, run)`` roster and one emulator per run."""
    runs, emulators = [], []
    for spec in grid_specs(seed, index):
        roster, planned = BatchedSweep(spec, tracer=tracer).plan()
        runs.extend((spec, run) for run in roster)
        emulators.extend(planned)
    return runs, emulators


def run_grid(seed: int, index: int, tracer=None, span=None, speed: MachineSpeed = None) -> dict:
    """Plan grid ``index`` :data:`SETUP_REPEATS` times and execute the last plan.

    ``speed``, when given, takes a reference sample after each planning
    and after the execution. Only each run's fingerprint is kept: a
    fallback run's result holds its whole time series, and keeping those
    would make memory grow with the number of grids a run fits in.
    """
    plans = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        runs, emulators = plan_grid(seed, index, tracer)
        plans.append(time.perf_counter() - t0)
        if speed is not None:
            speed.sample()
    t1 = time.perf_counter()
    with span("bench.grid", grid=index) if span is not None else nullcontext():
        results, modes = execute_runs(emulators, tracer=tracer)
    exec_s = time.perf_counter() - t1
    if speed is not None:
        speed.sample()
    return {
        "plans_s": plans,
        "exec_s": exec_s,
        "runs": runs,
        "fingerprints": [fingerprint(r) for r in results],
        "modes": modes,
        "tracer": tracer,
    }


def run_grids(seed: int, seconds: float, speed: MachineSpeed):
    """Grids back to back until ``seconds`` of execution are spent."""
    grids = []
    while not grids or sum(g["exec_s"] for g in grids) < seconds:
        grids.append(run_grid(seed, len(grids), speed=speed))
    return grids


def check(seed: int, grids) -> None:
    """No run degraded; a seeded sample equals its solo run exactly."""
    for grid in grids:
        for (_, run), (_, end_s, _, _) in zip(grid["runs"], grid["fingerprints"]):
            if float(end_s or 0.0) <= 0.0:
                raise CheckFailed(f"sweep run {run.run_id} (seed {run.seed}) is degraded")
    rng = np.random.default_rng(derive_seed(seed, 5))
    for g in rng.choice(len(grids), size=SOLO_SAMPLE):
        grid = grids[int(g)]
        i = int(rng.integers(len(grid["runs"])))
        spec, run = grid["runs"][i]
        solo = build_run_emulator(spec, run).run()
        if fingerprint(solo) != grid["fingerprints"][i]:
            raise CheckFailed(
                f"sweep run {run.run_id} (seed {run.seed}, {grid['modes'][i]}) differs from its solo run"
            )


def run(seed: int, seconds: float, work_dir: str) -> RunResult:
    speed = MachineSpeed()
    grids = run_grids(seed, seconds, speed)
    check(seed, grids)
    runs = sum(len(g["runs"]) for g in grids)
    wall = sum(g["exec_s"] for g in grids)
    modes = [m for g in grids for m in g["modes"]]
    report = {"runs_per_s": (runs / wall, "1/s"), "grids": (len(grids), "count"), "runs": (runs, "count")}
    for mode in ("batched", "demoted", "rejected", "fallback"):
        report[f"{mode}_runs"] = (modes.count(mode), "count")
    return RunResult(
        setups_s=[p for g in grids for p in g["plans_s"]],
        completed=runs,
        wall_s=wall,
        outcomes=["ok"] * runs,
        report=report,
        speed=speed,
        adjusted=("setup_s", "throughput_per_s"),
    )


def traced(seed: int, seconds: float, work_dir: str, probe) -> dict:
    """Each grid runs untraced and then traced, until ``seconds`` of traced
    execution are spent; the overhead ratio is the median over these
    neighbouring pairs, so a drift in machine speed does not enter it."""
    run_grid(seed, 0)  # first-call costs count against neither side
    grids, ratios = [], []
    while not grids or sum(g["exec_s"] for g in grids) < seconds:
        untraced = run_grid(seed, len(grids))["exec_s"]
        probe.install()
        try:
            grid = run_grid(seed, len(grids), Tracer(), probe.span)
        finally:
            probe.restore()
        ratios.append(grid["exec_s"] / untraced)
        grids.append(grid)
    check(seed, grids)
    modes = [m for g in grids for m in g["modes"]]
    return {
        "traced_over_untraced": median(ratios),
        "phase_wall_s": sum(g["exec_s"] for g in grids),
        "tracers": {"sweep": [g["tracer"] for g in grids]},
        "grids": len(grids),
        "plannings": sum(len(g["plans_s"]) for g in grids),
        "modes": modes,
        "outcomes": ["ok"] * len(modes),
    }
