"""Engine throughput benchmark: reference vs vectorized on the tablet day.

Runs the 24 h two-in-one tablet workload at ``dt_s = 1.0`` (86 400
emulated steps) through both emulation engines, alternating their
repeats, takes the best of ``--repeats`` wall-clock timings for each,
checks the vectorized run against the reference run (delivered energy
within 0.1 %, depletion time within one timestep), and writes the
measurement to ``benchmarks/results/BENCH_emulator.json`` in the format
documented in ``docs/performance.md``.

The timed repeats run with tracing disabled (the numbers the regression
gate compares). One extra *traced* run per engine then collects the
per-phase wall-clock breakdown via :mod:`repro.obs` — policy-tick time
vs. step-kernel time vs. bookkeeping — recorded under each engine's
``"phases"`` key (plus ``traced_wall_s`` for the instrumented run
itself, which is slower than the gated numbers by the tracing overhead).

A second section measures the *run-axis* kernel: a 64-run tablet-day
sweep grid executed through :class:`repro.experiments.sweep.BatchedSweep`
versus looping the single-run vectorized engine over the same grid, both
as best-of-``--repeats`` aggregate ``runs_per_s``. The batched results
must be bit-identical to the looped ones (exact ``==`` on every energy
total, depletion time, and end time) for the record to be written; the
gated quantity is the throughput *ratio*, so the number survives runner
speed changes. Recorded under the ``"sweep"`` key (record version 2 —
see ``docs/performance.md``).

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py [--repeats N] [--out PATH]
    PYTHONPATH=src python benchmarks/bench_engine.py --mode sweep

The committed baseline at the repo root (``BENCH_emulator.json``) is a
trusted run of this script; ``benchmarks/check_regression.py`` compares
a fresh measurement against it in CI.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import List, Tuple

from repro.core.runtime import SDBRuntime
from repro.emulator.devices import build_controller
from repro.emulator.emulator import EmulationResult, SDBEmulator
from repro.experiments.sweep import BatchedSweep, SweepSpec
from repro.obs import Tracer
from repro.workloads.generators import two_in_one_workload_trace

#: Benchmark scenario: the Figure 14 style tablet day at fine resolution.
DEVICE = "tablet"
MEAN_POWER_W = 9.0
DURATION_S = 24 * 3600.0
SEGMENT_S = 300.0
DT_S = 1.0

#: Equivalence tolerances the measurement must satisfy to be recorded.
DELIVERED_REL_TOL = 1e-3
DEPLETION_TOL_S = DT_S

DEFAULT_OUT = pathlib.Path(__file__).parent / "results" / "BENCH_emulator.json"

#: Record format version; bumped when gated fields are added (v2 added
#: the ``"sweep"`` run-axis section).
RECORD_VERSION = 2

#: The run-axis benchmark grid: 64 tablet days (2 policies x 32 seeds)
#: at the same fine resolution as the single-run scenario.
SWEEP_SPEC = SweepSpec(
    scenarios=("tablet-day",),
    policies=("even-split", "proportional"),
    n_seeds=32,
    seed=0,
    duration_s=DURATION_S,
    dt_s=DT_S,
    engine="vectorized",
)


def run_once(engine: str, tracer: Tracer = None) -> Tuple[EmulationResult, float, int]:
    """One full emulation run; returns (result, wall seconds, steps)."""
    controller = build_controller(DEVICE)
    runtime = SDBRuntime(controller)
    trace = two_in_one_workload_trace(
        mean_power_w=MEAN_POWER_W, duration_s=DURATION_S, segment_s=SEGMENT_S
    )
    emulator = SDBEmulator(controller, runtime, trace, dt_s=DT_S, engine=engine,
                           tracer=tracer)
    t0 = time.perf_counter()
    result = emulator.run()
    wall_s = time.perf_counter() - t0
    return result, wall_s, len(result.times_s)


def run_phases(engine: str) -> dict:
    """One traced run; returns the per-phase wall-clock breakdown.

    Phase accounting (all values are wall-clock seconds summed over the
    run, disjoint by construction):

    * ``policy_tick_s`` — time inside ``SDBRuntime.tick`` (policy
      evaluation plus ratio application), from ``emulator.policy_tick``.
    * ``step_kernel_s`` — physics advance: the scalar per-step kernel
      (``emulator.step_kernel``) plus the vectorized chunk kernel
      (``engine.step_kernel``), with the bookkeeping nested inside the
      chunk kernel (``engine.bookkeeping``) subtracted back out.
    * ``bookkeeping_s`` — result-series appends and chunk commits:
      ``emulator.bookkeeping`` plus ``engine.bookkeeping``.
    * ``other_s`` — the remainder of ``emulator.run`` (trace lookups,
      plug/fault window checks, loop overhead, tracing overhead).
    """
    tracer = Tracer()
    run_phases_result = run_once(engine, tracer=tracer)
    del run_phases_result  # equivalence is checked on the untraced runs
    total = tracer.timer_total_s
    engine_bookkeeping = total("engine.bookkeeping")
    policy_tick_s = total("emulator.policy_tick")
    step_kernel_s = (total("emulator.step_kernel")
                     + total("engine.step_kernel") - engine_bookkeeping)
    bookkeeping_s = total("emulator.bookkeeping") + engine_bookkeeping
    traced_wall_s = total("emulator.run")
    return {
        "policy_tick_s": policy_tick_s,
        "step_kernel_s": step_kernel_s,
        "bookkeeping_s": bookkeeping_s,
        "other_s": max(0.0, traced_wall_s - policy_tick_s - step_kernel_s
                       - bookkeeping_s),
        "traced_wall_s": traced_wall_s,
    }


def measure(repeats: int) -> dict:
    """Best-of-``repeats`` timing for both engines plus equivalence stats.

    The engines' repeats alternate (reference, vectorized, reference, ...),
    so a change in host load during the measurement reaches both engines
    alike instead of moving their ratio.
    """
    engines = ("reference", "vectorized")
    walls = {engine: [] for engine in engines}
    results = {}
    steps = {}
    for _ in range(repeats):
        for engine in engines:
            results[engine], wall_s, steps[engine] = run_once(engine)
            walls[engine].append(wall_s)
    best = {
        engine: {"wall_s": min(walls[engine]), "steps": steps[engine],
                 "steps_per_s": steps[engine] / min(walls[engine]),
                 "phases": run_phases(engine)}
        for engine in engines
    }

    ref, vec = results["reference"], results["vectorized"]
    delivered_rel_err = abs(vec.delivered_j - ref.delivered_j) / max(ref.delivered_j, 1e-12)
    if ref.depletion_s is None and vec.depletion_s is None:
        depletion_diff_s = 0.0
    elif ref.depletion_s is None or vec.depletion_s is None:
        depletion_diff_s = float("inf")
    else:
        depletion_diff_s = abs(vec.depletion_s - ref.depletion_s)

    return {
        "scenario": {
            "device": DEVICE,
            "mean_power_w": MEAN_POWER_W,
            "duration_s": DURATION_S,
            "segment_s": SEGMENT_S,
            "dt_s": DT_S,
        },
        "reference": best["reference"],
        "vectorized": best["vectorized"],
        "speedup": best["reference"]["wall_s"] / best["vectorized"]["wall_s"],
        "equivalence": {
            "delivered_rel_err": delivered_rel_err,
            "depletion_diff_s": depletion_diff_s,
        },
    }


def _result_fingerprint(result: EmulationResult) -> tuple:
    """The exact-equality signature the bit-identity check compares."""
    return (
        result.delivered_j,
        result.battery_heat_j,
        result.circuit_loss_j,
        result.end_s,
        result.depletion_s,
        result.completed,
        tuple(result.battery_depletion_s),
    )


def measure_sweep(repeats: int) -> dict:
    """Best-of-``repeats`` aggregate throughput for the 64-run grid.

    Both legs execute the *same* roster (same per-run seeds, same
    emulator construction); only execution differs — one run-axis batch
    versus a loop of independent single-run vectorized engines. Timing
    excludes emulator construction on both legs, so the ratio isolates
    the kernel. The legs' repeats alternate (batched, looped, batched,
    ...), as the engines' do in :func:`measure`.
    """
    n_runs = SWEEP_SPEC.n_runs
    batched_walls: List[float] = []
    batched_results: List[EmulationResult] = []
    looped_walls: List[float] = []
    looped_results: List[EmulationResult] = []
    for _ in range(repeats):
        sweep_result = BatchedSweep(SWEEP_SPEC).run()
        batched_walls.append(sweep_result.wall_s)
        batched_results = sweep_result.results
        _, emulators = BatchedSweep(SWEEP_SPEC).plan()
        t0 = time.perf_counter()
        looped_results = [emulator.run() for emulator in emulators]
        looped_walls.append(time.perf_counter() - t0)

    mismatches = sum(
        1
        for batched, looped in zip(batched_results, looped_results)
        if _result_fingerprint(batched) != _result_fingerprint(looped)
    )
    batched_wall = min(batched_walls)
    looped_wall = min(looped_walls)
    return {
        "grid": SWEEP_SPEC.config_dict(),
        "runs": n_runs,
        "batched": {"wall_s": batched_wall, "runs_per_s": n_runs / batched_wall},
        "looped": {"wall_s": looped_wall, "runs_per_s": n_runs / looped_wall},
        "ratio": looped_wall / batched_wall,
        "mismatches": mismatches,
        "bit_identical": mismatches == 0,
    }


def main(argv=None) -> int:
    """Run the benchmark, print a summary, write the JSON record."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions per engine; best is kept (default 3)")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    parser.add_argument("--mode", choices=("all", "single", "sweep"), default="all",
                        help="which sections to measure: the single-run engine "
                        "comparison, the run-axis sweep, or both (default all). "
                        "Partial modes merge into an existing --out record so "
                        "split CI jobs still produce one complete artifact.")
    args = parser.parse_args(argv)

    record = {"version": RECORD_VERSION}
    if args.mode != "all" and args.out.exists():
        # Partial re-measure: keep the other section's numbers.
        record.update(json.loads(args.out.read_text()))
        record["version"] = RECORD_VERSION

    if args.mode in ("all", "single"):
        record.update(measure(args.repeats))
        ref, vec, eq = record["reference"], record["vectorized"], record["equivalence"]
        print(f"reference:  {ref['wall_s'] * 1000:7.1f} ms  ({ref['steps_per_s']:>9.0f} steps/s)")
        print(f"vectorized: {vec['wall_s'] * 1000:7.1f} ms  ({vec['steps_per_s']:>9.0f} steps/s)")
        print(f"speedup:    {record['speedup']:.2f}x")
        for engine in ("reference", "vectorized"):
            phases = record[engine]["phases"]
            print(f"{engine} phases: "
                  f"policy_tick={phases['policy_tick_s'] * 1000:.1f}ms "
                  f"step_kernel={phases['step_kernel_s'] * 1000:.1f}ms "
                  f"bookkeeping={phases['bookkeeping_s'] * 1000:.1f}ms "
                  f"other={phases['other_s'] * 1000:.1f}ms")
        print(f"equivalence: delivered_rel_err={eq['delivered_rel_err']:.2e} "
              f"depletion_diff_s={eq['depletion_diff_s']}")

        if eq["delivered_rel_err"] > DELIVERED_REL_TOL:
            print(f"FAIL: delivered energy differs by more than {DELIVERED_REL_TOL:.0e} relative",
                  file=sys.stderr)
            return 1
        if eq["depletion_diff_s"] > DEPLETION_TOL_S:
            print(f"FAIL: depletion times differ by more than one timestep ({DT_S}s)",
                  file=sys.stderr)
            return 1

    if args.mode in ("all", "sweep"):
        record["sweep"] = sweep = measure_sweep(args.repeats)
        print(f"sweep batched: {sweep['batched']['wall_s'] * 1000:7.1f} ms  "
              f"({sweep['batched']['runs_per_s']:>7.1f} runs/s over {sweep['runs']} runs)")
        print(f"sweep looped:  {sweep['looped']['wall_s'] * 1000:7.1f} ms  "
              f"({sweep['looped']['runs_per_s']:>7.1f} runs/s)")
        print(f"sweep ratio:   {sweep['ratio']:.2f}x  "
              f"(bit_identical={sweep['bit_identical']})")
        if not sweep["bit_identical"]:
            print(f"FAIL: {sweep['mismatches']} of {sweep['runs']} batched runs "
                  f"differ from their single-run counterparts", file=sys.stderr)
            return 1

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
