"""Command-line interface: regenerate any of the paper's tables/figures.

Usage::

    python -m repro list
    python -m repro run fig11
    python -m repro run all --out results/
    python -m repro run fig14 --trace fig14.trace.jsonl
    python -m repro run --tenants
    python -m repro library
    python -m repro chaos --seed 7
    python -m repro trace tablet-day --out run.trace.jsonl
    python -m repro trace run.trace.jsonl --trace-format chrome --out run.json
    python -m repro supervise watch-day --manifest watch.replay.json
    python -m repro replay watch.replay.json
    python -m repro fleet watch-day --devices 200 --shards 8
    python -m repro fleet watch-day=100,phone-day=50 --chaos kill-worker
    python -m repro serve watch-day --devices 8 --port 8464
    python -m repro directory --seed 0 --summary directory.json
    python -m repro sweep --scenarios tablet-day --policies even-split,proportional --seeds 32

``run`` prints each experiment's tables and optionally writes them to a
directory (one text file per experiment). ``chaos`` replays the tablet
day under a seeded fault schedule and compares the naive stack against
the self-healing runtime (see ``docs/resilience.md``). ``trace`` runs a
bundled scenario (or a workload CSV) with structured tracing enabled and
writes the event log — or converts a saved ``.trace.jsonl`` to the
Chrome ``trace_event`` format (see ``docs/observability.md``).
``supervise`` runs under the crash-safe supervisor (periodic
``repro.ckpt/v3`` checkpoints, strict invariants, bounded restarts,
automatic resume from an existing checkpoint) and ``replay`` re-executes
a recorded manifest and verifies bit-exact reproduction — see
``docs/checkpointing.md``. ``fleet`` runs a sharded multi-device
population under the fault-tolerant fleet supervisor (worker processes,
heartbeats, retry/backoff, shard quarantine) and prints fleet rollups —
see ``docs/fleet.md``. ``serve`` exposes the paper's four SDB calls as
an HTTP service over a live fleet run — per-request deadlines, bounded
admission with 429 backpressure, per-shard circuit breakers, and
cache-backed degraded reads (see ``docs/serving.md``). ``directory``
drives two TCP battery nodes behind a battery directory through a seeded
partition and heal (see ``docs/networking.md``). ``sweep``
executes a scenario x policy x seed
grid through the batched run-axis kernel — one NumPy kernel advancing
every eligible run at once — and prints the grid rollup with aggregate
``runs_per_s`` (see ``docs/performance.md``).

Every subcommand exits 2 for a value it cannot use: :func:`main` turns
the configuration errors that the objects a value reaches raise
(:data:`CONFIG_ERRORS`) into a one-line message, and refuses an output
file that could not be written (:class:`OutputPath`) or an output
directory that is an existing file (:class:`OutputDir`) before any work.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import pathlib
import sys
from typing import Optional, Sequence

from repro import units
from repro.chemistry.library import BATTERY_LIBRARY
from repro.emulator.emulator import ENGINES
from repro.errors import CheckpointError, FleetError, NetError, ServeError, SweepError
from repro.experiments import EXPERIMENT_DESCRIPTIONS, experiment_registry as _experiment_registry
from repro.protection import PROTECTION_MODES

#: Formats the tracing flags accept: the JSONL event log, the Chrome
#: ``trace_event`` JSON document, or a terminal summary table.
TRACE_FORMATS = ("jsonl", "chrome", "summary")

#: What the objects a command builds raise for a value they cannot use;
#: :func:`main` answers each with exit 2 and a one-line message.
CONFIG_ERRORS = (ValueError, CheckpointError, FleetError, NetError, ServeError, SweepError)


class OutputPath(str):
    """A file a command writes; :func:`main` checks it before the command runs."""


class OutputDir(str):
    """A directory a command creates or writes into; :func:`main` checks it first."""


def _check_outputs(args: argparse.Namespace) -> None:
    """Refuse an output file in a missing directory, or one that is a directory,
    and an output directory that is an existing file.

    Each would otherwise fail only when the run writes its output.
    """
    for dest, value in vars(args).items():
        if not isinstance(value, (OutputPath, OutputDir)):
            continue
        path, flag = pathlib.Path(value), "--" + dest.replace("_", "-")
        if isinstance(value, OutputDir):
            if path.exists() and not path.is_dir():
                raise ValueError(f"{flag} {value} is an existing file, not a directory")
        elif path.is_dir():
            raise ValueError(f"{flag} {value} is a directory, not a file")
        elif not path.parent.is_dir():
            raise ValueError(f"{flag} {value}: directory {path.parent} does not exist")


def _export_trace(tracer, fmt: str, out: Optional[pathlib.Path]) -> None:
    """Write (or print) one collected trace; only a summary may go without ``out``."""
    from repro.obs import export

    if fmt == "summary":
        print()
        print(export.summary_table(tracer))
        if out is not None:
            out.write_text(export.summary_table(tracer) + "\n")
            print(f"\nwrote trace summary to {out}")
        return
    if fmt == "chrome":
        export.write_chrome_trace(tracer, out)
    else:
        export.write_jsonl(tracer, out)
    print(f"wrote {fmt} trace to {out}")


@contextlib.contextmanager
def _traced(args: argparse.Namespace):
    """Yield the tracer a command records into; export it when the body ends.

    With ``--trace PATH`` a fresh tracer collects the run and is written
    to PATH in ``--trace-format`` once the body finishes without raising.
    Without it the disabled tracer is yielded and nothing is written.
    """
    from repro.obs import NULL_TRACER, Tracer

    if args.trace is None:
        yield NULL_TRACER
        return
    tracer = Tracer()
    yield tracer
    _export_trace(tracer, args.trace_format, pathlib.Path(args.trace))


def _write_summary(path: Optional[str], what: str, payload: dict) -> None:
    """Write a command's ``--summary`` JSON to ``path``, when one was given."""
    if path is None:
        return
    pathlib.Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {what} summary to {path}")


def cmd_list(_args: argparse.Namespace) -> int:
    """Print the experiment catalog."""
    for name, description in EXPERIMENT_DESCRIPTIONS.items():
        print(f"  {name:10s} {description}")
    return 0


def cmd_library(_args: argparse.Namespace) -> int:
    """Print the 15-battery library."""
    print(f"  {'id':4s} {'type':7s} {'mAh':>6s} {'Wh':>6s} {'R_full':>8s} {'maxC chg':>8s}  label")
    for bid in sorted(BATTERY_LIBRARY):
        d = BATTERY_LIBRARY[bid]
        print(
            f"  {bid:4s} {d.chemistry.short_name:7s} {d.capacity_mah:6.0f} "
            f"{d.energy_wh:6.2f} {d.r_full_ohm:8.4f} {d.effective_max_charge_c:8.1f}  {d.label}"
        )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run one experiment (or all) and print/save its tables."""
    from repro.obs import use_tracer

    registry = _experiment_registry()
    valid = f"valid: {', '.join(registry)}, all"
    if args.tenants:
        if args.experiment not in (None, "tenants"):
            raise ValueError("--tenants cannot be combined with another experiment name")
        args.experiment = "tenants"
    if args.experiment is None:
        raise ValueError(f"specify an experiment name (or --tenants); {valid}")
    if args.experiment != "all" and args.experiment not in registry:
        raise ValueError(f"unknown experiment {args.experiment!r}; {valid}")
    names = list(registry) if args.experiment == "all" else [args.experiment]

    out_dir: Optional[pathlib.Path] = None
    if args.out is not None:
        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

    with _traced(args) as tracer:
        with use_tracer(tracer):
            for name in names:
                driver = registry[name]
                params = inspect.signature(driver).parameters
                kwargs = {
                    key: getattr(args, key)
                    for key in ("engine", "checkpoint_dir", "protection")
                    if getattr(args, key) and key in params
                }
                result = driver(**kwargs)
                parts = [table.format() for table in result.tables()]
                if args.plot:
                    from repro.experiments.ascii_plot import plot_table

                    for table in result.tables():
                        try:
                            parts.append(plot_table(table))
                        except ValueError:
                            pass  # not every table has a plottable shape
                text = "\n\n".join(parts)
                print()
                print(text)
                if out_dir is not None:
                    (out_dir / f"{name}.txt").write_text(text + "\n")
        if out_dir is not None:
            print(f"\nwrote {len(names)} result file(s) to {out_dir}/")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the chaos harness with a chosen seed and print its tables."""
    from repro.experiments.chaos import run_chaos
    from repro.obs import use_tracer

    with _traced(args) as tracer:
        with use_tracer(tracer):
            result = run_chaos(
                seed=args.seed,
                dt_s=args.dt,
                engine=args.engine,
                protection=args.protection,
                preset=args.preset,
            )
        parts = [table.format() for table in result.tables()]
        parts.append("resilient: " + result.results["resilient"].resilience_summary())
        parts.append("naive:     " + result.results["naive"].resilience_summary())
        text = "\n\n".join(parts)
        print()
        print(text)
        if args.out is not None:
            out_dir = pathlib.Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / f"chaos_seed{args.seed}.txt").write_text(text + "\n")
            print(f"\nwrote chaos report to {out_dir}/chaos_seed{args.seed}.txt")
    return 0


def _resolve_source(args: argparse.Namespace, *, seed: Optional[int] = None, tracer=None):
    """Resolve ``args.source``, a scenario name or workload CSV, into an emulator factory.

    Returns ``(factory, label, manifest_kwargs)``. A missing or malformed
    CSV, or an unknown scenario, raises ValueError.
    """
    from repro.obs.scenarios import SCENARIOS, build_scenario, build_workload_emulator

    source = args.source
    if source.endswith(".csv"):
        from repro.workloads.io import load_trace

        path = pathlib.Path(source)
        if not path.exists():
            raise ValueError(f"workload CSV not found: {path}")
        workload = load_trace(path)

        def factory():
            return build_workload_emulator(
                workload, device=args.device, engine=args.engine, dt_s=args.dt, tracer=tracer
            )

        return factory, path.stem, {"csv_path": str(path), "device": args.device}

    if source not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {source!r}; valid: {', '.join(SCENARIOS)} (or a .csv workload path)"
        )

    def factory():
        return build_scenario(
            source, engine=args.engine, dt_s=args.dt, tracer=tracer, seed=seed, protection=args.protection
        )

    return factory, source, {"scenario": source, "seed": seed, "protection": args.protection}


def cmd_trace(args: argparse.Namespace) -> int:
    """Run a traced scenario (or convert/replay an existing trace source).

    The positional ``source`` is one of:

    * a bundled scenario name (see ``repro.obs.scenarios.SCENARIOS``);
    * a workload CSV path (``*.csv``, the ``workloads/io.py`` format) —
      emulated on the platform chosen with ``--device``;
    * a saved ``*.jsonl`` trace log — converted to the requested format
      (``--trace-format chrome`` for ``chrome://tracing``).
    """
    from repro.obs import Tracer, export

    fmt = args.trace_format
    if args.source.endswith(".jsonl"):
        path = pathlib.Path(args.source)
        if not path.exists():
            raise ValueError(f"trace file not found: {path}")
        records = export.load_jsonl(path.read_text())
        if fmt != "chrome":
            raise ValueError("converting an existing .jsonl trace requires --trace-format chrome")
        out = pathlib.Path(args.out) if args.out else path.with_suffix(".chrome.json")
        export.write_chrome_trace(records, out)
        print(f"wrote chrome trace to {out}")
        return 0

    tracer = Tracer()
    factory, label, _ = _resolve_source(args, tracer=tracer)
    result = factory().run()
    print(result.summary())
    if args.out:
        out = pathlib.Path(args.out)
    elif fmt == "summary":
        out = None
    else:
        out = pathlib.Path(label + (".trace.jsonl" if fmt == "jsonl" else ".chrome.json"))
    _export_trace(tracer, fmt, out)
    return 0


def cmd_supervise(args: argparse.Namespace) -> int:
    """Run a scenario/workload under the crash-safe run supervisor.

    Checkpoints every ``--every-h`` simulated hours; if the checkpoint
    file already exists (e.g. a previous invocation was SIGKILLed), the
    run resumes from it. ``--manifest`` also records a replay manifest
    for ``repro replay``.
    """
    from repro.errors import SupervisorError
    from repro.retry import RetryPolicy
    from repro.supervisor import RunSupervisor

    factory, label, manifest_kwargs = _resolve_source(args, seed=args.seed)
    supervisor = RunSupervisor(
        factory,
        args.checkpoint or f"{label}.ckpt.json",
        checkpoint_every_s=args.every_h * units.SECONDS_PER_HOUR,
        strict=not args.no_strict,
        # Restarts follow each other at once; --watchdog-s is the stall deadline.
        retry=RetryPolicy(
            max_restarts=args.max_restarts,
            base_delay_s=0.0,
            jitter_frac=0.0,
            heartbeat_deadline_s=args.watchdog_s,
        ),
    )
    # Constructing one emulator up front surfaces configuration errors
    # (bad dt, non-finite trace samples) as exit 2, not a crash.
    factory()
    try:
        run = supervisor.run()
    except SupervisorError as exc:
        print(f"supervisor: {exc}", file=sys.stderr)
        return 1
    result = run.result
    print(result.summary())
    print(result.resilience_summary())
    if run.restarts:
        print(f"supervisor: {len(run.restarts)} restart(s), {run.attempts} attempt(s)")
        for event in run.restarts:
            print(f"  [{event.t:10.1f} s] {event.detail}")
    else:
        print("supervisor: clean run, no restarts")
    print(f"checkpoint: {run.checkpoint_path}")
    if args.manifest:
        from repro.replay import build_manifest, write_manifest

        manifest = build_manifest(run.emulator, result, **manifest_kwargs)
        write_manifest(args.manifest, manifest)
        print(f"replay manifest: {args.manifest}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Replay a recorded manifest and verify it reproduces exactly."""
    from repro.replay import replay

    report = replay(args.manifest, checkpoint=args.checkpoint)
    if report.matched:
        if report.result is not None:
            print(report.result.summary())
        print("replay: reproduced the recorded results exactly")
        return 0
    print("replay: MISMATCH against the recorded results", file=sys.stderr)
    for diff in report.diffs:
        print(f"  {diff}", file=sys.stderr)
    return 1


def _fleet_supervisor(args: argparse.Namespace, tracer, **supervisor_kwargs):
    """Build the fleet supervisor ``fleet`` and ``serve`` configure alike.

    ``--boot-deadline-s`` is a serve flag; a fleet run leaves the boot
    deadline to the retry policy's default.
    """
    from repro.fleet import ChaosSpec, FleetSpec, FleetSupervisor, parse_population
    from repro.retry import RetryPolicy

    spec = FleetSpec(
        population=parse_population(args.population, default_count=args.devices),
        seed=args.seed,
        duration_s=args.duration_h * units.SECONDS_PER_HOUR,
        dt_s=args.dt,
        engine=args.engine,
        protection=args.protection,
    )
    retry = RetryPolicy(
        max_restarts=args.max_restarts,
        base_delay_s=args.base_delay_s,
        heartbeat_deadline_s=args.heartbeat_deadline_s,
        boot_deadline_s=getattr(args, "boot_deadline_s", None),
    )
    chaos = None
    if args.chaos is not None:
        chaos = ChaosSpec(mode=args.chaos, kills=args.chaos_kills, target_shard=args.chaos_target)
    return FleetSupervisor(
        spec,
        args.checkpoint_dir or "fleet.ckpt.d",
        n_shards=args.shards,
        max_workers=args.workers,
        retry=retry,
        checkpoint_every_s=args.every_h * units.SECONDS_PER_HOUR,
        chaos=chaos,
        tracer=tracer,
        **supervisor_kwargs,
    )


def cmd_fleet(args: argparse.Namespace) -> int:
    """Run a sharded device fleet under the fault-tolerant fleet engine.

    Exit contract: 0 — every device completed; 1 — degraded (quarantined
    shards / failed devices); 2 — unusable configuration.
    """
    with _traced(args) as tracer:
        result = _fleet_supervisor(args, tracer).run()
        print(result.summary())
        _write_summary(
            args.summary,
            "fleet",
            {
                "rollup": result.rollup,
                "shards": result.shards,
                "devices": result.devices,
                "wall_s": result.wall_s,
                "exit_code": result.exit_code,
            },
        )
    return result.exit_code


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve the SDB API (the paper's four calls) over a live fleet run.

    Starts the fault-tolerant fleet engine with a serving bridge
    attached and answers HTTP on ``--host``/``--port`` until the fleet
    run completes (or Ctrl-C): cache-backed QueryBatteryStatus with
    explicit staleness, deadline-bounded mutations with per-shard
    circuit breakers, and 429 backpressure under overload — see
    ``docs/serving.md``.

    Exit contract: 0 — fleet completed with full coverage; 1 — degraded
    (quarantined shards, failed devices, or an interrupted run); 2 —
    unusable configuration.
    """
    from repro.serve import ServeBridge, ServeConfig, ServingFleet

    with _traced(args) as tracer:
        config = ServeConfig(
            capacity=args.capacity,
            retry_after_s=args.retry_after_s,
            default_timeout_s=args.default_timeout_s,
            max_timeout_s=args.max_timeout_s,
            stale_after_s=args.stale_after_s,
            breaker_failures=args.breaker_failures,
            breaker_reset_s=args.breaker_reset_s,
        )
        supervisor = _fleet_supervisor(
            args, tracer, heartbeat_every_s=args.heartbeat_every_s, bridge=ServeBridge()
        )
        serving = ServingFleet(supervisor, host=args.host, port=args.port, config=config, tracer=tracer)
        try:
            serving.start()
        except ServeError:
            serving.stop()
            raise
        print(f"serving SDB API at {serving.address} (Ctrl-C to stop)")
        interrupted = False
        try:
            serving.wait()
        except KeyboardInterrupt:
            interrupted = True
            print("interrupted; winding the fleet down", file=sys.stderr)
        result = serving.stop()
        if result is not None:
            print(result.summary())
    if result is None or interrupted:
        return 1
    return result.exit_code


def cmd_directory(args: argparse.Namespace) -> int:
    """Drive a two-node battery directory through partition and heal.

    Builds two emulated devices, exports each as a TCP battery node,
    registers both in a :class:`~repro.net.BatteryDirectory`, and runs
    the seeded partition-and-heal cycle: fresh reads while both nodes
    are live, cache-backed degraded reads (explicit ``stale_s``) and
    fail-fast ``unavailable`` mutations while one node is partitioned,
    lease transitions (``live -> suspect -> live``) in the trace, and an
    idempotency-key replay applied exactly once — see
    ``docs/networking.md``.

    Exit contract: 0 — every check passed; 1 — a check failed (the
    summary says which); 2 — unusable configuration.
    """
    from repro.net.chaos import cycle_ok, run_partition_cycle

    with _traced(args) as tracer:
        summary = run_partition_cycle(
            seed=args.seed,
            partition_s=args.partition_s,
            tick_s=args.tick_s,
            tracer=tracer,
            scenario=args.scenario,
        )
        for name, passed in summary["checks"].items():
            print(f"  {'ok' if passed else 'FAIL':4s} {name}")
        print(
            f"  stale_s samples during partition: "
            f"{', '.join(f'{s:.2f}' for s in summary['stale_samples'])}"
        )
        _write_summary(args.summary, "directory", summary)
    return 0 if cycle_ok(summary) else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a batched parameter sweep over a scenario x policy x seed grid.

    Exit contract: 0 — clean grid; 1 — a degraded run in the grid (one
    that could not cover a single step); 2 — unusable sweep
    specification, including a plan-time failure such as a ``--socs``
    vector that does not match the platform pack.
    """
    from repro.experiments.sweep import SweepSpec, parse_axis, run_sweep

    socs = None
    if args.socs is not None:
        socs = tuple(float(part) for part in parse_axis(args.socs, "soc"))
    spec = SweepSpec(
        scenarios=parse_axis(args.scenarios, "scenario"),
        policies=parse_axis(args.policies, "policy"),
        n_seeds=args.seeds,
        seed=args.seed,
        duration_s=args.duration_h * units.SECONDS_PER_HOUR,
        dt_s=args.dt,
        engine=args.engine,
        protection=args.protection,
        socs=socs,
    )
    with _traced(args) as tracer:
        result = run_sweep(spec, tracer=tracer)
        print(result.summary())
        _write_summary(args.summary, "sweep", result.to_dict())
    return result.exit_code


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Software Defined Batteries (SOSP 2015) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # --trace/--trace-format: run, chaos, fleet, serve, directory, sweep.
    traced = argparse.ArgumentParser(add_help=False)
    traced.add_argument(
        "--trace",
        metavar="PATH",
        type=OutputPath,
        help="enable structured tracing and write the log to PATH",
    )
    traced.add_argument(
        "--trace-format",
        choices=TRACE_FORMATS,
        default="jsonl",
        help="trace output format (default: jsonl)",
    )

    # The emulation of one scenario or workload CSV: trace, supervise.
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument(
        "--engine",
        choices=ENGINES,
        default="reference",
        help="emulation engine (default: reference)",
    )
    source.add_argument("--dt", type=float, default=10.0, help="emulation step in seconds (default 10)")
    source.add_argument(
        "--device",
        choices=("tablet", "phone", "watch"),
        default="phone",
        help="platform for workload-CSV runs (default: phone)",
    )
    source.add_argument(
        "--protection",
        choices=PROTECTION_MODES,
        default="off",
        help="battery protection mode for scenario runs (default: off)",
    )

    # The fleet a run or a service drives: fleet, serve.
    fleet = argparse.ArgumentParser(add_help=False)
    fleet.add_argument(
        "population",
        help="fleet scenario (watch-day, phone-day, tablet-day) sized by "
        "--devices, or an explicit mix like 'watch-day=100,phone-day=50'",
    )
    fleet.add_argument(
        "--devices",
        type=int,
        default=16,
        help="device count for a bare scenario name (default 16)",
    )
    fleet.add_argument(
        "--shards", type=int, default=4, help="shards to plan (default 4)"
    )
    fleet.add_argument(
        "--workers",
        type=int,
        default=None,
        help="concurrent worker processes (default: min(shards, cpu count))",
    )
    fleet.add_argument(
        "--seed", type=int, default=0, help="fleet seed: per-device workload "
        "streams and restart jitter all derive from it (default 0)",
    )
    fleet.add_argument(
        "--duration-h",
        type=float,
        default=24.0,
        help="simulated hours per device (default 24)",
    )
    fleet.add_argument(
        "--dt", type=float, default=60.0, help="emulation step in seconds (default 60)"
    )
    fleet.add_argument(
        "--engine",
        choices=ENGINES,
        default="reference",
        help="emulation engine for every device run (default: reference)",
    )
    fleet.add_argument(
        "--protection",
        choices=PROTECTION_MODES,
        default="off",
        help="battery protection mode armed on every device (default: off)",
    )
    fleet.add_argument(
        "--checkpoint-dir",
        help="shard/device checkpoint directory (default: fleet.ckpt.d); "
        "re-invoking on the same directory resumes completed work",
    )
    fleet.add_argument(
        "--every-h",
        type=float,
        default=1.0,
        help="per-device checkpoint cadence in simulated hours (default 1)",
    )
    fleet.add_argument(
        "--max-restarts",
        type=int,
        default=3,
        help="per-shard restart budget before quarantine (default 3)",
    )
    fleet.add_argument(
        "--base-delay-s",
        type=float,
        default=0.5,
        help="base restart backoff delay in seconds (default 0.5; grows "
        "exponentially with seeded jitter)",
    )
    fleet.add_argument(
        "--heartbeat-deadline-s",
        type=float,
        default=10.0,
        help="wall seconds of worker silence (measured from its first "
        "heartbeat) before it is declared dead and SIGKILLed (default 10)",
    )
    fleet.add_argument(
        "--chaos",
        choices=("kill-worker", "stall-worker"),
        default=None,
        help="fleet-level fault injection: the target shard's worker "
        "SIGKILLs itself (kill-worker) or goes silent (stall-worker) "
        "mid-run to exercise the recovery path",
    )
    fleet.add_argument(
        "--chaos-kills",
        type=int,
        default=1,
        help="how many attempts the chaos keeps firing on (default 1; "
        "set above --max-restarts to force a quarantine)",
    )
    fleet.add_argument(
        "--chaos-target",
        type=int,
        default=0,
        help="shard the chaos targets (default 0)",
    )

    p_list = sub.add_parser("list", help="list the available experiments")
    p_list.set_defaults(func=cmd_list)

    p_library = sub.add_parser("library", help="print the 15-battery library")
    p_library.set_defaults(func=cmd_library)

    p_run = sub.add_parser("run", parents=[traced], help="run an experiment (or 'all')")
    p_run.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help="experiment name from 'list', or 'all'",
    )
    p_run.add_argument(
        "--tenants",
        action="store_true",
        help="run the multi-tenant virtual-battery contract scenario "
        "(shorthand for 'run tenants'; see docs/virtual_batteries.md)",
    )
    p_run.add_argument("--out", type=OutputDir, help="directory to write result tables to")
    p_run.add_argument("--plot", action="store_true", help="append ASCII charts of each table")
    p_run.add_argument(
        "--engine",
        choices=ENGINES,
        default="reference",
        help="emulation engine for experiments that support it (default: reference)",
    )
    p_run.add_argument(
        "--checkpoint-dir",
        type=OutputDir,
        metavar="DIR",
        help="checkpoint directory for resumable experiments (longevity); "
        "an interrupted run re-invoked with the same DIR resumes",
    )
    p_run.add_argument(
        "--protection",
        choices=PROTECTION_MODES,
        default="monitor",
        help="battery protection mode for experiments that support it: "
        "envelope guards + estimator councils observing (monitor), "
        "actuating (enforce), or absent (off) (default: monitor)",
    )
    p_run.set_defaults(func=cmd_run)

    p_chaos = sub.add_parser(
        "chaos", parents=[traced], help="replay the tablet day under a seeded fault schedule"
    )
    p_chaos.add_argument("--seed", type=int, default=7, help="fault-schedule seed (default 7)")
    p_chaos.add_argument(
        "--preset",
        choices=("classic", "gauge-storm"),
        default="classic",
        help="fault-schedule preset: the historical mixed schedule, or "
        "every gauge failure mode on one battery (default: classic)",
    )
    p_chaos.add_argument(
        "--protection",
        choices=PROTECTION_MODES,
        default="off",
        help="protection mode armed on the resilient configuration "
        "(default: off, the historical comparison)",
    )
    p_chaos.add_argument("--dt", type=float, default=15.0, help="emulation step in seconds (default 15)")
    p_chaos.add_argument("--out", type=OutputDir, help="directory to write the chaos report to")
    p_chaos.add_argument(
        "--engine",
        choices=ENGINES,
        default="reference",
        help="emulation engine (vectorized falls back to scalar inside fault windows)",
    )
    p_chaos.set_defaults(func=cmd_chaos)

    p_trace = sub.add_parser(
        "trace",
        parents=[source],
        help="run a bundled scenario (or workload CSV) with tracing on, "
        "or convert a saved .jsonl trace",
    )
    p_trace.add_argument(
        "source",
        help="scenario name (tablet-day, watch-day, phone-day, chaos-tablet, "
        "gauge-fault-tablet, tenants-tablet), a workload .csv, or a saved "
        ".jsonl trace to convert",
    )
    p_trace.add_argument("--out", type=OutputPath, help="output path (default: <scenario>.trace.jsonl)")
    p_trace.add_argument(
        "--trace-format",
        choices=TRACE_FORMATS,
        default="jsonl",
        help="output format (default: jsonl)",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_supervise = sub.add_parser(
        "supervise",
        parents=[source],
        help="run a scenario/workload under the crash-safe supervisor "
        "(periodic checkpoints, strict invariants, bounded restarts)",
    )
    p_supervise.add_argument(
        "source",
        help="scenario name (tablet-day, watch-day, phone-day, chaos-tablet, "
        "gauge-fault-tablet) or a workload .csv",
    )
    p_supervise.add_argument(
        "--checkpoint",
        type=OutputPath,
        help="checkpoint file path (default: <source>.ckpt.json); resumes "
        "from it automatically when it already exists",
    )
    p_supervise.add_argument(
        "--every-h",
        type=float,
        default=1.0,
        help="checkpoint cadence in simulated hours (default 1)",
    )
    p_supervise.add_argument(
        "--max-restarts",
        type=int,
        default=3,
        help="restart budget before giving up (default 3)",
    )
    p_supervise.add_argument(
        "--watchdog-s",
        type=float,
        default=None,
        help="wall-clock stall watchdog timeout in seconds (default: off)",
    )
    p_supervise.add_argument(
        "--no-strict",
        action="store_true",
        help="disable strict invariant checking (on by default under supervise)",
    )
    p_supervise.add_argument(
        "--manifest",
        metavar="PATH",
        type=OutputPath,
        help="also record a repro.replay/v1 manifest for 'repro replay' "
        "(the manifest and checkpoint digest record --protection)",
    )
    p_supervise.add_argument(
        "--seed",
        type=int,
        default=None,
        help="chaos fault-schedule seed for chaos-tablet (default 7)",
    )
    p_supervise.set_defaults(func=cmd_supervise)

    p_fleet = sub.add_parser(
        "fleet",
        parents=[fleet, traced],
        help="run a sharded multi-device fleet under the fault-tolerant "
        "fleet engine (worker heartbeats, retry/backoff, quarantine)",
    )
    p_fleet.add_argument(
        "--summary",
        metavar="PATH",
        type=OutputPath,
        help="write the fleet rollup/shard/device summary as JSON to PATH",
    )
    p_fleet.set_defaults(func=cmd_fleet)

    p_serve = sub.add_parser(
        "serve",
        parents=[fleet, traced],
        help="serve the SDB API over a live fleet run: deadline-bounded "
        "HTTP front end with backpressure, circuit breakers, and "
        "cache-backed degraded reads",
    )
    p_serve.add_argument(
        "--boot-deadline-s",
        type=float,
        default=None,
        help="wall seconds a freshly launched worker gets to produce its "
        "first heartbeat (default: 6x the heartbeat deadline)",
    )
    p_serve.add_argument(
        "--heartbeat-every-s",
        type=float,
        default=0.5,
        help="worker heartbeat (and status-publish) cadence in wall "
        "seconds — the serving cache's sample period (default 0.5)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=8464,
        help="bind port; 0 picks a free one (default 8464)",
    )
    p_serve.add_argument(
        "--capacity",
        type=int,
        default=64,
        help="admission queue size: concurrently in-flight requests "
        "before newcomers get 429 (default 64)",
    )
    p_serve.add_argument(
        "--retry-after-s",
        type=float,
        default=0.5,
        help="backpressure hint handed to overloaded callers (default 0.5)",
    )
    p_serve.add_argument(
        "--default-timeout-s",
        type=float,
        default=2.0,
        help="deadline budget for requests that name none (default 2)",
    )
    p_serve.add_argument(
        "--max-timeout-s",
        type=float,
        default=30.0,
        help="ceiling on client-requested deadline budgets (default 30)",
    )
    p_serve.add_argument(
        "--stale-after-s",
        type=float,
        default=3.0,
        help="cache age beyond which status reads are answered degraded "
        "(default 3; pick a small multiple of --heartbeat-every-s)",
    )
    p_serve.add_argument(
        "--breaker-failures",
        type=int,
        default=3,
        help="consecutive transport failures tripping a shard's circuit "
        "breaker open (default 3)",
    )
    p_serve.add_argument(
        "--breaker-reset-s",
        type=float,
        default=2.0,
        help="seconds an open breaker holds before its half-open probe "
        "(default 2)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_directory = sub.add_parser(
        "directory",
        parents=[traced],
        help="drive a two-node battery directory through a seeded "
        "partition-and-heal cycle (degraded reads, fail-fast mutations, "
        "lease lifecycle, idempotent replay)",
    )
    p_directory.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seeds the devices, retry jitter, and fault schedule (default 0)",
    )
    p_directory.add_argument(
        "--partition-s",
        type=float,
        default=1.2,
        help="how long the partitioned node stays unreachable (default 1.2)",
    )
    p_directory.add_argument(
        "--tick-s",
        type=float,
        default=0.15,
        help="driver cadence: heartbeats and probe reads per tick "
        "(default 0.15)",
    )
    p_directory.add_argument(
        "--scenario",
        default="watch-day",
        help="fleet scenario both node devices run (default watch-day)",
    )
    p_directory.add_argument(
        "--summary",
        metavar="PATH",
        type=OutputPath,
        help="write the cycle summary (checks + evidence) as JSON to PATH",
    )
    p_directory.set_defaults(func=cmd_directory)

    p_sweep = sub.add_parser(
        "sweep",
        parents=[traced],
        help="run a scenario x policy x seed grid through the batched "
        "run-axis kernel and print the grid rollup",
    )
    p_sweep.add_argument(
        "--scenarios",
        default="tablet-day",
        help="comma-separated workload scenarios (watch-day, phone-day, "
        "tablet-day; default tablet-day)",
    )
    p_sweep.add_argument(
        "--policies",
        default="even-split,proportional",
        help="comma-separated discharge policies (even-split, proportional, "
        "single, either-or, blended; default even-split,proportional)",
    )
    p_sweep.add_argument(
        "--seeds",
        type=int,
        default=4,
        help="seed replicates per (scenario, policy) cell (default 4)",
    )
    p_sweep.add_argument(
        "--seed",
        type=int,
        default=0,
        help="sweep seed; every per-run workload seed derives from it "
        "(default 0)",
    )
    p_sweep.add_argument(
        "--duration-h",
        type=float,
        default=24.0,
        help="simulated hours per run (default 24)",
    )
    p_sweep.add_argument(
        "--dt", type=float, default=60.0, help="emulation step in seconds (default 60)"
    )
    p_sweep.add_argument(
        "--engine",
        choices=ENGINES,
        default="vectorized",
        help="emulation engine (default: vectorized; batching requires it — "
        "reference runs the whole grid single-run)",
    )
    p_sweep.add_argument(
        "--protection",
        choices=PROTECTION_MODES,
        default="off",
        help="battery protection mode armed on every run (default: off; "
        "anything else routes runs to the single-run path)",
    )
    p_sweep.add_argument(
        "--socs",
        help="comma-separated per-battery initial SoC shared by every run "
        "(default: full)",
    )
    p_sweep.add_argument(
        "--summary",
        metavar="PATH",
        type=OutputPath,
        help="write the sweep spec/rollup/per-run records as JSON to PATH",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_replay = sub.add_parser(
        "replay",
        help="re-execute a recorded replay manifest and verify it "
        "reproduces the recorded results exactly",
    )
    p_replay.add_argument("manifest", help="repro.replay/v1 manifest path")
    p_replay.add_argument(
        "--checkpoint",
        help="resume the replay from a mid-run repro.ckpt snapshot",
    )
    p_replay.set_defaults(func=cmd_replay)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point.

    A configuration error (:data:`CONFIG_ERRORS`) raised anywhere in a
    command, or an output file it could not write, is exit 2 with its
    message on one stderr line.
    """
    args = build_parser().parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except CONFIG_ERRORS as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into head/less that closed early — not an error.
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
