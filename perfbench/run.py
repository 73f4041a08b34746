"""Benchmark of the SDB reproduction: four workloads, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet-day --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` wraps every layer's public functions and prints
the per-layer metrics instead. Either way the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it are the human-readable
report. A failed correctness check exits 1 and prints no result; a
checkout without the program under ``src/`` exits 2.

Workloads, metrics and the layer predictions are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("fleet-day", "sweep-grid", "serve-http", "directory-tcp")


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def _print_report(title: str, numbers: dict) -> None:
    print(title)
    for name, (value, unit) in numbers.items():
        print(f"  {name:32s} {value:14.6g} {unit}")


def measure(args, work_dir: pathlib.Path):
    """Run the workload; returns ``(attempted, failed, metrics)``."""
    import statistics

    from perfbench import directory_tcp, fleet_day, serve_http, sweep_grid
    from perfbench.env import environment, peak_rss_mb, worker_peak_rss_mb
    from perfbench.perlayer import LayerProbe, layer_metrics
    from perfbench.stats import check_metric_names

    module = {
        "fleet-day": fleet_day,
        "sweep-grid": sweep_grid,
        "serve-http": serve_http,
        "directory-tcp": directory_tcp,
    }[args.workload]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("environment " + json.dumps(environment(args.seed, str(work_dir))))
    if args.trace:
        probe = LayerProbe()
        try:
            extras = module.traced(args.seed, args.seconds, str(work_dir), probe)
        finally:
            probe.restore()
        probe.write_jsonl(str(work_dir.parent / f"spans-{args.workload}.jsonl"))
        notes = {}
        numbers = layer_metrics(probe, extras, notes)
        outcomes = extras["outcomes"]
        _print_report("per-layer (traced run)", numbers)
        for name, note in notes.items():
            print(f"  {name}: {note}")
    else:
        result = module.run(args.seed, args.seconds, str(work_dir))
        setup_s = statistics.median(result.setups_s)
        throughput = result.completed / result.wall_s
        report = dict(result.report)
        if result.speed is not None:
            slowdown = result.speed.slowdown()
            report["machine_slowdown"] = (slowdown, "ratio")
            report["reference_samples"] = (len(result.speed.samples_s), "count")
            setup_slowdown = slowdown
            if result.setup_speed is not None:
                setup_slowdown = result.setup_speed.slowdown()
                report["setup_machine_slowdown"] = (setup_slowdown, "ratio")
                report["setup_reference_samples"] = (len(result.setup_speed.samples_s), "count")
            if "setup_s" in result.adjusted:
                report["setup_raw_s"] = (setup_s, "s")
                waits = result.setup_waits_s or [0.0] * len(result.setups_s)
                setup_s = statistics.median((t - w) / setup_slowdown + w for t, w in zip(result.setups_s, waits))
            if "throughput_per_s" in result.adjusted:
                report["throughput_raw_per_s"] = (throughput, "1/s")
                throughput *= slowdown
        if not result.rss_counts_workers:
            report["worker_peak_rss_mb"] = (worker_peak_rss_mb(), "MB")
        _print_report(f"{args.workload} (untraced)", report)
        numbers = {
            "setup_s": (setup_s, "s"),
            "throughput_per_s": (throughput, "1/s"),
            "peak_rss_mb": (peak_rss_mb(workers=result.rss_counts_workers), "MB"),
        }
        outcomes = result.outcomes
        _print_report(f"end-to-end ({len(result.setups_s)} set-ups, {result.wall_s:.2f} s timed)", numbers)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in numbers.items()}
    problems = check_metric_names(metrics)
    if problems:
        raise ValueError("; ".join(problems))
    return len(outcomes), sum(1 for o in outcomes if o != "ok"), metrics


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    The program joins its own workers, but ``spawn`` also starts
    multiprocessing's resource tracker, which is meant to outlive its
    parent and would be left behind unreaped. Multiprocessing's exit
    finalisers run first, so queues close and semaphores are unlinked by
    their owners, and the tracker then stops with nothing to clean up.
    Anything else still a child of this process is killed and waited for.
    """
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker, util

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    util._exit_function()
    resource_tracker._resource_tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def _child_pids() -> list:
    """Processes whose parent is this one, from ``/proc`` (none without it)."""
    pids = []
    proc = pathlib.Path("/proc")
    for entry in proc.iterdir() if proc.is_dir() else ():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
            pids.append(int(entry.name))
    return pids


def main(argv=None) -> int:
    args = _args(argv)
    src = (ROOT / "src").resolve()
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program under {src}: {exc}", file=sys.stderr)
        return 2
    if src not in pathlib.Path(repro.__file__).resolve().parents:
        print(f"the program under test must come from {src}, not {repro.__file__}", file=sys.stderr)
        return 2
    from perfbench.common import CheckFailed

    work_dir = ROOT / "perfbench" / ".work" / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        attempted, failed, metrics = measure(args, work_dir)
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        stop_children()
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
