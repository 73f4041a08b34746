"""The run supervisor: restart-from-checkpoint, watchdog, budgets.

The contract (docs/checkpointing.md): a supervised run that crashes
mid-flight — NaN blow-up caught by strict invariants, a wall-clock
stall, a corrupt checkpoint — restarts from the last good snapshot and
finishes with an *emulation* timeline bit-identical to an uninterrupted
run; only ``supervisor`` restart pulses mark that anything happened.
"""

import os
import time

import pytest

from repro.core.runtime import SDBRuntime
from repro.emulator import ENGINES, SDBEmulator, build_controller
from repro.errors import InvariantViolation, SupervisorError
from repro.replay import recorded_metrics
from repro.retry import RetryPolicy
from repro.supervisor import SUPERVISOR_FAULT, RunSupervisor, SupervisedRun
from repro.workloads.generators import smartwatch_day_trace

#: Simulated time at which the poison hook corrupts the pack.
POISON_T = 6 * 3600.0


def make_factory(engine="reference", hook=None):
    """A supervisor factory for the watch day; ``hook`` rides along.

    The clean baseline must use the same factory shape — the hook count
    is part of the configuration digest checkpoints are pinned to.
    """
    noop = lambda controller, t, dt: None  # noqa: E731

    def factory():
        controller = build_controller("watch")
        runtime = SDBRuntime(controller)
        return SDBEmulator(
            controller,
            runtime,
            smartwatch_day_trace(seed=5),
            dt_s=60.0,
            hooks=[hook or noop],
            engine=engine,
        )

    return factory


def poison_once(poison_t=POISON_T):
    """A hook corrupting a cell's RC state once, on the first attempt only.

    ``v_rc`` (not ``soc``) on purpose: a NaN SoC is laundered to 0.0 by
    the kernel's clamp, while a NaN RC voltage propagates through the
    electrical update and trips the strict invariant check.
    """
    armed = {"on": True}

    def hook(controller, t, dt):
        if armed["on"] and t >= poison_t:
            armed["on"] = False
            controller.cells[0].v_rc = float("nan")

    return hook


def poison_always(poison_t=POISON_T):
    """A hook corrupting the pack at ``poison_t`` on *every* attempt."""

    def hook(controller, t, dt):
        if t >= poison_t:
            controller.cells[0].v_rc = float("nan")

    return hook


@pytest.mark.parametrize("engine", ENGINES)
def test_restart_from_checkpoint_is_bit_identical(tmp_path, engine):
    clean = make_factory(engine)().run()

    ckpt = str(tmp_path / "watch.ckpt.json")
    supervisor = RunSupervisor(
        make_factory(engine, hook=poison_once()),
        ckpt,
        checkpoint_every_s=3600.0,
        retry=RetryPolicy(max_restarts=3, base_delay_s=0.0, jitter_frac=0.0),
    )
    run = supervisor.run()

    assert isinstance(run, SupervisedRun)
    assert run.attempts == 2
    assert len(run.restarts) == 1
    restart = run.restarts[0]
    assert restart.fault == SUPERVISOR_FAULT
    assert "InvariantViolation" in restart.detail
    # The restart fired after the poison step, from state checkpointed before it.
    assert restart.t >= POISON_T

    # The emulation outcome matches the never-interrupted run exactly;
    # recorded_metrics filters the supervisor pulse.
    assert recorded_metrics(run.result) == recorded_metrics(clean)
    assert run.result.times_s == clean.times_s
    assert run.result.soc_history == clean.soc_history
    # The supervisor pulse is in the merged timeline, properly sorted.
    assert [e.fault for e in run.result.fault_events].count(SUPERVISOR_FAULT) == 1
    ts = [e.t for e in run.result.fault_events]
    assert ts == sorted(ts)


def test_budget_exhaustion_raises(tmp_path):
    supervisor = RunSupervisor(
        make_factory(hook=poison_always()),
        str(tmp_path / "watch.ckpt.json"),
        checkpoint_every_s=3600.0,
        retry=RetryPolicy(max_restarts=2, base_delay_s=0.0, jitter_frac=0.0),
    )
    with pytest.raises(SupervisorError, match="3 attempt"):
        supervisor.run()


def test_unsupervised_strict_run_raises_typed_error():
    factory = make_factory(hook=poison_always())
    em = factory()
    em.strict = True
    with pytest.raises(InvariantViolation):
        em.run()


def test_supervisor_arms_strict_by_default(tmp_path):
    factory = make_factory()
    supervisor = RunSupervisor(factory, str(tmp_path / "w.ckpt.json"))
    em = supervisor._arm(factory())
    assert em.strict is True
    assert em.checkpoint_path == str(tmp_path / "w.ckpt.json")
    off = RunSupervisor(factory, str(tmp_path / "w.ckpt.json"), strict=False)
    assert off._arm(factory()).strict is False


def test_corrupt_checkpoint_burns_a_restart_and_recovers(tmp_path):
    ckpt = tmp_path / "watch.ckpt.json"
    ckpt.write_text("garbage, not a checkpoint")
    clean = make_factory()().run()
    supervisor = RunSupervisor(
        make_factory(),
        str(ckpt),
        checkpoint_every_s=3600.0,
        retry=RetryPolicy(max_restarts=1, base_delay_s=0.0, jitter_frac=0.0),
    )
    run = supervisor.run()
    assert run.attempts == 2
    assert "bad checkpoint" in run.restarts[0].detail
    assert recorded_metrics(run.result) == recorded_metrics(clean)


def test_watchdog_restarts_a_stalled_run(tmp_path):
    stall = {"armed": True}

    def hook(controller, t, dt):
        if stall["armed"] and t >= POISON_T:
            stall["armed"] = False
            time.sleep(30.0)  # interrupted by the watchdog long before 30 s

    clean = make_factory()().run()
    supervisor = RunSupervisor(
        make_factory(hook=hook),
        str(tmp_path / "watch.ckpt.json"),
        checkpoint_every_s=3600.0,
        retry=RetryPolicy(
            max_restarts=1, base_delay_s=0.0, jitter_frac=0.0, heartbeat_deadline_s=0.5
        ),
    )
    start = time.monotonic()
    run = supervisor.run()
    assert time.monotonic() - start < 25.0
    assert run.attempts == 2
    assert "stall" in run.restarts[0].detail
    assert recorded_metrics(run.result) == recorded_metrics(clean)


def test_cross_process_resume_semantics(tmp_path):
    """An attempt resumes from a pre-existing checkpoint file (as after
    a SIGKILL of a previous supervising process)."""
    ckpt = str(tmp_path / "watch.ckpt.json")
    clean = make_factory()().run()

    # "Process one": run partway, leaving a checkpoint behind.
    em = make_factory()()
    em.checkpoint_path = ckpt
    em.checkpoint_every_s = 3600.0
    em.run()
    assert os.path.exists(ckpt)

    # "Process two": a fresh supervisor on the same path resumes from it.
    supervisor = RunSupervisor(make_factory(), ckpt, checkpoint_every_s=3600.0)
    run = supervisor.run()
    assert run.attempts == 1
    assert recorded_metrics(run.result) == recorded_metrics(clean)


def test_sigkill_mid_run_then_resume_is_bit_identical(tmp_path):
    """The headline robustness claim, end to end: SIGKILL a supervised
    run mid-flight, re-invoke it on the same checkpoint path, and the
    finished run reproduces the uninterrupted run's recorded metrics
    exactly (verified through the replay machinery)."""
    import pathlib
    import signal
    import subprocess
    import sys

    from repro.replay import read_manifest, replay

    repo = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo / "src")
    ckpt = str(tmp_path / "watch.ckpt.json")
    manifest = str(tmp_path / "watch.replay.json")
    cmd = [
        sys.executable,
        "-m",
        "repro",
        "supervise",
        "watch-day",
        "--dt",
        "2",
        "--checkpoint",
        ckpt,
        "--manifest",
        manifest,
    ]

    victim = subprocess.Popen(
        cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    deadline = time.monotonic() + 120.0
    while not os.path.exists(ckpt) and victim.poll() is None:
        assert time.monotonic() < deadline, "no checkpoint appeared before the deadline"
        time.sleep(0.01)
    victim.send_signal(signal.SIGKILL)
    victim.wait(timeout=30.0)
    assert os.path.exists(ckpt), "the atomic checkpoint must survive the SIGKILL"

    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300.0)
    assert done.returncode == 0, done.stderr
    assert os.path.exists(manifest)

    # The resumed run's manifest replays clean against a from-scratch run.
    recorded = read_manifest(manifest)["recorded"]
    report = replay(manifest)
    assert report.matched, report.diffs
    assert recorded_metrics(report.result) == recorded


def test_parameter_validation(tmp_path):
    factory = make_factory()
    path = str(tmp_path / "w.ckpt.json")
    with pytest.raises(ValueError):
        RunSupervisor(factory, path, checkpoint_every_s=0.0)
    with pytest.raises(ValueError):
        RunSupervisor(factory, path, retry=RetryPolicy(max_restarts=-1))
    with pytest.raises(ValueError):
        RunSupervisor(factory, path, retry=RetryPolicy(heartbeat_deadline_s=0.0))


def test_watchdog_recovers_stall_off_main_thread(tmp_path):
    """The watchdog's abort must work when the supervised run is driven
    by a non-main thread (as inside a fleet shard worker): recovery goes
    through the cooperative abort channel, and no SIGINT is aimed at the
    main thread — this test's main thread sits in ``join()``, so a stray
    signal would surface as a KeyboardInterrupt and fail the test."""
    import threading

    stall = {"armed": True}

    def hook(controller, t, dt):
        if stall["armed"] and t >= POISON_T:
            stall["armed"] = False
            time.sleep(1.5)  # ~3x the watchdog timeout, then resumes

    clean = make_factory()().run()
    supervisor = RunSupervisor(
        make_factory(hook=hook),
        str(tmp_path / "watch.ckpt.json"),
        checkpoint_every_s=3600.0,
        retry=RetryPolicy(
            max_restarts=1, base_delay_s=0.0, jitter_frac=0.0, heartbeat_deadline_s=0.5
        ),
    )
    box = {}

    def drive():
        try:
            box["run"] = supervisor.run()
        except BaseException as exc:  # noqa: BLE001 - surfaced as a test failure
            box["error"] = exc

    thread = threading.Thread(target=drive, name="supervised-run")
    thread.start()
    thread.join(timeout=120.0)
    assert not thread.is_alive(), "supervised run never finished"
    assert "error" not in box, f"run raised {box.get('error')!r}"
    run = box["run"]
    assert run.attempts == 2
    assert "stall" in run.restarts[0].detail
    assert "cooperative" in run.restarts[0].detail
    assert recorded_metrics(run.result) == recorded_metrics(clean)


def test_retry_policy_supplies_budget_deadline_and_backoff(tmp_path):
    """A RetryPolicy (the dataclass shared with the fleet supervisor)
    configures the run supervisor end to end."""
    policy = RetryPolicy(
        max_restarts=1,
        base_delay_s=0.2,
        backoff_factor=2.0,
        jitter_frac=0.0,
        heartbeat_deadline_s=30.0,
    )
    supervisor = RunSupervisor(
        make_factory(hook=poison_once()),
        str(tmp_path / "watch.ckpt.json"),
        checkpoint_every_s=3600.0,
        retry=policy,
    )
    assert supervisor.max_restarts == 1
    assert supervisor.watchdog_timeout_s == 30.0  # from heartbeat_deadline_s

    start = time.monotonic()
    run = supervisor.run()
    elapsed = time.monotonic() - start
    assert run.attempts == 2
    assert elapsed >= policy.delay_for(1)  # the backoff delay was honored


def test_supervise_builds_a_zero_backoff_policy(tmp_path, monkeypatch):
    """``repro supervise`` restarts at once, within --max-restarts."""
    from repro.cli import main

    built = []

    def stop(self):
        built.append(self)
        raise SupervisorError("stopped before the first attempt")

    monkeypatch.setattr(RunSupervisor, "run", stop)
    monkeypatch.chdir(tmp_path)
    assert main(["supervise", "watch-day", "--max-restarts", "5", "--watchdog-s", "7"]) == 1
    (supervisor,) = built
    assert supervisor.retry.heartbeat_deadline_s == 7.0
    assert supervisor.retry.max_restarts == 5
    assert supervisor.retry.base_delay_s == 0.0
    assert supervisor.retry.delay_for(3) == 0.0
