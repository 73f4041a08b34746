"""A run supervisor for long emulations: checkpoint, watch, restart.

Long runs (multi-day traces, the year-scale longevity projections) die
for mundane reasons — an OOM kill at hour 20, a NaN blow-up from a bad
fault parameter, a wedged process. :class:`RunSupervisor` wraps an
emulation so none of those lose the run:

* it arms periodic checkpointing (every N simulated seconds, atomic
  ``repro.ckpt/v3`` snapshots — see :mod:`repro.checkpoint`);
* it turns on strict invariants by default, so non-finite state raises a
  typed :class:`~repro.errors.InvariantViolation` at the offending step
  instead of corrupting hours of downstream bookkeeping;
* a watchdog thread monitors wall-clock step progress and aborts the
  run if it stalls;
* on failure it rebuilds the emulator via the caller's factory and
  resumes from the last good checkpoint, up to the
  :class:`~repro.retry.RetryPolicy`'s ``max_restarts`` times, recording
  each restart as a ``supervisor`` pulse in the fault timeline;
* because resume state lives in the checkpoint *file*, recovery also
  works across processes: SIGKILL the supervising process, start a new
  supervisor on the same checkpoint path, and the run continues.

Restart events carry ``fault == "supervisor"`` so result comparisons
(replay, the CI kill/resume smoke) can filter them out: the *emulation*
timeline of a crashed-and-resumed run is bit-identical to an
uninterrupted one.
"""

from __future__ import annotations

import _thread
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.emulator.emulator import EmulationResult, SDBEmulator
from repro.errors import CheckpointError, EmulationAborted, SDBError, SupervisorError, require_positive
from repro.faults.events import PULSE, FaultEvent
from repro.retry import RetryPolicy

__all__ = ["SUPERVISOR_FAULT", "SupervisedRun", "RunSupervisor"]

#: Timeline label on restart events, filtered out of replay comparisons.
SUPERVISOR_FAULT = "supervisor"


@dataclass
class SupervisedRun:
    """What a supervised emulation produced, plus how it got there."""

    result: EmulationResult
    #: Restart pulses, also merged into ``result.fault_events``.
    restarts: List[FaultEvent] = field(default_factory=list)
    #: Total attempts (1 for an incident-free run).
    attempts: int = 1
    checkpoint_path: Optional[str] = None
    #: The emulator instance that completed the run.
    emulator: Optional[SDBEmulator] = None


class _Watchdog(threading.Thread):
    """Daemon thread that aborts the run when step progress stalls.

    Polls the emulator's monotonic step counter; if it stops moving for
    ``timeout_s`` wall-clock seconds, sets :attr:`stalled` and aborts the
    run through two channels:

    * the **cooperative channel** — the emulator's ``abort_signal`` event,
      checked at every step boundary, which raises a typed
      :class:`EmulationAborted` the supervisor converts into a restart.
      This works no matter which thread drives the run, so a supervisor
      nested inside a fleet shard worker or any other non-main thread
      recovers from transient stalls too;
    * the **signal fast path** — only when the supervised run owns the
      *main* thread, a SIGINT aimed at it interrupts even a step wedged
      in a blocking syscall (the cooperative check can only fire once the
      wedged step returns). A real Ctrl-C, with :attr:`stalled` unset, is
      re-raised untouched.
    """

    def __init__(
        self,
        emulator: SDBEmulator,
        timeout_s: float,
        owner: Optional[threading.Thread] = None,
    ):
        super().__init__(daemon=True, name="sdb-watchdog")
        self.emulator = emulator
        self.timeout_s = float(timeout_s)
        #: The thread driving the supervised run (defaults to the current
        #: thread at construction — the supervisor builds one per attempt).
        self.owner = owner if owner is not None else threading.current_thread()
        self.stalled = False
        self._halt = threading.Event()

    def run(self) -> None:
        poll = min(0.25, self.timeout_s / 4.0)
        last_steps = -1
        last_change = time.monotonic()
        while not self._halt.wait(poll):
            steps = self.emulator._steps_completed
            now = time.monotonic()
            if steps != last_steps:
                last_steps = steps
                last_change = now
            elif now - last_change >= self.timeout_s:
                self.stalled = True
                self._interrupt()
                return

    def _interrupt(self) -> None:
        # Cooperative channel first: valid from any thread, and even on
        # the signal path it backstops a SIGINT swallowed by a handler.
        if self.emulator.abort_signal is not None:
            self.emulator.abort_signal.set()
        if self.owner is not threading.main_thread():
            return
        # A real SIGINT aimed at the main thread interrupts even a run
        # wedged in a blocking syscall; interrupt_main() only sets a flag
        # the interpreter checks between bytecodes, so it is the fallback
        # for platforms without pthread_kill.
        try:
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        except (AttributeError, ValueError, OSError, RuntimeError):
            _thread.interrupt_main()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=2.0)


class RunSupervisor:
    """Run an emulation to completion through crashes, NaNs, and stalls.

    Args:
        factory: zero-argument callable returning a *fresh*
            :class:`SDBEmulator` for each attempt. It must rebuild the
            full configuration (cells, runtime, trace, faults) from
            scratch — cells are mutated by a run, and resume restores
            their state from the checkpoint, not from the wreck of the
            previous attempt.
        checkpoint_path: where periodic snapshots are written. If the
            file already exists when an attempt starts, the run resumes
            from it — which is what makes recovery work across processes.
        checkpoint_every_s: snapshot cadence in *simulated* seconds.
        strict: force strict invariants on the emulator (default True).
        retry: the :class:`~repro.retry.RetryPolicy` — the same dataclass
            the fleet supervisor tunes with — that sets the restart budget
            (``max_restarts``; exhausting it raises
            :class:`SupervisorError`), the backoff between attempts, and
            the wall-clock stall watchdog (``heartbeat_deadline_s``;
            ``None`` disables it). The default restarts three times,
            immediately, with no watchdog.
    """

    def __init__(
        self,
        factory: Callable[[], SDBEmulator],
        checkpoint_path: str,
        *,
        checkpoint_every_s: float = 3600.0,
        strict: bool = True,
        retry: RetryPolicy = RetryPolicy(base_delay_s=0.0, jitter_frac=0.0),
    ):
        self.factory = factory
        self.checkpoint_path = os.fspath(checkpoint_path)
        self.checkpoint_every_s = require_positive(checkpoint_every_s, "checkpoint_every_s")
        self.retry = retry
        self.max_restarts = retry.max_restarts
        self.watchdog_timeout_s = retry.heartbeat_deadline_s
        self.strict = bool(strict)

    def _arm(self, em: SDBEmulator) -> SDBEmulator:
        em.checkpoint_path = self.checkpoint_path
        em.checkpoint_every_s = self.checkpoint_every_s
        if self.strict:
            em.strict = True
        if em.abort_signal is None:
            # The watchdog's cooperative abort channel; harmless when no
            # watchdog is armed (nothing ever sets it).
            em.abort_signal = threading.Event()
        return em

    def run(self) -> SupervisedRun:
        """Drive attempts until one finishes; raise when the budget runs out."""
        restarts: List[FaultEvent] = []
        attempt = 0
        while True:
            attempt += 1
            em = self._arm(self.factory())
            resume_from = (
                self.checkpoint_path
                if os.path.exists(self.checkpoint_path)
                else None
            )
            watchdog = (
                _Watchdog(em, self.watchdog_timeout_s)
                if self.watchdog_timeout_s is not None
                else None
            )
            failure: Optional[str] = None
            result: Optional[EmulationResult] = None
            try:
                if watchdog is not None:
                    watchdog.start()
                result = em.run(resume_from=resume_from)
            except KeyboardInterrupt:
                if watchdog is not None and watchdog.stalled:
                    failure = (
                        f"wall-clock stall: no step progress for "
                        f"{self.watchdog_timeout_s:.0f} s"
                    )
                else:
                    raise
            except EmulationAborted:
                # The cooperative abort channel fired. From our own
                # watchdog it means a stall (recoverable, like the SIGINT
                # path); from anyone else it is an external cancellation
                # and propagates.
                if watchdog is not None and watchdog.stalled:
                    failure = (
                        f"wall-clock stall (cooperative abort): no step "
                        f"progress for {self.watchdog_timeout_s:.0f} s"
                    )
                else:
                    raise
            except CheckpointError as exc:
                # The last checkpoint itself is unusable (corrupt file or a
                # factory that no longer matches it). Discard it and burn a
                # restart on a from-scratch attempt rather than giving up.
                failure = f"bad checkpoint: {exc}"
                if resume_from is not None:
                    try:
                        os.remove(resume_from)
                    except OSError:
                        pass
            except SDBError as exc:
                failure = f"{type(exc).__name__}: {exc}"
            finally:
                if watchdog is not None:
                    watchdog.stop()

            if failure is None:
                assert result is not None
                if restarts:
                    result.fault_events.extend(restarts)
                    result.fault_events.sort(key=lambda event: event.t)
                return SupervisedRun(
                    result=result,
                    restarts=restarts,
                    attempts=attempt,
                    checkpoint_path=self.checkpoint_path,
                    emulator=em,
                )

            sim_t = em.trace.start_s + em._steps_completed * em.dt_s
            restarts.append(
                FaultEvent(
                    t=sim_t,
                    fault=SUPERVISOR_FAULT,
                    action=PULSE,
                    battery_index=None,
                    detail=f"restart {attempt}/{self.max_restarts + 1} attempts: {failure}",
                )
            )
            if attempt > self.max_restarts:
                raise SupervisorError(
                    f"gave up after {attempt} attempt(s) "
                    f"({self.max_restarts} restart(s)): {failure}"
                )
            delay = self.retry.delay_for(attempt)
            if delay > 0:
                time.sleep(delay)
