"""Exception hierarchy for the SDB reproduction.

Everything raised on purpose by this library derives from :class:`SDBError`
so that callers can catch library failures without masking programming
errors (``TypeError``/``ValueError`` raised from argument validation is still
used where the mistake is clearly the caller's). :func:`require_positive`
is the one check of a configured duration or rate.
"""

from __future__ import annotations

import math


class SDBError(Exception):
    """Base class for all errors raised by the SDB reproduction library."""


class BatteryError(SDBError):
    """A battery model was driven outside its physical envelope."""


class BatteryEmptyError(BatteryError):
    """A discharge was requested from a cell with no usable charge left."""


class BatteryFullError(BatteryError):
    """A charge was requested into a cell that is already full."""


class PowerLimitError(BatteryError):
    """A cell cannot deliver (or absorb) the requested power.

    Raised when the quadratic relating terminal power to current has no real
    solution, i.e. the request exceeds the cell's maximum power point, or when
    an explicit per-cell current limit is exceeded in strict mode.
    """


class HardwareError(SDBError):
    """The simulated SDB hardware rejected a command."""


class RatioError(HardwareError):
    """A charge/discharge ratio vector was malformed (negative, wrong length,
    or not summing to one)."""


class PolicyError(SDBError):
    """A policy produced an unusable allocation."""


class EmulationError(SDBError):
    """The emulator could not make progress (e.g. all batteries empty while
    the workload still demands power and the run is configured as strict)."""


class InvariantViolation(EmulationError):
    """A strict-mode emulation step produced physically impossible state.

    Raised (instead of silently propagating NaNs) when a step leaves a cell
    with non-finite SoC/RC-branch voltage, an SoC outside [0, 1], a
    non-finite energy accumulator, or installed discharge ratios that no
    longer sum to one within tolerance. See ``SDBEmulator(strict=True)``.
    """


class EmulationAborted(EmulationError):
    """A cooperative abort was requested mid-run.

    Raised by the emulator's step loop when its ``abort_signal`` event is
    set — by the run supervisor's watchdog (a stalled run off the main
    thread, where a SIGINT cannot be delivered) or by a fleet supervisor
    cancelling a shard worker. The run stops at a step boundary with all
    object state consistent, so the periodic checkpoint that preceded the
    abort remains a valid resume point.
    """


class CheckpointError(SDBError):
    """A checkpoint could not be written, read, or applied.

    Covers malformed envelopes, checksum mismatches (a torn or corrupted
    file), version skew, and configuration mismatches between the
    checkpoint and the emulator it is being restored into.
    """


class SupervisorError(SDBError):
    """The run supervisor exhausted its restart budget without finishing."""


class FleetError(SDBError):
    """A fleet run could not be planned or driven at all.

    Raised for unusable fleet specifications (no devices, unknown
    scenarios) and supervisor-level failures that are not a single
    shard's fault — a shard that merely exhausts its retries is
    *quarantined* and reported, not raised."""


class ServeError(SDBError):
    """The battery-service front end could not be configured or started.

    Raised for unusable serve configurations (bad queue capacity,
    non-positive deadlines, a port that cannot bind), and by
    ``stamp_request`` for a request that cannot be built (a ``timeout_s``
    that is not a finite number, a ``ratios`` that is not a sequence). A
    single *request* that fails is never raised through this type —
    request failures are typed wire responses (see
    :mod:`repro.serve.protocol`) with an explicit retryable /
    non-retryable distinction, because at the service boundary failure is
    an answer, not an exception."""


class NetError(SDBError):
    """The networked battery directory could not be configured or driven.

    Raised for unusable directory/node configurations (duplicate device
    routes, a node that cannot bind, registering an unreachable node
    without a device list). A single *call* that fails against a remote
    node is never raised through this type — remote-call failures are
    typed wire responses (the :mod:`repro.serve.protocol` taxonomy),
    because across a network boundary failure is the common case, not
    the exceptional one."""


class TransportError(NetError):
    """One wire-level exchange with a remote battery node failed.

    Covers connection refusals, timeouts, torn/garbled frames, and
    injected faults (drops, partitions, lost replies). Always caught by
    the directory's retry loop — it is the *signal* the retry policy,
    circuit breaker, and lease machinery act on, never an error surfaced
    raw to a caller."""


class ReplayMismatch(SDBError):
    """A replayed run failed to reproduce its manifest's recorded results."""


class SweepError(SDBError):
    """A parameter sweep could not be planned at all.

    Raised for unusable sweep specifications (empty axes, unknown
    scenarios or policies, non-positive durations). A single run inside
    a valid sweep that ends degraded is *reported* in the rollup, not
    raised — the CLI maps that to exit 1, and this error to exit 2."""


def require_positive(value, name: str, error=ValueError, *, or_zero: bool = False) -> float:
    """``value`` as a float if it is positive (or zero, with ``or_zero``) and finite.

    Otherwise raise ``error`` naming ``name``. A ``<= 0`` test alone lets
    NaN through, since every comparison with NaN is false, and an infinite
    wait or window never ends.
    """
    if not ((value >= 0 if or_zero else value > 0) and math.isfinite(value)):
        bound = "non-negative" if or_zero else "positive"
        raise error(f"{name} must be {bound} and finite, got {value!r}")
    return float(value)
