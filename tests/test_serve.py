"""The serving layer's pure parts: wire protocol, circuit breaker,
admission queue, and status cache — all with pinned clocks, no fleet,
no HTTP. The service/bridge integration lives in
``test_serve_service.py`` and the process-level chaos path in
``scripts/chaos_check.py serve-chaos`` (a CI ``chaos`` matrix entry).
"""

import threading

import pytest

from repro.errors import ServeError
from repro.serve import (
    CLOSED,
    HALF_OPEN,
    HTTP_STATUS,
    OPEN,
    OPS,
    RETRYABLE,
    AdmissionQueue,
    CircuitBreaker,
    ServeRequest,
    ServeResponse,
    StatusCache,
    error_response,
    parse_ratios,
)


class FakeClock:
    def __init__(self, t: float = 1000.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# --------------------------------------------------------------------- #
# Protocol
# --------------------------------------------------------------------- #


def test_error_taxonomy_is_complete_and_consistent():
    assert set(RETRYABLE) == set(HTTP_STATUS)
    # Backpressure and transient outages invite retries; caller bugs and
    # permanent conditions do not.
    assert RETRYABLE["overloaded"] and HTTP_STATUS["overloaded"] == 429
    assert RETRYABLE["deadline_exceeded"] and HTTP_STATUS["deadline_exceeded"] == 504
    assert not RETRYABLE["bad_request"] and HTTP_STATUS["bad_request"] == 400
    assert not RETRYABLE["completed"] and HTTP_STATUS["completed"] == 410
    assert not RETRYABLE["quarantined"]


def test_request_wire_roundtrip_carries_deadline_and_args():
    req = ServeRequest(
        op="SetCharge",
        device_id="watch-day-00000",
        request_id="r1",
        deadline_t=1234.5,
        ratios=(0.5, 0.5),
    )
    wire = req.to_wire()
    assert wire["deadline_t"] == 1234.5
    assert wire["ratios"] == [0.5, 0.5]
    assert "profile" not in wire
    assert req.mutating
    assert not ServeRequest("QueryBatteryStatus", "d", "r2", 0.0).mutating
    assert req.remaining_s(now=1234.0) == pytest.approx(0.5)
    assert req.remaining_s(now=1235.0) < 0


def test_response_wire_defaults_retryability_from_taxonomy():
    resp = error_response("overloaded", "full", retry_after_s=0.5)
    wire = resp.to_wire()
    assert wire["retryable"] is True
    assert wire["retry_after_s"] == 0.5
    assert resp.http_status == 429
    ok = ServeResponse(ok=True, result={"x": 1}, degraded=True, stale_s=2.0)
    wire = ok.to_wire()
    assert wire["ok"] and wire["degraded"] and wire["stale_s"] == 2.0
    assert ok.http_status == 200


def test_parse_ratios_shape_validation():
    assert parse_ratios([1, 0.5]) == (1.0, 0.5)
    for bad in (None, [], "0.5", [0.5, "x"], [True, 0.5], {"a": 1}):
        with pytest.raises(ValueError):
            parse_ratios(bad)


def test_the_four_sdb_calls_are_the_ops():
    assert OPS == (
        "QueryBatteryStatus",
        "SetCharge",
        "SetDischarge",
        "SelectChargingProfile",
    )


# --------------------------------------------------------------------- #
# Circuit breaker
# --------------------------------------------------------------------- #


def test_breaker_full_lifecycle():
    clock = FakeClock()
    transitions = []
    breaker = CircuitBreaker(
        failure_threshold=3,
        reset_after_s=2.0,
        clock=clock,
        on_transition=lambda old, new: transitions.append((old, new)),
    )
    assert breaker.state == CLOSED
    assert breaker.allow()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CLOSED  # below threshold
    breaker.record_failure()
    assert breaker.state == OPEN
    assert not breaker.allow()  # fail fast while open
    clock.advance(1.9)
    assert not breaker.allow()
    clock.advance(0.2)  # reset_after_s elapsed
    assert breaker.state == HALF_OPEN
    assert breaker.allow()  # the single probe slot
    assert not breaker.allow()  # everyone else keeps failing fast
    breaker.record_success()
    assert breaker.state == CLOSED
    assert transitions == [(CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED)]


def test_breaker_half_open_admits_exactly_one_probe_under_race():
    """Two callers racing into a half-open breaker must not both probe:
    the single-probe slot is the whole point of half-open (one request
    risks the maybe-dead node, everyone else keeps failing fast)."""
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_after_s=1.0, clock=clock)
    for _ in range(25):  # repeat the race; one lucky interleaving proves nothing
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(1.1)  # past reset_after_s: next allow() goes half-open
        n_threads = 4
        barrier = threading.Barrier(n_threads)
        admitted = []
        lock = threading.Lock()

        def probe():
            barrier.wait()  # release every thread into allow() together
            ok = breaker.allow()
            with lock:
                admitted.append(ok)

        threads = [threading.Thread(target=probe) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
        assert sum(admitted) == 1, f"{sum(admitted)} probes admitted, want exactly 1"
        breaker.record_success()  # close it again for the next round
        assert breaker.state == CLOSED


def test_breaker_failed_probe_reopens():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_after_s=1.0, clock=clock)
    breaker.record_failure()
    assert breaker.state == OPEN
    clock.advance(1.1)
    assert breaker.allow()
    breaker.record_failure()  # probe failed
    assert breaker.state == OPEN
    assert not breaker.allow()
    clock.advance(1.1)
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state == CLOSED


def test_breaker_success_resets_consecutive_count():
    breaker = CircuitBreaker(failure_threshold=2, reset_after_s=1.0, clock=FakeClock())
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state == CLOSED  # never 2 *consecutive*
    assert breaker.snapshot() == {"state": CLOSED, "consecutive_failures": 1}


def test_breaker_validation():
    with pytest.raises(ServeError):
        CircuitBreaker(failure_threshold=0)
    for reset_after_s in (0.0, float("nan"), float("inf")):
        with pytest.raises(ServeError):
            CircuitBreaker(reset_after_s=reset_after_s)


# --------------------------------------------------------------------- #
# Admission queue
# --------------------------------------------------------------------- #


def test_admission_rejects_unservable_deadlines_at_the_door():
    clock = FakeClock()
    q = AdmissionQueue(capacity=4, clock=clock)
    assert q.admit(clock.t - 0.01) is False  # already blown
    assert not q.meets_deadline(clock.t - 0.01)
    assert q.rejected_total == 1 and q.admitted_total == 0 and len(q) == 0
    assert q.admit(clock.t + 1.0) is True


def test_a_full_admission_queue_refuses_every_newcomer():
    clock = FakeClock()
    q = AdmissionQueue(capacity=2, clock=clock)
    assert q.admit(clock.t + 1.0) and q.admit(clock.t + 5.0)
    assert len(q) == 2
    # Full: no newcomer evicts an admitted request, whatever its deadline.
    for budget in (0.5, 3.0, 60.0):
        assert q.admit(clock.t + budget) is False
    assert q.shed_total == 3 and len(q) == 2
    q.release()
    assert q.admit(clock.t + 3.0) is True
    q.release()
    q.release()
    assert len(q) == 0
    assert q.snapshot()["admitted_total"] == 3


def test_admission_overload_resolves_in_bounded_time_under_threads():
    """The overload contract: with the queue saturated, every admit()
    returns promptly (a slot or an explicit refusal) — nothing blocks,
    and no slot is lost or counted twice under a short switch interval."""
    q = AdmissionQueue(capacity=8)
    import sys
    import time as _time

    results = []
    lock = threading.Lock()

    def hammer(i):
        t0 = _time.monotonic()
        admitted = q.admit(_time.time() + 0.5 + (i % 7) * 0.01)
        elapsed = _time.monotonic() - t0
        with lock:
            results.append((admitted, elapsed))

    threads = [threading.Thread(target=hammer, args=(i,)) for i in range(64)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 64
    assert all(elapsed < 1.0 for _, elapsed in results)  # bounded, not queued
    snap = q.snapshot()
    assert snap["in_flight"] == sum(admitted for admitted, _ in results) <= 8  # a hard bound
    assert snap["admitted_total"] + snap["shed_total"] + snap["rejected_total"] == 64


def test_admission_validation():
    for capacity in (0, float("nan")):
        with pytest.raises(ServeError):
            AdmissionQueue(capacity=capacity)


# --------------------------------------------------------------------- #
# Status cache
# --------------------------------------------------------------------- #


def test_cache_fresh_and_stale_reads():
    clock = FakeClock()
    cache = StatusCache(stale_after_s=1.0, clock=clock)
    assert cache.read("d0") is None  # never published
    cache.publish("d0", 0, [{"soc": 0.5}])
    entry = cache.read("d0")
    assert entry["degraded"] is False and entry["stale_s"] == 0.0
    clock.advance(1.5)
    entry = cache.read("d0")
    assert entry["degraded"] is True
    assert entry["stale_s"] == pytest.approx(1.5)
    assert entry["statuses"] == [{"soc": 0.5}]  # the answer shape survives
    snap = cache.snapshot()
    assert snap["fresh_reads"] == 1 and snap["stale_reads"] == 1


def test_cache_unhealthy_shard_degrades_even_fresh_entries():
    clock = FakeClock()
    cache = StatusCache(stale_after_s=10.0, clock=clock)
    cache.publish("d0", 0, [{"soc": 0.5}])
    assert cache.read("d0", shard_healthy=True)["degraded"] is False
    assert cache.read("d0", shard_healthy=False)["degraded"] is True


def test_cache_completed_devices_never_go_stale():
    clock = FakeClock()
    cache = StatusCache(stale_after_s=1.0, clock=clock)
    cache.publish("d0", 0, [{"soc": 0.2}])
    cache.mark_completed("d0", 0, [{"soc": 0.1}])
    clock.advance(100.0)
    entry = cache.read("d0", shard_healthy=False)
    assert entry["completed"] is True
    assert entry["degraded"] is False  # a final state cannot go stale
    assert entry["statuses"] == [{"soc": 0.1}]
    # A straggler live publish racing the completion must not resurrect it.
    cache.publish("d0", 0, [{"soc": 0.9}])
    assert cache.read("d0")["statuses"] == [{"soc": 0.1}]
    assert cache.completed("d0")


def test_cache_mark_completed_falls_back_to_last_live_snapshot():
    cache = StatusCache(clock=FakeClock())
    cache.publish("d0", 0, [{"soc": 0.3}])
    cache.mark_completed("d0", 0, None)
    assert cache.read("d0")["statuses"] == [{"soc": 0.3}]


def test_cache_validation():
    for stale_after_s in (0.0, float("nan"), float("inf")):
        with pytest.raises(ServeError):
            StatusCache(stale_after_s=stale_after_s)
