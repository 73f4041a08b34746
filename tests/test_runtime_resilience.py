"""SDBRuntime resilience: degradation, command retries, incident merging."""

import pytest

from repro.cell import new_cell
from repro.core.health import HealthMonitor
from repro.core.runtime import COMMAND_RETRY_LIMIT, SDBRuntime
from repro.errors import PolicyError, RatioError
from repro.hardware import SDBMicrocontroller
from repro.obs import Tracer


class FlakyDischargePolicy:
    """Fails on request, otherwise splits evenly."""

    def __init__(self):
        self.fail = False

    def name(self):
        return "flaky"

    def discharge_ratios(self, cells, load_w, t=0.0):
        if self.fail:
            raise PolicyError("flaky policy refused to decide")
        return [1.0 / len(cells)] * len(cells)


class SkewedDischargePolicy:
    def name(self):
        return "skewed"

    def discharge_ratios(self, cells, load_w, t=0.0):
        return [0.75, 0.25]


def make_runtime(resilient=True, policy=None, interval=60.0, tracer=None):
    mc = SDBMicrocontroller([new_cell("B06", soc=0.8), new_cell("B06", soc=0.8)])
    monitor = HealthMonitor() if resilient else None
    runtime = SDBRuntime(
        mc,
        discharge_policy=policy,
        update_interval_s=interval,
        health_monitor=monitor,
        tracer=tracer,
    )
    return mc, runtime


class TestPolicyDegradation:
    def test_strict_runtime_propagates_policy_errors(self):
        policy = FlakyDischargePolicy()
        policy.fail = True
        _, runtime = make_runtime(resilient=False, policy=policy)
        with pytest.raises(PolicyError):
            runtime.tick(0.0, 2.0)

    def test_resilient_runtime_degrades_to_last_good(self):
        policy = SkewedDischargePolicy()
        tracer = Tracer()
        mc, runtime = make_runtime(resilient=True, policy=policy, tracer=tracer)
        runtime.tick(0.0, 2.0)
        assert mc.discharge_ratios == pytest.approx([0.75, 0.25])

        runtime.discharge_policy = FlakyDischargePolicy()
        runtime.discharge_policy.fail = True
        assert runtime.tick(60.0, 2.0)  # does not raise
        assert mc.discharge_ratios == pytest.approx([0.75, 0.25])  # last-good held
        assert runtime.degraded_ticks == 1
        decisions = tracer.events_named("runtime.ratio_decision")
        assert [d.fields["degraded"] for d in decisions] == [False, True]
        assert any(i.kind == "policy-degraded" for i in runtime.incidents)

    def test_degradation_with_no_last_good_falls_back_to_equal_split(self):
        policy = FlakyDischargePolicy()
        policy.fail = True
        mc, runtime = make_runtime(resilient=True, policy=policy)
        runtime.tick(0.0, 2.0)
        assert mc.discharge_ratios == pytest.approx([0.5, 0.5])

    def test_quarantine_reshapes_pushed_ratios(self):
        mc, runtime = make_runtime(resilient=True, policy=SkewedDischargePolicy())
        runtime.health.quarantined.add(0)
        runtime.tick(0.0, 2.0)
        assert mc.discharge_ratios == pytest.approx([0.0, 1.0])


class TestCommandRetry:
    def test_transient_loss_absorbed_by_retry(self):
        mc, runtime = make_runtime(resilient=False)
        mc.command_dropout = COMMAND_RETRY_LIMIT  # every retry budget consumed, last attempt lands
        runtime.tick(0.0, 2.0)
        assert mc.command_dropout == 0
        assert sum(mc.discharge_ratios) == pytest.approx(1.0)

    def test_exhaustion_raises_in_strict_mode(self):
        from repro.errors import HardwareError

        mc, runtime = make_runtime(resilient=False)
        mc.command_dropout = COMMAND_RETRY_LIMIT + 1
        with pytest.raises(HardwareError):
            runtime.tick(0.0, 2.0)

    def test_exhaustion_logs_incident_in_resilient_mode(self):
        mc, runtime = make_runtime(resilient=True)
        mc.command_dropout = COMMAND_RETRY_LIMIT + 1
        runtime.tick(0.0, 2.0)  # does not raise
        assert any(i.kind == "command-dropped" for i in runtime.incidents)

    def test_late_success_logs_a_retry_incident(self):
        mc, runtime = make_runtime(resilient=True)
        mc.command_dropout = 1
        runtime.tick(0.0, 2.0)
        assert any(i.kind == "command-retried" for i in runtime.incidents)

    def test_ratio_errors_are_never_retried(self):
        class BadVectorPolicy:
            def name(self):
                return "bad"

            def discharge_ratios(self, cells, load_w, t=0.0):
                return [0.9, 0.9]  # does not sum to 1

        _, runtime = make_runtime(resilient=True, policy=BadVectorPolicy())
        with pytest.raises(RatioError):
            runtime.tick(0.0, 2.0)


class TestTelemetryAndMerging:
    def test_all_incidents_merges_monitor_and_runtime_chronologically(self):
        from repro.core.health import Incident

        _, runtime = make_runtime(resilient=True)
        runtime.incidents.append(Incident(30.0, "command-retried"))
        runtime.health.incidents.append(Incident(10.0, "quarantine", 0))
        merged = runtime.all_incidents()
        assert [i.t for i in merged] == [10.0, 30.0]

    def test_strict_runtime_is_not_resilient(self):
        _, strict = make_runtime(resilient=False)
        _, resilient = make_runtime(resilient=True)
        assert not strict.resilient
        assert resilient.resilient
