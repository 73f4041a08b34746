"""Regression tests: dropped-command telemetry, strict ratio lengths,
and charge-profile reselection on charger attach.

Each class pins one historical bug:

* ``tick`` used to return True (and count a ratio update, and report the
  requested ratios as installed) even when every push retry was
  exhausted and the controller kept its previous ratios.
* Both ratio filters used to accept a wrong-length vector — the health
  monitor renormalized whatever it was handed, the protection manager
  zip-truncated it against the guards.
* A charging directive changed while unplugged never reselected charge
  profiles if the charger attached before the ratio interval elapsed.
* ``apply_charge`` (the serving ``SetCharge``) used to pass the DAG's
  discharge gate, which a charging tick skips, so with a tenant
  exhausted it installed another vector than the tick would.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cell import new_cell
from repro.core.health import HealthMonitor
from repro.core.runtime import COMMAND_RETRY_LIMIT, GENTLE_PROFILE_DIRECTIVE, SDBRuntime
from repro.core.vdag import AggregateBattery, BatteryDAG, PhysicalBattery, SplitterBattery, TenantContract
from repro.emulator.devices import build_controller
from repro.errors import RatioError
from repro.hardware import SDBMicrocontroller
from repro.hardware.charge import GENTLE_PROFILE
from repro.obs import Tracer
from repro.protection import ProtectionManager
from repro.protection.envelope import STATE_CUTOFF, STATE_DERATE


def make_runtime(resilient=True, **kwargs):
    mc = SDBMicrocontroller([new_cell("B06", soc=0.8), new_cell("B06", soc=0.8)])
    monitor = HealthMonitor() if resilient else None
    return mc, SDBRuntime(mc, update_interval_s=60.0, health_monitor=monitor, **kwargs)


class TestDroppedCommandTelemetry:
    def test_exhausted_push_is_not_reported_as_an_update(self):
        mc, runtime = make_runtime(resilient=True)
        mc.command_dropout = COMMAND_RETRY_LIMIT + 1
        before = list(mc.discharge_ratios)
        assert runtime.tick(0.0, 2.0) is False
        assert runtime.ratio_updates == 0
        assert mc.discharge_ratios == before  # controller kept its ratios

    def test_dropped_attempt_is_recorded_with_installed_false(self):
        tracer = Tracer()
        mc, runtime = make_runtime(resilient=True, tracer=tracer)
        mc.command_dropout = COMMAND_RETRY_LIMIT + 1
        runtime.tick(0.0, 2.0)
        decisions = tracer.events_named("runtime.ratio_decision")
        assert len(decisions) == 1
        assert decisions[-1].fields["installed"] is False

    def test_dropped_attempt_does_not_update_last_good(self):
        mc, runtime = make_runtime(resilient=True)
        runtime.tick(0.0, 2.0)
        good = runtime._last_good_discharge
        mc.command_dropout = COMMAND_RETRY_LIMIT + 1
        runtime.tick(60.0, 2.0)
        assert runtime._last_good_discharge == good

    def test_installed_tick_still_counts(self):
        tracer = Tracer()
        mc, runtime = make_runtime(resilient=True, tracer=tracer)
        assert runtime.tick(0.0, 2.0) is True
        assert runtime.ratio_updates == 1
        decisions = tracer.events_named("runtime.ratio_decision")
        assert decisions[-1].fields["installed"] is True

    def test_dropped_update_counter_traced(self):
        from repro.obs.tracer import Tracer

        mc, runtime = make_runtime(resilient=True)
        runtime.tracer = Tracer()
        mc.command_dropout = COMMAND_RETRY_LIMIT + 1
        runtime.tick(0.0, 2.0)
        assert runtime.tracer.counters["runtime.dropped_updates"] == 1
        assert runtime.tracer.counters["runtime.ratio_updates"] == 0


class TestStrictRatioLengths:
    def test_health_filter_rejects_wrong_length(self):
        monitor = HealthMonitor()
        with pytest.raises(RatioError):
            monitor.filter_ratios([0.5, 0.3, 0.2], n=2)
        with pytest.raises(RatioError):
            monitor.filter_ratios([1.0], n=2)

    def test_health_filter_without_n_stays_lenient(self):
        # Callers that cannot know the pack size keep the old behavior.
        assert HealthMonitor().filter_ratios([0.5, 0.5]) == [0.5, 0.5]

    def test_protection_filter_rejects_wrong_length_in_both_modes(self):
        mc = SDBMicrocontroller([new_cell("B06", soc=0.8), new_cell("B06", soc=0.8)])
        for mode in ("monitor", "enforce"):
            manager = ProtectionManager(mc, mode=mode)
            with pytest.raises(RatioError):
                manager.filter_ratios([1.0])
            with pytest.raises(RatioError):
                manager.filter_ratios([0.2, 0.3, 0.5])

    def test_runtime_passes_pack_size_to_health_filter(self):
        class ShortVectorPolicy:
            def name(self):
                return "short"

            def discharge_ratios(self, cells, load_w, t=0.0):
                return [1.0]  # one entry for a two-battery pack

        mc = SDBMicrocontroller([new_cell("B06", soc=0.8), new_cell("B06", soc=0.8)])
        runtime = SDBRuntime(
            mc,
            discharge_policy=ShortVectorPolicy(),
            health_monitor=HealthMonitor(),
            update_interval_s=60.0,
        )
        with pytest.raises(RatioError):
            runtime.tick(0.0, 2.0)


class TestProfileReselectOnAttach:
    def test_directive_change_while_unplugged_reselects_on_attach(self):
        mc, runtime = make_runtime(resilient=False, manage_profiles=True)
        runtime.tick(0.0, 2.0, external_w=5.0)  # selects for the 0.5 default
        standard = list(mc.profiles)
        # Unplugged directive change, then the charger attaches well
        # before the 60 s ratio interval elapses.
        runtime.charge_policy.set_directive(GENTLE_PROFILE_DIRECTIVE)
        assert runtime.tick(30.0, 2.0, external_w=5.0) is False  # interval not elapsed
        assert mc.profiles == [GENTLE_PROFILE] * mc.n
        assert mc.profiles != standard

    def test_no_reselect_while_unplugged(self):
        mc, runtime = make_runtime(resilient=False, manage_profiles=True)
        runtime.tick(0.0, 2.0, external_w=5.0)
        before = list(mc.profiles)
        runtime.charge_policy.set_directive(GENTLE_PROFILE_DIRECTIVE)
        runtime.tick(30.0, 2.0, external_w=0.0)  # still unplugged
        assert mc.profiles == before

    def test_unchanged_directive_does_not_rerun_selection(self):
        mc, runtime = make_runtime(resilient=False, manage_profiles=True)
        runtime.tick(0.0, 2.0, external_w=5.0)
        sentinel = object()
        runtime._select_profiles = lambda: (_ for _ in ()).throw(AssertionError(sentinel))
        runtime.tick(30.0, 2.0, external_w=5.0)  # same directive: no reselect


class TestOnlyDischargeIsGated:
    class FixedCharge:
        def name(self):
            return "fixed"

        def charge_ratios(self, cells, external_w, t=0.0):
            return [0.3, 0.7]

    def make_runtime(self):
        """A tablet whose cell 1 sits under a splitter with its one tenant exhausted."""
        mc = build_controller("tablet")
        splitter = SplitterBattery(
            "solo",
            PhysicalBattery("cell1", 1),
            (TenantContract("t", reserved_fraction=0.5, claimed_w=1.0),),
        )
        dag = BatteryDAG(AggregateBattery("pack", [PhysicalBattery("cell0", 0), splitter]), 2)
        runtime = SDBRuntime(mc, charge_policy=self.FixedCharge(), update_interval_s=60.0, dag=dag)
        dag.node("t").exhausted = True
        return mc, runtime

    def test_set_charge_installs_what_a_charging_tick_installs(self):
        mc, runtime = self.make_runtime()
        assert runtime.apply_charge([0.3, 0.7])
        by_call = list(mc.charge_ratios)
        mc, runtime = self.make_runtime()
        assert runtime.tick(0.0, 2.0, external_w=10.0)
        assert by_call == mc.charge_ratios == pytest.approx([0.3, 0.7])

    def test_set_discharge_still_sheds_the_exhausted_branch(self):
        mc, runtime = self.make_runtime()
        assert runtime.apply_discharge([0.5, 0.5])
        assert mc.discharge_ratios == pytest.approx([1.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(
    ratios=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=6),
    quarantined=st.sets(st.integers(min_value=0, max_value=5)),
    derated=st.sets(st.integers(min_value=0, max_value=5)),
    cutoff=st.sets(st.integers(min_value=0, max_value=5)),
)
def test_health_then_protection_chain_preserves_shape(ratios, quarantined, derated, cutoff):
    """The runtime's filter chain never changes the vector's length, and
    the result either sums to 1 or is the unchanged input (the hardware
    floor pass-through when everything is suspect or the input sums to
    zero)."""
    n = len(ratios)
    total = sum(ratios)
    if total > 0:
        ratios = [r / total for r in ratios]

    monitor = HealthMonitor()
    monitor.quarantined = {i for i in quarantined if i < n}
    mc = SDBMicrocontroller([new_cell("B06", soc=0.8) for _ in range(n)])
    manager = ProtectionManager(mc, mode="enforce")
    for i in derated:
        if i < n:
            manager.guards[i].state = STATE_DERATE
    for i in cutoff:
        if i < n:
            manager.guards[i].state = STATE_CUTOFF

    out = manager.filter_ratios(monitor.filter_ratios(ratios, n=n))
    assert len(out) == n
    assert all(r >= 0.0 for r in out)
    assert sum(out) == pytest.approx(1.0, abs=1e-9) or out == ratios
