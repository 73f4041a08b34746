"""Tests for repro.core.api and repro.core.runtime."""

import pytest

from repro.cell import new_cell
from repro.core import SDBApi, SDBRuntime
from repro.core.policies import (
    BlendedDischargePolicy,
    RBLChargePolicy,
    RBLDischargePolicy,
    SingleBatteryDischargePolicy,
)
from repro.errors import PolicyError, RatioError
from repro.hardware import SDBMicrocontroller


def make_controller(soc=0.8):
    return SDBMicrocontroller([new_cell("B06", soc=soc), new_cell("B03", soc=soc)])


class TestSDBApi:
    def test_discharge_sets_ratios(self):
        mc = make_controller()
        api = SDBApi(mc)
        api.Discharge(0.3, 0.7)
        assert mc.discharge_ratios == [0.3, 0.7]

    def test_charge_sets_ratios(self):
        mc = make_controller()
        api = SDBApi(mc)
        api.Charge(0.9, 0.1)
        assert mc.charge_ratios == [0.9, 0.1]

    def test_invalid_ratios_rejected(self):
        api = SDBApi(make_controller())
        with pytest.raises(RatioError):
            api.Discharge(0.3, 0.3)

    def test_query_battery_status(self):
        api = SDBApi(make_controller())
        statuses = api.QueryBatteryStatus()
        assert len(statuses) == 2
        assert all(0 <= s.soc <= 1 for s in statuses)

    def test_charge_one_from_another_moves_energy(self):
        mc = make_controller(soc=0.6)
        api = SDBApi(mc)
        reports = api.ChargeOneFromAnother(0, 1, 2.0, 30.0)
        assert len(reports) == 30
        assert mc.cells[0].soc < 0.6
        assert mc.cells[1].soc > 0.6

    def test_charge_one_from_another_stops_when_dest_full(self):
        mc = make_controller(soc=0.6)
        mc.cells[1].reset(1.0)
        api = SDBApi(mc)
        reports = api.ChargeOneFromAnother(0, 1, 2.0, 30.0)
        assert len(reports) == 1  # first step reports nothing moved, stop
        assert mc.cells[0].soc == pytest.approx(0.6)

    def test_charge_one_from_another_validates(self):
        api = SDBApi(make_controller())
        with pytest.raises(ValueError):
            api.ChargeOneFromAnother(0, 1, 1.0, 0.0)
        with pytest.raises(ValueError):
            api.ChargeOneFromAnother(0, 1, -1.0, 10.0)

    def test_pep8_aliases(self):
        api = SDBApi(make_controller())
        api.discharge(0.5, 0.5)
        api.charge(0.5, 0.5)
        assert api.query_battery_status()

    def test_rejects_bad_transfer_step(self):
        with pytest.raises(ValueError):
            SDBApi(make_controller(), transfer_step_s=0.0)


class TestSDBRuntime:
    def test_tick_pushes_ratios(self):
        mc = make_controller()
        rt = SDBRuntime(mc, discharge_policy=RBLDischargePolicy())
        assert rt.tick(0.0, 2.0)
        assert mc.discharge_ratios != [0.5, 0.5]

    def test_tick_respects_interval(self):
        rt = SDBRuntime(make_controller(), update_interval_s=60.0)
        assert rt.tick(0.0, 2.0)
        assert not rt.tick(30.0, 2.0)
        assert rt.tick(61.0, 2.0)
        assert rt.ratio_updates == 2

    def test_charge_ratios_only_with_external_power(self):
        mc = make_controller(soc=0.4)
        rt = SDBRuntime(mc, charge_policy=RBLChargePolicy())
        rt.tick(0.0, 1.0, external_w=0.0)
        assert mc.charge_ratios == [0.5, 0.5]  # untouched default
        rt.force_update()
        rt.tick(1.0, 1.0, external_w=10.0)
        assert mc.charge_ratios != [0.5, 0.5]

    def test_directive_forwarding(self):
        rt = SDBRuntime(make_controller(), discharge_policy=BlendedDischargePolicy(0.2))
        rt.set_discharge_directive(0.9)
        assert rt.discharge_policy.directive == 0.9

    def test_directive_on_non_blended_policy_raises(self):
        rt = SDBRuntime(make_controller(), discharge_policy=SingleBatteryDischargePolicy(0))
        with pytest.raises(PolicyError):
            rt.set_discharge_directive(0.5)

    def test_policy_swap_forces_update(self):
        mc = make_controller()
        rt = SDBRuntime(mc)
        rt.tick(0.0, 2.0)
        rt.set_discharge_policy(SingleBatteryDischargePolicy(1))
        assert rt.tick(1.0, 2.0)  # would be within interval, but forced
        assert mc.discharge_ratios == [0.0, 1.0]

    def test_query_status_passthrough(self):
        rt = SDBRuntime(make_controller())
        assert len(rt.query_status()) == 2

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            SDBRuntime(make_controller(), update_interval_s=0.0)


class TestManagedProfiles:
    def _runtime(self, directive):
        from repro.core.policies import BlendedChargePolicy

        mc = SDBMicrocontroller([new_cell("B09", soc=0.3), new_cell("B14", soc=0.3)])
        rt = SDBRuntime(
            mc,
            charge_policy=BlendedChargePolicy(directive),
            manage_profiles=True,
        )
        rt.tick(0.0, 1.0, external_w=20.0)
        return mc

    def test_urgent_directive_selects_fast_on_capable_cell(self):
        mc = self._runtime(1.0)
        assert mc.profiles[1].name == "fast"  # B14 accepts 4C
        assert mc.profiles[0].name == "standard"  # B09 caps at 1C

    def test_relaxed_directive_selects_gentle_everywhere(self):
        mc = self._runtime(0.1)
        assert all(p.name == "gentle" for p in mc.profiles)

    def test_middle_directive_selects_standard(self):
        mc = self._runtime(0.5)
        assert all(p.name == "standard" for p in mc.profiles)

    def test_profiles_untouched_without_flag(self):
        from repro.core.policies import BlendedChargePolicy

        mc = SDBMicrocontroller([new_cell("B09", soc=0.3), new_cell("B14", soc=0.3)])
        rt = SDBRuntime(mc, charge_policy=BlendedChargePolicy(1.0))
        rt.tick(0.0, 1.0, external_w=20.0)
        assert all(p.name == "standard" for p in mc.profiles)

    def test_non_blended_policy_is_noop(self):
        from repro.core.policies import RBLChargePolicy

        mc = SDBMicrocontroller([new_cell("B09", soc=0.3), new_cell("B14", soc=0.3)])
        rt = SDBRuntime(mc, charge_policy=RBLChargePolicy(), manage_profiles=True)
        rt.tick(0.0, 1.0, external_w=20.0)
        assert all(p.name == "standard" for p in mc.profiles)


class TestTelemetry:
    def test_history_records_decisions(self):
        from repro.obs import Tracer

        mc = make_controller()
        tracer = Tracer()
        rt = SDBRuntime(mc, update_interval_s=60.0, tracer=tracer)
        rt.tick(0.0, 2.0)
        rt.tick(30.0, 2.5)  # inside the interval: no decision
        rt.tick(61.0, 3.0, external_w=5.0)
        decisions = tracer.events_named("runtime.ratio_decision")
        assert [d.t_s for d in decisions] == [0.0, 61.0]
        first, second = (d.fields for d in decisions)
        assert set(first) == {
            "discharge_ratios", "charge_ratios", "load_w", "external_w", "degraded", "installed",
        }
        assert first["load_w"] == 2.0 and first["external_w"] == 0.0
        assert first["charge_ratios"] is None
        assert first["degraded"] is False and first["installed"] is True
        assert second["charge_ratios"] == list(mc.charge_ratios)
        assert second["discharge_ratios"] == list(mc.discharge_ratios)
        assert sum(second["discharge_ratios"]) == pytest.approx(1.0)
