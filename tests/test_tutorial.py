"""docs/tutorial.md executed as a test — the walkthrough must stay true."""

import pytest

from repro.cell import new_cell
from repro.chemistry import (
    BatteryDescriptor,
    ChemistryType,
    register_battery,
    unregister_battery,
)
from repro.core import SDBRuntime
from repro.core.policies import BlendedChargePolicy, BlendedDischargePolicy
from repro.core.scheduler import AssistantScheduler, CalendarEvent, EventKind
from repro.core.sizing import DesignRequirements, enumerate_designs
from repro.core.warranty import Warranty, max_charge_c_for_warranty
from repro.emulator import SDBEmulator
from repro.hardware import SDBMicrocontroller
from repro.hardware.charge import FAST_PROFILE, STANDARD_PROFILE
from repro.obs import Tracer
from repro.workloads.generators import random_app_trace


class TestTutorialWalkthrough:
    def test_step1_designer_finds_mixes(self):
        req = DesignRequirements(
            volume_ml=25.0, min_energy_wh=13.0, min_peak_power_w=45.0, max_minutes_to_40pct=12.0
        )
        designs = enumerate_designs(req)
        assert designs
        # The winning designs mix chemistries (the Fig 11 structure).
        top = designs[0]
        assert len({p.battery_id for p in top.partitions}) == 2

    def test_steps2_to_7_end_to_end(self):
        register_battery(
            BatteryDescriptor(
                battery_id="GX1",
                label="semi-solid prototype",
                chemistry=ChemistryType.TYPE_3_LCO_HIGH_POWER,
                capacity_mah=3200.0,
                r_scale=0.85,
                max_charge_c=3.0,
            )
        )
        try:
            assert new_cell("GX1").resistance() > 0

            controller = SDBMicrocontroller(
                [new_cell("B09"), new_cell("B14")],
                profiles=[STANDARD_PROFILE, FAST_PROFILE],
            )
            runtime = SDBRuntime(
                controller,
                discharge_policy=BlendedDischargePolicy(directive=0.5),
                charge_policy=BlendedChargePolicy(directive=0.5),
                manage_profiles=True,
            )
            scheduler = AssistantScheduler(
                [
                    CalendarEvent("commute gaming", EventKind.GAMING, 8.0, 9.0, expected_power_w=22.0),
                    CalendarEvent("flight", EventKind.DEPARTURE, 17.0, 19.0),
                ]
            )
            scheduler.apply(runtime, t_s=15.5 * 3600)
            assert runtime.charge_policy.directive == 1.0  # flight imminent

            trace = random_app_trace(2 * 3600.0, idle_w=2.0, active_w=9.0, burst_w=28.0, seed=4)
            tracer = Tracer()
            result = SDBEmulator(controller, runtime, trace, dt_s=20.0, tracer=tracer).run()
            assert "delivered" in result.summary()
            assert tracer.events_named("runtime.ratio_decision")  # decisions were recorded

            safe_c = max_charge_c_for_warranty(
                controller.cells[1].params.aging, Warranty(cycles=800, min_retention=0.80)
            )
            assert safe_c >= 3.0  # the fast cell's warranty envelope is wide
        finally:
            unregister_battery("GX1")
