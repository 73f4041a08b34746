"""End-to-end multi-tenant DAG runs: engines, budgets, checkpoints."""

import json

import pytest

from repro.checkpoint import read_checkpoint
from repro.checkpoint.format import payload_checksum
from repro.core.runtime import SDBRuntime
from repro.core.vdag import BatteryDAG
from repro.emulator.devices import build_controller
from repro.emulator.emulator import SDBEmulator
from repro.errors import CheckpointError
from repro.obs.scenarios import (
    TENANT_MISBEHAVE_S,
    build_scenario,
    tenant_demands,
)
from repro.obs.tracer import Tracer
from repro.workloads.generators import two_in_one_workload_trace

DT = 10.0


def run_tenant_scenario(engine="reference", tracer=None, **kwargs):
    emulator = build_scenario("tenants-tablet", engine=engine, dt_s=DT, tracer=tracer, **kwargs)
    return emulator, emulator.run()


class TestTenantScenario:
    def test_misbehaving_tenant_is_throttled_and_traced(self):
        tracer = Tracer()
        emulator, result = run_tenant_scenario(tracer=tracer)
        dag = emulator.runtime.dag
        sync = dag.node("sync")
        assert sync.throttled and sync.exhausted
        assert not dag.node("ui").throttled
        kinds = {i.kind for i in dag.incidents}
        assert {"tenant-throttle", "tenant-exhausted"} <= kinds
        assert tracer.counters["vdag.throttles"] >= 1
        assert tracer.counters["vdag.exhausteds"] >= 1
        assert any(r.name == "vdag.throttle" for r in tracer.records)

    def test_budgets_are_enforced(self):
        emulator, result = run_tenant_scenario()
        dag = emulator.runtime.dag
        for tenant in dag.splitters[0].tenants:
            assert tenant.consumed_j <= tenant.reserved_j + 1e-6
        # The shed demand shows up as less energy delivered than demanded.
        demanded = sum(sum(tenant_demands(t).values()) * DT for t in result.times_s)
        assert result.delivered_j < demanded

    def test_admitted_load_drops_when_the_rogue_tenant_is_cut(self):
        _, result = run_tenant_scenario()
        by_time = dict(zip(result.times_s, result.load_w))
        assert by_time[0.0] == pytest.approx(sum(tenant_demands(0.0).values()))
        # After exhaustion only the ui tenant's demand is served.
        assert result.load_w[-1] == pytest.approx(tenant_demands(result.times_s[-1])["ui"])

    def test_runtime_incidents_merge_tenant_incidents(self):
        emulator, _ = run_tenant_scenario()
        kinds = {i.kind for i in emulator.runtime.all_incidents()}
        assert "tenant-throttle" in kinds

    def test_engines_agree_exactly(self):
        _, reference = run_tenant_scenario(engine="reference")
        _, vectorized = run_tenant_scenario(engine="vectorized")
        assert vectorized.times_s == reference.times_s
        assert vectorized.load_w == reference.load_w
        assert vectorized.soc_history == reference.soc_history
        assert vectorized.delivered_j == reference.delivered_j
        assert vectorized.battery_heat_j == reference.battery_heat_j

    def test_misbehavior_starts_on_schedule(self):
        _, result = run_tenant_scenario()
        by_time = dict(zip(result.times_s, result.load_w))
        before = sum(tenant_demands(0.0).values())
        assert by_time[TENANT_MISBEHAVE_S - DT] == pytest.approx(before)
        assert by_time[TENANT_MISBEHAVE_S] > before  # over-draw admitted pre-throttle


class TestTrivialDagIdentity:
    def test_one_level_dag_is_bit_identical_to_no_dag(self):
        def run(dag):
            controller = build_controller("tablet")
            runtime = SDBRuntime(controller, dag=dag)
            trace = two_in_one_workload_trace(
                mean_power_w=9.0, duration_s=6 * 3600.0, segment_s=300.0
            )
            return SDBEmulator(controller, runtime, trace, dt_s=DT).run()

        bare = run(None)
        trivial = run(BatteryDAG.trivial(2))
        assert trivial.times_s == bare.times_s
        assert trivial.soc_history == bare.soc_history
        assert trivial.delivered_j == bare.delivered_j
        assert trivial.battery_heat_j == bare.battery_heat_j
        assert trivial.depletion_s == bare.depletion_s


class TestCheckpointThroughDag:
    def test_resume_bit_identical(self, tmp_path):
        _, clean = run_tenant_scenario()

        ckpt = str(tmp_path / "tenants.ckpt.json")
        recorder = build_scenario("tenants-tablet", dt_s=DT)
        recorder.checkpoint_path = ckpt
        recorder.checkpoint_every_s = 2 * 3600.0
        with_ckpt = recorder.run()
        assert with_ckpt.load_w == clean.load_w  # checkpointing must not perturb

        resumer = build_scenario("tenants-tablet", dt_s=DT)
        resumed = resumer.run(resume_from=ckpt)
        assert resumed.times_s == clean.times_s
        assert resumed.load_w == clean.load_w
        assert resumed.soc_history == clean.soc_history
        assert resumed.delivered_j == clean.delivered_j
        dag = resumer.runtime.dag
        assert dag.node("sync").throttled and dag.node("sync").exhausted

    def test_checkpoint_carries_vdag_state_as_v3(self, tmp_path):
        ckpt = str(tmp_path / "tenants.ckpt.json")
        recorder = build_scenario("tenants-tablet", dt_s=DT)
        recorder.checkpoint_path = ckpt
        recorder.checkpoint_every_s = 2 * 3600.0
        recorder.run()
        envelope = json.loads(open(ckpt).read())
        assert envelope["format"] == "repro.ckpt/v3"
        payload = envelope["payload"]
        tenants = payload["runtime"]["vdag"]["splitters"]["contracts"]["tenants"]
        assert set(tenants) == {"ui", "sync"}
        assert tenants["sync"]["consumed_j"] > 0.0

    def test_v2_tagged_file_is_refused(self, tmp_path):
        # A pre-DAG checkpoint (no vdag key, v2 tag) is refused by its tag.
        ckpt = tmp_path / "old.ckpt.json"
        recorder = build_scenario("tablet-day", dt_s=60.0)
        recorder.checkpoint_path = str(ckpt)
        recorder.checkpoint_every_s = 3600.0
        recorder.run()
        envelope = json.loads(ckpt.read_text())
        payload = envelope["payload"]
        payload["runtime"].pop("vdag", None)
        payload["runtime"].pop("last_profile_directive", None)
        downgraded = {
            "format": "repro.ckpt/v2",
            "checksum": payload_checksum(payload),
            "payload": payload,
        }
        ckpt.write_text(json.dumps(downgraded))
        with pytest.raises(CheckpointError, match="repro.ckpt/v2"):
            read_checkpoint(str(ckpt))

    def test_dag_shape_is_pinned_by_the_config_digest(self, tmp_path):
        ckpt = str(tmp_path / "tenants.ckpt.json")
        recorder = build_scenario("tenants-tablet", dt_s=DT)
        recorder.checkpoint_path = ckpt
        recorder.checkpoint_every_s = 2 * 3600.0
        recorder.run()
        # A DAG-less emulator must refuse a DAG checkpoint outright.
        other = build_scenario("tablet-day", dt_s=DT)
        with pytest.raises(CheckpointError):
            other.run(resume_from=ckpt)
