"""Batched sweeps: planner, run-axis bit-identity, and the sweep CLI.

The contract under test is the one ``docs/performance.md`` documents for
the run-axis kernel: a batched sweep is an *execution strategy*, not an
approximation — every run's result and final object state must be
bit-identical to executing that run alone, whether the run stayed in the
batch, was demoted mid-flight, was rejected at prepare, or was never
batch-eligible (faults, protection, unbatchable policies, the reference
engine).
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.health import HealthMonitor
from repro.core.policies.baselines import EvenSplitDischargePolicy
from repro.core.runtime import SDBRuntime
from repro.emulator.devices import build_controller
from repro.emulator.emulator import SDBEmulator
from repro.emulator.engine import PackParams
from repro.errors import SweepError
from repro.experiments.sweep import (
    SWEEP_POLICIES,
    BatchedSweep,
    SweepSpec,
    build_run_emulator,
    execute_runs,
    parse_axis,
    run_sweep,
)
from repro.faults import FaultSchedule, GaugeStuckFault
from repro.fleet.spec import FLEET_SCENARIOS
from repro.protection import ProtectionManager


def result_fingerprint(result):
    """Every numeric field of a result, for exact == comparison."""
    return (
        result.delivered_j,
        result.battery_heat_j,
        result.circuit_loss_j,
        result.end_s,
        result.depletion_s,
        result.completed,
        tuple(result.battery_depletion_s),
        tuple(result.times_s),
        tuple(result.load_w),
        tuple(result.loss_w),
        tuple(tuple(row) for row in result.soc_history),
    )


def state_fingerprint(em):
    """Final object state of an emulator after a run, for exact ==."""
    return (
        tuple(
            (cell.soc, cell.v_rc, cell.aging.state.fade, cell.aging.state.throughput_c)
            for cell in em.controller.cells
        ),
        tuple(
            (g.estimated_soc, g.last_voltage, g.total_discharged_c, g.total_heat_j)
            for g in em.controller.gauges
        ),
        tuple(em.controller.discharge_ratios),
        em.runtime.ratio_updates,
        em.runtime._last_update_t,
    )


class TestSweepSpec:
    def test_grid_size_and_roster_determinism(self):
        spec = SweepSpec(
            scenarios=("tablet-day", "watch-day"),
            policies=("even-split", "proportional"),
            n_seeds=3,
            seed=7,
        )
        assert spec.n_runs == 12
        roster = spec.runs()
        assert [r.index for r in roster] == list(range(12))
        assert roster[0].run_id == "tablet-day+even-split+r000"
        # Same spec -> same seeds; different sweep seed -> different seeds.
        assert [r.seed for r in spec.runs()] == [r.seed for r in roster]
        other = SweepSpec(
            scenarios=spec.scenarios, policies=spec.policies, n_seeds=3, seed=8
        )
        assert [r.seed for r in other.runs()] != [r.seed for r in roster]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scenarios": ()},
            {"policies": ()},
            {"scenarios": ("moon-day",)},
            {"policies": ("warp",)},
            {"n_seeds": 0},
            {"duration_s": 0.0},
            {"dt_s": -1.0},
            {"engine": "warp"},
            {"protection": "maybe"},
            {"socs": (1.5, 0.5)},
            {"duration_s": float("inf")},
            {"duration_s": float("nan")},
            {"dt_s": float("inf")},
            {"dt_s": float("nan")},
        ],
    )
    def test_bad_specs_raise_sweep_error(self, kwargs):
        base = dict(scenarios=("tablet-day",), policies=("even-split",))
        with pytest.raises(SweepError):
            SweepSpec(**{**base, **kwargs})

    def test_parse_axis(self):
        assert parse_axis("even-split, proportional", "policy") == (
            "even-split",
            "proportional",
        )
        with pytest.raises(SweepError):
            parse_axis("even-split,,proportional", "policy")

    def test_policy_registry_builds_fresh_instances(self):
        for name, factory in SWEEP_POLICIES.items():
            assert factory() is not factory(), name


@given(
    scenarios=st.lists(
        st.sampled_from(sorted(FLEET_SCENARIOS)), min_size=1, max_size=2, unique=True
    ),
    policies=st.lists(
        st.sampled_from(["even-split", "proportional", "single"]),
        min_size=1,
        max_size=2,
        unique=True,
    ),
    n_seeds=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=1000),
    engine=st.sampled_from(["reference", "vectorized"]),
)
@settings(max_examples=8, deadline=None)
def test_sweep_is_bit_identical_to_single_runs(scenarios, policies, n_seeds, seed, engine):
    """Property: every grid point equals its independently-executed twin."""
    spec = SweepSpec(
        scenarios=tuple(scenarios),
        policies=tuple(policies),
        n_seeds=n_seeds,
        seed=seed,
        duration_s=900.0,
        dt_s=5.0,
        engine=engine,
    )
    roster, emulators = BatchedSweep(spec).plan()
    results, modes = execute_runs(emulators, keep_series=True)
    if engine == "reference":
        assert set(modes) == {"fallback"}
    for run, em, result, mode in zip(roster, emulators, results, modes):
        solo = build_run_emulator(spec, run)
        solo_result = solo.run()
        assert result_fingerprint(result) == result_fingerprint(solo_result), (
            run.run_id,
            mode,
        )
        assert state_fingerprint(em) == state_fingerprint(solo), (run.run_id, mode)


def test_demoted_runs_are_bit_identical():
    """A grid that depletes mid-run exercises the demotion path."""
    spec = SweepSpec(
        scenarios=("tablet-day",),
        policies=("even-split", "proportional"),
        n_seeds=2,
        duration_s=3600.0,
        dt_s=1.0,
        socs=(0.08, 0.08),
    )
    roster, emulators = BatchedSweep(spec).plan()
    results, modes = execute_runs(emulators, keep_series=True)
    assert "demoted" in modes
    for run, em, result, mode in zip(roster, emulators, results, modes):
        solo = build_run_emulator(spec, run)
        solo_result = solo.run()
        assert not solo_result.completed
        assert result_fingerprint(result) == result_fingerprint(solo_result), (
            run.run_id,
            mode,
        )
        assert state_fingerprint(em) == state_fingerprint(solo), (run.run_id, mode)


def test_stacked_solve_matches_each_run_alone(monkeypatch):
    """One shared chunk solve over two stacked runs gives each run its solo bits.

    The runs differ in SoC, split and load. Run 0 is warm-started at its
    own converged currents and run 1 from zero, so their fixed points stop
    after different numbers of passes while the stack keeps iterating.
    """
    dt, k = 1.0, 60
    pack_socs = ([0.9, 0.85], [0.4, 0.3])
    ratios = (np.array([0.5, 0.5]), np.array([0.7, 0.3]))
    gross = (np.full((1, k), 6.0), np.repeat([[9.0, 15.0]], k // 2, axis=1))
    lookups = []
    original_lookup = PackParams.lookup

    def counting_lookup(self, soc):
        lookups.append(1)
        return original_lookup(self, soc)

    monkeypatch.setattr(PackParams, "lookup", counting_lookup)

    def solve(runs, warm):
        """Solve the stacked ``runs``; return the chunk and its fixed-point pass count."""
        controllers = [build_controller("tablet", socs=pack_socs[r]) for r in runs]
        cells = [cell for mc in controllers for cell in mc.cells]
        pack = PackParams(
            cells,
            [gauge for mc in controllers for gauge in mc.gauges],
            dt,
            runs=[i for i, mc in enumerate(controllers) for _ in mc.cells],
        )
        lookups.clear()
        chunk = pack.solve(
            np.concatenate([ratios[r] for r in runs]),
            np.concatenate([gross[r] for r in runs]),
            np.array([c.soc for c in cells]),
            np.array([c.v_rc for c in cells]),
            np.array([c.aging.state.fade for c in cells]),
            warm,
            np.zeros(len(runs), dtype=bool),
        )
        return chunk, len(lookups) - 1  # the consistency pass looks up once more

    converged, _ = solve([0], None)
    warm = (converged.current[:, -1], np.zeros(2))
    alone = [solve([r], warm[r]) for r in (0, 1)]
    stacked, stacked_passes = solve([0, 1], np.concatenate(warm))
    assert alone[0][1] < alone[1][1] == stacked_passes
    for r, (chunk, _) in enumerate(alone):
        rows = slice(2 * r, 2 * r + 2)
        for field in ("current", "soc_after", "fade_after", "caps"):
            assert np.array_equal(getattr(stacked, field)[rows], getattr(chunk, field)), (r, field)


@given(
    fault_start=st.floats(min_value=60.0, max_value=600.0),
    fault_len=st.floats(min_value=30.0, max_value=300.0),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=5, deadline=None)
def test_mixed_grid_with_fault_and_protection(fault_start, fault_len, seed):
    """Faulted and protected runs ride the same grid via the fallback path."""

    def build_grid():
        spec = SweepSpec(
            scenarios=("tablet-day",),
            policies=("even-split",),
            n_seeds=2,
            seed=seed,
            duration_s=1800.0,
            dt_s=2.0,
        )
        roster, emulators = BatchedSweep(spec).plan()
        # A run with a gauge-fault window: never batch-eligible.
        trace, _ = FLEET_SCENARIOS["tablet-day"](seed + 1, 1800.0)
        controller = build_controller("tablet")
        runtime = SDBRuntime(controller, discharge_policy=EvenSplitDischargePolicy())
        emulators.append(
            SDBEmulator(
                controller,
                runtime,
                trace,
                dt_s=2.0,
                engine="vectorized",
                faults=FaultSchedule(
                    [GaugeStuckFault(0, start_s=fault_start, end_s=fault_start + fault_len)]
                ),
            )
        )
        # A run with protection enforcement armed (derate machinery live),
        # plus the same fault window so protection has something to chew on.
        trace2, _ = FLEET_SCENARIOS["tablet-day"](seed + 2, 1800.0)
        controller2 = build_controller("tablet")
        manager = ProtectionManager(controller2, mode="enforce")
        runtime2 = SDBRuntime(
            controller2,
            discharge_policy=EvenSplitDischargePolicy(),
            health_monitor=HealthMonitor(),
            protection=manager,
        )
        emulators.append(
            SDBEmulator(
                controller2,
                runtime2,
                trace2,
                dt_s=2.0,
                engine="vectorized",
                faults=FaultSchedule(
                    [GaugeStuckFault(1, start_s=fault_start, end_s=fault_start + fault_len)]
                ),
            )
        )
        return emulators

    emulators = build_grid()
    results, modes = execute_runs(emulators, keep_series=True)
    assert modes[:2] == ["batched", "batched"]
    assert modes[2:] == ["fallback", "fallback"]
    solo_emulators = build_grid()
    for em, result, solo in zip(emulators, results, solo_emulators):
        solo_result = solo.run()
        assert result_fingerprint(result) == result_fingerprint(solo_result)
        assert state_fingerprint(em) == state_fingerprint(solo)


class TestSweepRollup:
    def test_rollup_counts_and_exit_code(self):
        spec = SweepSpec(
            scenarios=("tablet-day",),
            policies=("even-split", "single"),
            n_seeds=2,
            duration_s=600.0,
            dt_s=2.0,
        )
        result = run_sweep(spec)
        roll = result.rollup()
        assert roll["runs"] == 4
        assert roll["batched"] == 2  # even-split pair
        assert roll["fallback"] == 2  # single-battery policy is unbatchable
        assert roll["degraded"] == 0
        assert roll["runs_per_s"] > 0
        assert result.exit_code == 0
        assert "4 runs" in result.summary()
        payload = result.to_dict()
        assert payload["rollup"]["runs"] == 4
        assert len(payload["runs"]) == 4
        json.dumps(payload)  # JSON-safe

    def test_degraded_grid_exits_1(self):
        spec = SweepSpec(
            scenarios=("tablet-day",),
            policies=("even-split",),
            duration_s=600.0,
            dt_s=2.0,
            socs=(0.0, 0.0),
        )
        result = run_sweep(spec)
        assert result.rollup()["degraded"] == 1
        assert result.exit_code == 1


class TestSweepCLI:
    FAST = ["--duration-h", "0.25", "--dt", "2", "--seeds", "2"]

    def test_clean_grid_exits_0(self, tmp_path, capsys):
        summary = tmp_path / "sweep.json"
        assert (
            main(
                [
                    "sweep",
                    "--scenarios",
                    "tablet-day",
                    "--policies",
                    "even-split,proportional",
                    *self.FAST,
                    "--summary",
                    str(summary),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "4 batched" in out
        payload = json.loads(summary.read_text())
        assert payload["exit_code"] == 0
        assert payload["rollup"]["runs"] == 4

    def test_degraded_run_exits_1(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--scenarios",
                    "tablet-day",
                    "--policies",
                    "even-split",
                    *self.FAST,
                    "--socs",
                    "0,0",
                ]
            )
            == 1
        )
        assert "degraded" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--scenarios", "moon-day", "--policies", "even-split"],
            ["sweep", "--scenarios", "tablet-day", "--policies", "warp"],
            ["sweep", "--scenarios", "tablet-day", "--policies", "even-split",
             "--duration-h", "-1"],
            ["sweep", "--scenarios", "tablet-day", "--policies", "even-split",
             "--socs", "0.5"],
            ["sweep", "--scenarios", "tablet-day", "--policies", ",,"],
            ["sweep", "--scenarios", "tablet-day", "--policies", "even-split",
             "--duration-h", "inf"],
            ["sweep", "--scenarios", "tablet-day", "--policies", "even-split",
             "--duration-h", "nan"],
            ["sweep", "--scenarios", "tablet-day", "--policies", "even-split",
             "--dt", "inf"],
            ["sweep", "--scenarios", "tablet-day", "--policies", "even-split",
             "--dt", "nan"],
        ],
    )
    def test_bad_specs_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.strip()

    def test_trace_records_sweep_events(self, tmp_path, capsys):
        out = tmp_path / "sweep.trace.jsonl"
        assert (
            main(
                [
                    "sweep",
                    "--scenarios",
                    "tablet-day",
                    "--policies",
                    "even-split",
                    *self.FAST,
                    "--trace",
                    str(out),
                ]
            )
            == 0
        )
        names = {
            str(json.loads(line).get("name", ""))
            for line in out.read_text().splitlines()
            if line.strip()
        }
        assert any(name.startswith("sweep.") for name in names)
