"""Tests for repro.obs: tracer collection, exporters, and integration."""

import json
import sys
import threading

import pytest

from repro.obs import (
    NULL_TRACER,
    JSONL_SCHEMA,
    Tracer,
    chrome_trace,
    get_default_tracer,
    load_jsonl,
    set_default_tracer,
    summary_table,
    to_jsonl,
    use_tracer,
)
from repro.obs.scenarios import SCENARIOS, build_scenario, build_workload_emulator
from repro.workloads import constant_trace


class FakeClock:
    """Deterministic clock: each call advances by the scripted increments."""

    def __init__(self, increments):
        self._increments = iter(increments)
        self._now = 0.0

    def __call__(self):
        self._now += next(self._increments, 0.0)
        return self._now


class TestTracer:
    def test_counters_accumulate(self):
        tracer = Tracer()
        tracer.count("a.x")
        tracer.count("a.x", 4)
        tracer.count("a.y", 2)
        assert tracer.counters["a.x"] == 5
        assert tracer.counters["a.y"] == 2

    def test_counts_and_records_from_many_threads_are_exact(self):
        # One tracer is shared by HTTP handler threads, node handler
        # threads and a lease pump; no count or record may be lost. A
        # short switch interval makes the threads interleave often.
        tracer = Tracer()
        start = threading.Barrier(8)

        def writer(k):
            start.wait()
            for _ in range(100_000):
                tracer.count("shared")
            for i in range(1_000):
                tracer.event("w.event", float(i), writer=k)

        threads = [threading.Thread(target=writer, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert tracer.counters["shared"] == 800_000
        assert len(tracer.events_named("w.event")) == 8_000

    def test_events_and_spans_recorded_in_order(self):
        tracer = Tracer()
        tracer.event("runtime.tick", 10.0, load_w=2.0)
        tracer.span("engine.chunk", 10.0, 50.0, steps=5)
        kinds = [r.kind for r in tracer.records]
        assert kinds == ["event", "span"]
        assert tracer.records[0].fields == {"load_w": 2.0}
        assert tracer.records[1].dur_s == 50.0
        assert tracer.records[1].category == "engine"
        assert tracer.events_named("runtime.tick") == [tracer.records[0]]

    def test_timer_measures_injected_clock(self):
        # enter/exit pairs: 1.0s then 3.0s elapsed inside the with-blocks.
        tracer = Tracer(clock=FakeClock([0.0, 1.0, 0.0, 3.0]))
        with tracer.timer("t"):
            pass
        with tracer.timer("t"):
            pass
        assert tracer.timer_samples("t") == pytest.approx([1.0, 3.0])
        assert tracer.timer_total_s("t") == pytest.approx(4.0)

    def test_timer_handles_cached_per_name(self):
        tracer = Tracer()
        assert tracer.timer("a") is tracer.timer("a")
        assert tracer.timer("a") is not tracer.timer("b")

    def test_timer_stats_percentiles(self):
        tracer = Tracer(clock=FakeClock([v for ms in range(1, 101) for v in (0.0, ms / 1000)]))
        for _ in range(100):
            with tracer.timer("t"):
                pass
        stats = tracer.timer_stats("t")
        assert stats["count"] == 100
        assert stats["p50_s"] == pytest.approx(0.050)
        assert stats["p90_s"] == pytest.approx(0.090)
        assert stats["p99_s"] == pytest.approx(0.099)
        assert stats["max_s"] == pytest.approx(0.100)
        assert stats["mean_s"] == pytest.approx(stats["total_s"] / 100)

    def test_empty_timer_stats_are_zero(self):
        stats = Tracer().timer_stats("never")
        assert stats == {"count": 0, "total_s": 0.0, "mean_s": 0.0,
                         "p50_s": 0.0, "p90_s": 0.0, "p99_s": 0.0, "max_s": 0.0}


class TestNullTracer:
    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True

    def test_records_nothing(self):
        NULL_TRACER.count("x", 10)
        NULL_TRACER.event("x.e", 1.0, a=1)
        NULL_TRACER.span("x.s", 1.0, 2.0)
        with NULL_TRACER.timer("x.t"):
            pass
        assert not NULL_TRACER.counters
        assert not NULL_TRACER.records
        assert NULL_TRACER.timer_names() == []

    def test_timer_is_shared_noop(self):
        assert NULL_TRACER.timer("a") is NULL_TRACER.timer("b")


class TestDefaultTracer:
    def test_default_is_null(self):
        assert get_default_tracer() is NULL_TRACER

    def test_set_and_restore(self):
        tracer = Tracer()
        previous = set_default_tracer(tracer)
        try:
            assert get_default_tracer() is tracer
        finally:
            set_default_tracer(previous)
        assert get_default_tracer() is NULL_TRACER

    def test_use_tracer_scopes(self):
        tracer = Tracer()
        with use_tracer(tracer) as active:
            assert active is tracer
            assert get_default_tracer() is tracer
        assert get_default_tracer() is NULL_TRACER

    def test_set_none_restores_null(self):
        set_default_tracer(Tracer())
        set_default_tracer(None)
        assert get_default_tracer() is NULL_TRACER


def _sample_tracer():
    tracer = Tracer(clock=FakeClock([0.0, 0.002]))
    tracer.count("emulator.steps", 3)
    tracer.event("runtime.ratio_decision", 60.0, discharge_ratios=[0.5, 0.5])
    tracer.span("engine.chunk", 0.0, 60.0, kind="rest", steps=6)
    with tracer.timer("emulator.policy_tick"):
        pass
    return tracer


class TestJsonl:
    def test_schema_shape(self):
        lines = to_jsonl(_sample_tracer()).splitlines()
        entries = [json.loads(line) for line in lines]
        assert entries[0] == {"kind": "meta", "schema": JSONL_SCHEMA}
        kinds = [e["kind"] for e in entries[1:]]
        assert kinds == ["event", "span", "counter", "timer"]
        event, span, counter, timer = entries[1:]
        assert event["name"] == "runtime.ratio_decision"
        assert event["cat"] == "runtime"
        assert event["fields"]["discharge_ratios"] == [0.5, 0.5]
        assert span["dur_s"] == 60.0
        assert counter == {"kind": "counter", "name": "emulator.steps", "value": 3}
        assert timer["count"] == 1
        assert timer["total_s"] == pytest.approx(0.002)
        for key in ("mean_s", "p50_s", "p90_s", "p99_s", "max_s"):
            assert key in timer

    def test_load_round_trip(self):
        text = to_jsonl(_sample_tracer())
        records = load_jsonl(text)
        assert records[0]["schema"] == JSONL_SCHEMA
        assert [r["kind"] for r in records] == ["meta", "event", "span", "counter", "timer"]

    def test_load_rejects_bad_json_with_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            load_jsonl('{"kind": "meta"}\nnot json\n')

    def test_load_rejects_kindless_entry(self):
        with pytest.raises(ValueError, match="line 1"):
            load_jsonl('{"name": "x"}\n')

    def test_load_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            load_jsonl("\n\n")


class TestChromeTrace:
    def test_structure(self):
        doc = chrome_trace(_sample_tracer())
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X", "i", "C"}
        lanes = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert lanes == {"runtime", "engine"}
        span = next(e for e in events if e["ph"] == "X")
        assert span["ts"] == 0.0
        assert span["dur"] == 60.0 * 1e6  # sim seconds -> microseconds
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["ts"] == 60.0 * 1e6
        counter = next(e for e in events if e["ph"] == "C")
        assert counter["args"]["value"] == 3
        # The counter sample lands at the end of the timeline.
        assert counter["ts"] == 60.0 * 1e6

    def test_accepts_loaded_jsonl_dicts(self):
        tracer = _sample_tracer()
        from_tracer = chrome_trace(tracer)
        from_dicts = chrome_trace(load_jsonl(to_jsonl(tracer)))
        assert from_tracer == from_dicts

    def test_serializable(self):
        json.dumps(chrome_trace(_sample_tracer()))


class TestSummaryTable:
    def test_contains_counters_and_timers(self):
        table = summary_table(_sample_tracer())
        assert "emulator.steps" in table
        assert "emulator.policy_tick" in table
        assert "records: 1 event(s), 1 span(s)" in table

    def test_empty_tracer(self):
        assert summary_table(Tracer()) == "records: 0 event(s), 0 span(s)"


class TestEmulatorIntegration:
    def _run(self, engine):
        tracer = Tracer()
        emulator = build_workload_emulator(
            constant_trace(2.0, 3600.0), device="phone", engine=engine,
            dt_s=10.0, tracer=tracer,
        )
        result = emulator.run()
        return tracer, result

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_steps_counter_matches_result(self, engine):
        tracer, result = self._run(engine)
        assert tracer.counters["emulator.steps"] == len(result.times_s)

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_ratio_decisions_traced(self, engine):
        tracer, _ = self._run(engine)
        decisions = tracer.events_named("runtime.ratio_decision")
        assert decisions
        assert decisions[0].fields["discharge_ratios"]
        assert tracer.counters["runtime.ratio_updates"] == len(decisions)

    def test_run_span_emitted(self):
        tracer, result = self._run("reference")
        (span,) = tracer.events_named("emulator.run")
        assert span.kind == "span"
        assert span.fields["engine"] == "reference"
        assert span.fields["steps"] == len(result.times_s)
        assert "emulator.run" in tracer.timer_names()

    def test_hw_command_counters(self):
        tracer, _ = self._run("reference")
        assert tracer.counters["hw.commands.discharge"] > 0

    def test_untraced_run_collects_nothing(self):
        emulator = build_workload_emulator(
            constant_trace(2.0, 600.0), device="phone", dt_s=10.0
        )
        assert emulator.tracer is NULL_TRACER
        emulator.run()
        assert not NULL_TRACER.records
        assert not NULL_TRACER.counters


class TestScenarios:
    def test_scenario_names(self):
        assert set(SCENARIOS) == {
            "tablet-day",
            "watch-day",
            "phone-day",
            "chaos-tablet",
            "gauge-fault-tablet",
            "tenants-tablet",
        }

    def test_unknown_scenario(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            build_scenario("nope")

    def test_chaos_scenario_has_faults(self):
        emulator = build_scenario("chaos-tablet")
        assert emulator.faults is not None
