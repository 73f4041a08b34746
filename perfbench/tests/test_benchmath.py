"""The benchmark's own arithmetic: percentiles, self time, failures, names.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import pathlib
import shutil
import subprocess
import sys
import threading

import pytest

from perfbench.common import OP_MIX, Call, closed_loop
from perfbench.machine import REFERENCE_S, MachineSpeed
from perfbench.perlayer import layer_metrics
from perfbench.spans import Span, SpanRecorder, covered, self_time
from perfbench.stats import (
    check_metric_names,
    error_rate,
    http_outcome,
    percentile,
    samples_beyond,
    tail,
    tail_percent,
    valid_name,
    valid_unit,
)

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _span(start, end, span_id=1, parent=None):
    span = Span(span_id, parent, 1, "s", start, None)
    span.end = end
    return span


# -- choosing the percentile ------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(1000, 99), (999, 95), (200, 95), (199, 90), (100, 90), (99, 50), (20, 50), (19, None), (0, None)],
)
def test_tail_percent_needs_ten_samples_beyond(n, expected):
    assert tail_percent(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_p99_only_with_ten_samples_beyond_it():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(list(reversed(values)), 90) == 90
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_reports_its_percent():
    samples = [float(i) for i in range(1, 201)]
    assert tail(samples) == {"percent": 95, "value": 190.0, "n": 200}
    assert tail([1.0] * 5)["percent"] == 0


# -- self time from nested child spans --------------------------------------


def test_self_time_subtracts_children():
    parent = _span(0.0, 10.0)
    assert self_time(parent, []) == 10.0
    assert self_time(parent, [_span(1.0, 3.0), _span(5.0, 6.0)]) == 7.0


def test_self_time_counts_overlapping_children_once():
    parent = _span(0.0, 10.0)
    children = [_span(1.0, 4.0), _span(2.0, 5.0), _span(4.5, 6.0)]
    assert self_time(parent, children) == 5.0


def test_self_time_clips_children_to_the_parent():
    parent = _span(2.0, 8.0)
    assert self_time(parent, [_span(0.0, 3.0), _span(7.0, 12.0), _span(20.0, 30.0)]) == 4.0
    assert covered([(0.0, 1.0)], (2.0, 3.0)) == 0.0


def test_recorder_nests_spans_and_shares_the_trace_id():
    recorder = SpanRecorder()
    with recorder.span("root") as root:
        with recorder.span("child") as child:
            with recorder.span("grandchild") as grandchild:
                pass
    assert child.parent_id == root.span_id
    assert grandchild.parent_id == child.span_id
    assert {root.trace_id, child.trace_id, grandchild.trace_id} == {root.span_id}
    kids = recorder.children()
    assert kids[root.span_id] == [child]
    assert self_time(root, kids[root.span_id]) == pytest.approx(root.duration - child.duration)


def test_recorder_adopts_a_context_from_another_thread():
    recorder = SpanRecorder()
    seen = {}

    with recorder.span("client") as client:
        context = recorder.context()

        def server():
            with recorder.adopt(context), recorder.span("server") as span:
                seen["span"] = span

        thread = threading.Thread(target=server)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen["span"].parent_id == client.span_id
    assert seen["span"].trace_id == client.trace_id


def test_wrap_records_and_restore_undoes():
    class Layer:
        def work(self, x):
            return x + 1

    recorder = SpanRecorder()
    original = Layer.work
    recorder.wrap(Layer, "work", "layer.work", attrs=lambda a, k: {"x": a[1]})
    assert Layer().work(2) == 3
    recorder.restore()
    assert Layer.work is original
    assert [(s.name, s.attrs) for s in recorder.spans] == [("layer.work", {"x": 2})]


# -- failures in error_rate ---------------------------------------------------


def test_refused_and_timed_out_requests_count_as_failures():
    outcomes = [
        http_outcome(200, {"ok": True}),
        http_outcome(429, {"ok": False, "error": "overloaded"}),
        http_outcome(None, None),
        http_outcome(504, {"ok": False, "error": "deadline_exceeded"}),
    ]
    assert outcomes == ["ok", "refused", "timeout", "http_504"]
    assert error_rate(outcomes) == 0.75


def test_ok_status_with_failed_body_is_a_failure():
    assert http_outcome(200, {"ok": False}) == "not_ok"
    assert error_rate(["ok", "ok"]) == 0.0
    with pytest.raises(ValueError):
        error_rate([])


# -- reference speed and the closed loop ------------------------------------


def test_slowdown_is_the_mean_reference_time_over_its_nominal_time():
    speed = MachineSpeed()
    speed.samples_s = [REFERENCE_S, 2 * REFERENCE_S, 3 * REFERENCE_S]
    assert speed.slowdown() == pytest.approx(2.0)
    speed.sample()
    assert len(speed.samples_s) == 4 and speed.samples_s[-1] > 0


def test_closed_loop_runs_between_slices_with_every_client_idle():
    busy = []
    lock = threading.Lock()
    gaps = []

    def make_client(k):
        def send(call):
            with lock:
                busy.append(k)
            with lock:
                busy.remove(k)
            return Call("read", call["op"], 0.0, "ok")

        return send

    def between():
        gaps.append(list(busy))

    calls, wall = closed_loop(0.3, 1, [("d", 2)], make_client, slices=3, between=between)
    assert gaps == [[], []]
    assert calls and 0.25 < wall < 1.0


# -- metric names -------------------------------------------------------------


def test_metric_names_use_only_allowed_characters():
    for name in ("setup_s", "net.transport_p50_ms", "fleet-day", "2x"):
        assert valid_name(name)
    for name in ("", "_lead", ".lead", "has space", "slash/name", "x" * 65, "p99%"):
        assert not valid_name(name)
    for unit in ("ms", "1/s", "%", "share", "B"):
        assert valid_unit(unit)
    assert not valid_unit("m s")
    assert check_metric_names({"bad name": {"value": 1, "unit": "ms"}, "ok": {"value": "x", "unit": "ms"}}) == [
        "bad metric name 'bad name'",
        "non-numeric value on 'ok'",
    ]


def test_declared_metrics_are_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    printed = layer_metrics(SpanRecorder(), {"tracers": {}, "traced_over_untraced": 1.0})
    assert [m["name"] for m in spec["per_layer"]] == list(printed)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in printed.items()}
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "throughput_per_s", "peak_rss_mb"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(names) == len(set(names)) and all(valid_name(n) for n in names)


def test_op_mix_is_half_reads_and_equal_mutations():
    shares = dict(OP_MIX)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["QueryBatteryStatus"] >= 0.5
    assert shares["SetCharge"] == shares["SetDischarge"] == shares["SelectChargingProfile"]


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-day", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_stop_children_leaves_no_process_and_no_warning():
    script = (
        "import multiprocessing\n"
        "from multiprocessing import resource_tracker\n"
        "from perfbench.run import _child_pids, stop_children\n"
        "queue = multiprocessing.get_context('spawn').Queue()\n"
        "queue.put(1)  # its semaphores start the resource tracker\n"
        "assert _child_pids()\n"
        "stop_children()\n"
        "print(_child_pids(), resource_tracker._resource_tracker._pid)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] None"  # the tracker was stopped, not killed
    assert proc.stderr == ""
