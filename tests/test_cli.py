"""Tests for the command-line interface."""

import json
import socket

import pytest

from repro.cli import EXPERIMENT_DESCRIPTIONS, _experiment_registry, main


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENT_DESCRIPTIONS:
            assert name in out

    def test_registry_matches_descriptions(self):
        assert set(_experiment_registry()) == set(EXPERIMENT_DESCRIPTIONS)


class TestLibrary:
    def test_prints_fifteen_batteries(self, capsys):
        assert main(["library"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 16):
            assert f"B{i:02d}" in out


class TestRun:
    def test_run_single_experiment(self, capsys):
        assert main(["run", "tab01"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Energy capacity" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_run_writes_output_files(self, tmp_path, capsys):
        assert main(["run", "fig06", "--out", str(tmp_path)]) == 0
        written = tmp_path / "fig06.txt"
        assert written.exists()
        assert "Figure 6(a)" in written.read_text()

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_invalid_engine_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "tab01", "--engine", "warp"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "Traceback" not in err

    def test_run_with_trace_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "fig14.trace.jsonl"
        assert main(["run", "fig14", "--trace", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert json.loads(lines[0])["schema"] == "repro.obs/v1"
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "counter" in kinds

    def test_run_trace_restores_default_tracer(self, tmp_path, capsys):
        from repro.obs import NULL_TRACER, get_default_tracer

        assert main(["run", "tab01", "--trace", str(tmp_path / "t.jsonl")]) == 0
        capsys.readouterr()
        assert get_default_tracer() is NULL_TRACER


class TestTrace:
    # The watch day at a coarse step keeps these runs fast.
    FAST = ["--dt", "60"]

    def test_scenario_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "watch.trace.jsonl"
        assert main(["trace", "watch-day", *self.FAST, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        meta = json.loads(lines[0])
        assert meta == {"kind": "meta", "schema": "repro.obs/v1"}
        records = [json.loads(line) for line in lines[1:]]
        assert any(r["kind"] == "event" and r["name"] == "runtime.ratio_decision"
                   for r in records)
        assert any(r["kind"] == "counter" and r["name"] == "emulator.steps"
                   for r in records)

    def test_scenario_chrome_format(self, tmp_path, capsys):
        out = tmp_path / "watch.chrome.json"
        assert main(["trace", "watch-day", *self.FAST, "--trace-format", "chrome",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert {"X", "i", "M"} <= {e["ph"] for e in doc["traceEvents"]}

    def test_scenario_summary_format(self, capsys):
        assert main(["trace", "watch-day", *self.FAST, "--trace-format", "summary"]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "emulator.steps" in out

    def test_convert_jsonl_to_chrome(self, tmp_path, capsys):
        jsonl = tmp_path / "run.trace.jsonl"
        assert main(["trace", "watch-day", *self.FAST, "--out", str(jsonl)]) == 0
        assert main(["trace", str(jsonl), "--trace-format", "chrome"]) == 0
        converted = tmp_path / "run.trace.chrome.json"
        assert converted.exists()
        assert json.loads(converted.read_text())["traceEvents"]

    def test_convert_requires_chrome_format(self, tmp_path, capsys):
        jsonl = tmp_path / "run.trace.jsonl"
        jsonl.write_text('{"kind": "meta", "schema": "repro.obs/v1"}\n')
        assert main(["trace", str(jsonl)]) == 2
        err = capsys.readouterr().err
        assert "--trace-format chrome" in err

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["trace", "no-such-day"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one-line message, no traceback
        assert "unknown scenario" in err

    def test_missing_jsonl_exits_2(self, capsys):
        assert main(["trace", "/nope/missing.trace.jsonl"]) == 2
        err = capsys.readouterr().err
        assert "not found" in err
        assert "Traceback" not in err

    def test_missing_csv_exits_2(self, capsys):
        assert main(["trace", "/nope/missing.csv"]) == 2
        err = capsys.readouterr().err
        assert "not found" in err

    def test_invalid_csv_exits_2_with_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("start_s,power_w\n0.0,1.0\n0.0,2.0\n10.0,\n")
        assert main(["trace", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "row 3" in err
        assert "Traceback" not in err

    def test_invalid_engine_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "watch-day", "--engine", "warp"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_nonpositive_dt_exits_2(self, capsys):
        assert main(["trace", "watch-day", "--dt", "0"]) == 2
        assert "dt must be positive" in capsys.readouterr().err

    def test_corrupt_jsonl_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace.jsonl"
        bad.write_text("not json at all\n")
        assert main(["trace", str(bad), "--trace-format", "chrome"]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_workload_csv_runs(self, tmp_path, capsys):
        csv_path = tmp_path / "load.csv"
        csv_path.write_text("start_s,power_w\n0.0,1.5\n1800.0,0.5\n3600.0,\n")
        out = tmp_path / "load.trace.jsonl"
        assert main(["trace", str(csv_path), "--device", "phone", "--dt", "60",
                     "--out", str(out)]) == 0
        assert out.exists()


class TestChaosTrace:
    def test_chaos_with_trace(self, tmp_path, capsys):
        out = tmp_path / "chaos.trace.jsonl"
        assert main(["chaos", "--seed", "7", "--dt", "120", "--trace", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert json.loads(lines[0])["schema"] == "repro.obs/v1"


class TestProtectionFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "tab01", "--protection", "full"],
            ["chaos", "--protection", "full"],
            ["trace", "watch-day", "--protection", "full"],
            ["supervise", "watch-day", "--protection", "full"],
        ],
        ids=["run", "chaos", "trace", "supervise"],
    )
    def test_invalid_protection_mode_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "Traceback" not in err

    def test_invalid_chaos_preset_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--preset", "meteor"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_gauge_storm_preset_under_enforcement(self, tmp_path, capsys):
        out = tmp_path / "storm.trace.jsonl"
        assert main(["chaos", "--preset", "gauge-storm", "--protection", "enforce",
                     "--dt", "120", "--trace", str(out)]) == 0
        capsys.readouterr()
        names = {json.loads(line).get("name", "") for line in out.read_text().splitlines()}
        assert any(name.startswith("protection.") for name in names)

    def test_protected_scenario_trace(self, tmp_path, capsys):
        out = tmp_path / "gauge.trace.jsonl"
        assert main(["trace", "gauge-fault-tablet", "--protection", "enforce",
                     "--dt", "120", "--out", str(out)]) == 0
        capsys.readouterr()
        names = {json.loads(line).get("name", "") for line in out.read_text().splitlines()}
        assert any(name.startswith("protection.") for name in names)


class TestFleet:
    def test_bad_scenario_exits_2(self, capsys):
        assert main(["fleet", "toaster-day", "--devices", "2"]) == 2
        assert "unknown fleet scenario" in capsys.readouterr().err

    def test_bad_population_count_exits_2(self, capsys):
        assert main(["fleet", "watch-day=lots"]) == 2
        assert "bad device count" in capsys.readouterr().err

    def test_nonpositive_duration_exits_2(self, capsys):
        assert main(["fleet", "watch-day", "--duration-h", "0"]) == 2
        assert "duration" in capsys.readouterr().err

    def test_nonpositive_dt_exits_2(self, capsys):
        assert main(["fleet", "watch-day", "--dt", "-5"]) == 2
        assert "dt" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_duration_exits_2(self, value, capsys):
        # Rejected by the spec before any worker starts: an infinite day
        # would otherwise never finish generating its trace.
        assert main(["fleet", "watch-day", "--devices", "1", "--shards", "1", "--duration-h", value]) == 2
        assert "duration" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_dt_exits_2(self, value, capsys):
        assert main(["fleet", "watch-day", "--devices", "1", "--shards", "1", "--duration-h", "1", "--dt", value]) == 2
        assert "dt" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--duration-h", "--dt"])
    def test_serve_non_finite_spec_exits_2(self, flag, capsys):
        assert main(["serve", "watch-day", "--devices", "1", flag, "inf"]) == 2
        assert flag.lstrip("-").split("-")[0] in capsys.readouterr().err

    def test_bad_retry_config_exits_2(self, capsys):
        assert main(["fleet", "watch-day", "--max-restarts", "-1"]) == 2
        assert "max_restarts" in capsys.readouterr().err

    def test_small_fleet_runs_and_writes_summary(self, tmp_path, capsys):
        summary_path = tmp_path / "fleet-summary.json"
        code = main(
            [
                "fleet",
                "phone-day",
                "--devices",
                "2",
                "--shards",
                "1",
                "--duration-h",
                "0.05",
                "--dt",
                "5",
                "--checkpoint-dir",
                str(tmp_path / "ckpt"),
                "--summary",
                str(summary_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2/2 devices completed" in out
        payload = json.loads(summary_path.read_text())
        assert payload["exit_code"] == 0
        assert payload["rollup"]["coverage"] == 1.0
        assert payload["rollup"]["shards"]["quarantined"] == 0
        assert len(payload["devices"]) == 2


# Each value below was accepted, hung, or crashed with a traceback; every
# one is now refused by the object it reaches, before anything runs.
BAD_VALUES = [
    ["supervise", "watch-day", "--every-h", "nan"],
    ["supervise", "watch-day", "--watchdog-s", "nan"],
    ["fleet", "watch-day", "--base-delay-s", "nan"],
    ["fleet", "watch-day", "--heartbeat-deadline-s", "nan"],
    ["fleet", "watch-day", "--devices", "2", "--shards", "1", "--chaos", "kill-worker", "--chaos-target", "5"],
    ["fleet", "watch-day", "--devices", "2", "--shards", "1", "--chaos", "kill-worker", "--chaos-target", "-1"],
    ["directory", "--scenario", "toaster"],
    ["directory", "--partition-s", "inf"],
    ["directory", "--partition-s", "nan"],
    ["directory", "--tick-s", "nan"],
    ["serve", "watch-day", "--capacity", "0"],
    ["serve", "watch-day", "--retry-after-s", "0"],
    ["serve", "watch-day", "--breaker-failures", "0"],
    ["serve", "watch-day", "--stale-after-s", "0"],
    ["serve", "watch-day", "--default-timeout-s", "nan"],
    ["serve", "watch-day", "--retry-after-s", "nan"],
    ["chaos", "--dt", "nan"],
    ["chaos", "--dt", "inf"],
    ["chaos", "--dt", "0"],
    ["trace", "watch-day", "--dt", "nan"],
    ["run", "fig11", "--trace", "missing/run.trace.jsonl"],
    ["chaos", "--trace", "."],
    ["fleet", "watch-day", "--trace", "missing/fleet.trace.jsonl"],
    ["fleet", "watch-day", "--summary", "missing/fleet.json"],
    ["serve", "watch-day", "--trace", "."],
    ["directory", "--trace", "missing/directory.trace.jsonl"],
    ["directory", "--summary", "."],
    ["sweep", "--trace", "missing/sweep.trace.jsonl"],
    ["sweep", "--summary", "missing/sweep.json"],
    ["trace", "watch-day", "--out", "missing/watch.trace.jsonl"],
    ["supervise", "watch-day", "--checkpoint", "."],
    ["supervise", "watch-day", "--manifest", "missing/watch.replay.json"],
    ["run", "fig08", "--out", "/dev/null"],
    ["run", "longevity", "--checkpoint-dir", "/dev/null"],
    ["chaos", "--out", "/dev/null"],
    ["fleet", "watch-day", "--checkpoint-dir", "/dev/null"],
    ["serve", "watch-day", "--checkpoint-dir", "/dev/null"],
]


@pytest.mark.parametrize("argv", BAD_VALUES, ids=[" ".join(argv) for argv in BAD_VALUES])
def test_unusable_number_exits_2_before_anything_starts(argv, tmp_path, monkeypatch, capsys):
    from repro.emulator.emulator import SDBEmulator
    from repro.fleet import FleetSupervisor
    from repro.net.node import BatteryNodeServer
    from repro.serve import ServingFleet
    from repro.supervisor import RunSupervisor

    for cls, method in (
        (FleetSupervisor, "run"),
        (ServingFleet, "start"),
        (BatteryNodeServer, "start"),
        (RunSupervisor, "run"),
        (SDBEmulator, "run"),
    ):
        monkeypatch.setattr(cls, method, lambda *a, _n=f"{cls.__name__}.{method}", **k: pytest.fail(f"{_n} ran"))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert list(tmp_path.iterdir()) == []  # no checkpoint directory either


@pytest.mark.parametrize("busy", [True, False], ids=["busy port", "port 70000"])
def test_unbindable_serve_port_exits_2_before_any_worker(busy, tmp_path, monkeypatch, capsys):
    from repro.fleet import FleetSupervisor

    ran = []
    monkeypatch.setattr(FleetSupervisor, "run", lambda self: ran.append(self))
    monkeypatch.chdir(tmp_path)
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        port = listener.getsockname()[1] if busy else 70000
        assert main(["serve", "watch-day", "--port", str(port)]) == 2
    assert ran == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert list(tmp_path.iterdir()) == []


class TestDirectory:
    def test_partition_cycle_passes_and_writes_summary_and_trace(self, tmp_path, capsys):
        summary_path = tmp_path / "directory.json"
        trace_path = tmp_path / "directory.trace.jsonl"
        assert main(["directory", "--summary", str(summary_path), "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        summary = json.loads(summary_path.read_text())
        assert summary["checks"] and all(summary["checks"].values()), summary["checks"]
        assert summary["replay_applications"] == 1
        records = [json.loads(line) for line in trace_path.read_text().splitlines()]
        arcs = {
            (r["fields"]["from"], r["fields"]["to"])
            for r in records
            if r.get("name") == "net.lease"
        }
        assert {("live", "suspect"), ("suspect", "live")} <= arcs
