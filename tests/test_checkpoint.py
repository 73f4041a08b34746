"""Crash-safe checkpointing: format, round-trip, and bit-exact resume.

The ``repro.ckpt/v1`` contract (docs/checkpointing.md): a run resumed
from a mid-run snapshot finishes *step-for-step identical* to one that
was never interrupted — same energies, same SoC trajectory, same fault
and incident timelines — under both engines. These tests pin that, plus
the envelope's corruption detection and configuration-digest refusal.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    CKPT_FORMAT,
    capture_emulator_state,
    emulator_config_digest,
    payload_checksum,
    read_checkpoint,
    write_checkpoint,
)
from repro.emulator import ENGINES
from repro.errors import CheckpointError
from repro.obs import Tracer
from repro.obs.scenarios import build_scenario
from repro.replay import recorded_metrics


def assert_identical(clean, resumed):
    """The resumability contract: bit-for-bit equal outcomes."""
    assert resumed.times_s == clean.times_s
    assert resumed.load_w == clean.load_w
    assert resumed.soc_history == clean.soc_history
    assert resumed.loss_w == clean.loss_w
    assert resumed.delivered_j == clean.delivered_j
    assert resumed.battery_heat_j == clean.battery_heat_j
    assert resumed.circuit_loss_j == clean.circuit_loss_j
    assert resumed.charge_input_j == clean.charge_input_j
    assert resumed.charge_loss_j == clean.charge_loss_j
    assert resumed.depletion_s == clean.depletion_s
    assert resumed.battery_depletion_s == clean.battery_depletion_s
    assert resumed.completed == clean.completed
    assert resumed.end_s == clean.end_s
    assert resumed.battery_life_h == clean.battery_life_h
    assert resumed.fault_events == clean.fault_events
    assert resumed.incidents == clean.incidents


# --------------------------------------------------------------------- #
# Envelope format
# --------------------------------------------------------------------- #


class TestFormat:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "x.ckpt.json")
        payload = {"kind": "emulation", "value": [1.5, None, "abc"]}
        write_checkpoint(path, payload)
        assert read_checkpoint(path) == payload

    def test_envelope_shape(self, tmp_path):
        path = str(tmp_path / "x.ckpt.json")
        write_checkpoint(path, {"a": 1})
        with open(path) as handle:
            envelope = json.load(handle)
        assert envelope["format"] == CKPT_FORMAT
        assert envelope["checksum"] == payload_checksum({"a": 1})
        assert envelope["checksum"].startswith("sha256:")

    def test_file_holds_the_canonical_payload_encoding(self, tmp_path):
        path = tmp_path / "x.ckpt.json"
        payload = {"z": [0.1, None, True], "a": {"y": "\u00e9", "b": 2}}
        write_checkpoint(str(path), payload)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert path.read_text(encoding="utf-8") == (
            f'{{"format":"{CKPT_FORMAT}","checksum":"{payload_checksum(payload)}",'
            f'"payload":{canonical}}}'
        )

    def test_reads_a_payload_stored_in_insertion_order(self, tmp_path):
        # Older builds stored the payload in insertion order, not in the
        # canonical encoding; the reader re-encodes what it parses.
        path = tmp_path / "x.ckpt.json"
        payload = {"z": 1, "a": {"y": [0.5, None], "b": True}}
        envelope = {"format": CKPT_FORMAT, "checksum": payload_checksum(payload), "payload": payload}
        path.write_text(json.dumps(envelope, separators=(",", ":")), encoding="utf-8")
        assert '"payload":{"z":1,"a":{"y"' in path.read_text(encoding="utf-8")
        assert read_checkpoint(str(path)) == payload

    @pytest.mark.parametrize(
        "payload",
        [{"bad": object()}, {1: "a", "b": 2}],
        ids=["non-json-value", "mixed-key-types"],
    )
    def test_unencodable_payload_raises_typed_error(self, tmp_path, payload):
        with pytest.raises(CheckpointError, match="not JSON-serializable"):
            write_checkpoint(str(tmp_path / "x.ckpt.json"), payload)
        assert list(tmp_path.iterdir()) == []  # neither the target nor a .tmp.<pid>

    def test_no_tmp_file_left_behind(self, tmp_path):
        write_checkpoint(str(tmp_path / "x.ckpt.json"), {"a": 1})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.ckpt.json"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            read_checkpoint(str(tmp_path / "nope.ckpt.json"))

    def test_not_json(self, tmp_path):
        path = tmp_path / "x.ckpt.json"
        path.write_text("not json at all {")
        with pytest.raises(CheckpointError):
            read_checkpoint(str(path))

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "x.ckpt.json"
        path.write_text(json.dumps({"format": "other/v9", "checksum": "x", "payload": {}}))
        with pytest.raises(CheckpointError, match="format"):
            read_checkpoint(str(path))

    def test_corruption_detected(self, tmp_path):
        path = str(tmp_path / "x.ckpt.json")
        write_checkpoint(path, {"soc": 0.5})
        with open(path) as handle:
            envelope = json.load(handle)
        envelope["payload"]["soc"] = 0.9  # flip a value, keep the old checksum
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(str(path))

    def test_float_bit_exact(self, tmp_path):
        path = str(tmp_path / "x.ckpt.json")
        values = [0.1 + 0.2, 1e-300, 1.7976931348623157e308, -0.0]
        write_checkpoint(path, {"v": values})
        restored = read_checkpoint(path)["v"]
        assert [v.hex() for v in restored] == [v.hex() for v in values]


# --------------------------------------------------------------------- #
# Save/load round-trip and resume, both engines
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scenario", ["watch-day", "chaos-tablet"])
class TestResume:
    def test_resume_bit_identical(self, tmp_path, engine, scenario):
        dt = 60.0
        clean = build_scenario(scenario, engine=engine, dt_s=dt).run()

        ckpt = str(tmp_path / "mid.ckpt.json")
        recorder = build_scenario(scenario, engine=engine, dt_s=dt)
        recorder.checkpoint_path = ckpt
        recorder.checkpoint_every_s = 3600.0
        with_ckpt = recorder.run()
        assert_identical(clean, with_ckpt)  # checkpointing must not perturb
        assert os.path.exists(ckpt)

        resumer = build_scenario(scenario, engine=engine, dt_s=dt)
        resumed = resumer.run(resume_from=ckpt)
        assert_identical(clean, resumed)

    def test_run_after_load_checkpoint_continues_the_run(self, tmp_path, engine, scenario):
        """``load_checkpoint`` then ``run()`` finishes exactly as
        ``run(resume_from=...)`` does, warm start included."""
        dt = 60.0
        ckpt = str(tmp_path / "mid.ckpt.json")
        recorder = build_scenario(scenario, engine=engine, dt_s=dt)
        recorder.checkpoint_path = ckpt
        recorder.checkpoint_every_s = 3600.0
        recorder.run()

        resumed = build_scenario(scenario, engine=engine, dt_s=dt).run(resume_from=ckpt)
        loaded = build_scenario(scenario, engine=engine, dt_s=dt)
        restored = loaded.load_checkpoint(ckpt)
        assert 0 < len(restored.times_s) < len(resumed.times_s)
        continued = loaded.run()
        assert recorded_metrics(continued) == recorded_metrics(resumed)
        assert_identical(resumed, continued)

    def test_config_digest_mismatch_refused(self, tmp_path, engine, scenario):
        ckpt = str(tmp_path / "mid.ckpt.json")
        recorder = build_scenario(scenario, engine=engine, dt_s=60.0)
        recorder.checkpoint_path = ckpt
        recorder.checkpoint_every_s = 3600.0
        recorder.run()
        other = build_scenario(scenario, engine=engine, dt_s=30.0)  # different dt
        with pytest.raises(CheckpointError, match="configuration"):
            other.run(resume_from=ckpt)


def test_cross_engine_resume_refused(tmp_path):
    ckpt = str(tmp_path / "mid.ckpt.json")
    recorder = build_scenario("watch-day", engine="reference", dt_s=60.0)
    recorder.checkpoint_path = ckpt
    recorder.checkpoint_every_s = 3600.0
    recorder.run()
    vec = build_scenario("watch-day", engine="vectorized", dt_s=60.0)
    with pytest.raises(CheckpointError):
        vec.run(resume_from=ckpt)


def test_digest_stable_across_fresh_builds():
    a = build_scenario("watch-day", dt_s=60.0)
    b = build_scenario("watch-day", dt_s=60.0)
    assert emulator_config_digest(a) == emulator_config_digest(b)
    assert emulator_config_digest(a) != emulator_config_digest(
        build_scenario("watch-day", dt_s=30.0)
    )


# --------------------------------------------------------------------- #
# Property: save at a random step, resume, get the same run
# --------------------------------------------------------------------- #


@settings(max_examples=6, deadline=None)
@given(
    engine=st.sampled_from(list(ENGINES)),
    fraction=st.floats(min_value=0.05, max_value=0.95),
)
def test_save_at_random_step_resumes_identically(tmp_path_factory, engine, fraction):
    """Snapshotting at *any* step must reproduce the uninterrupted run.

    The reference engine can checkpoint at every step; the vectorized
    engine only at its committed block boundaries — so the snapshot is
    taken by running with a cadence chosen to land one checkpoint near
    the requested fraction of the run.
    """
    tmp_path = tmp_path_factory.mktemp("ckpt")
    dt = 120.0
    clean = build_scenario("watch-day", engine=engine, dt_s=dt).run()
    horizon_s = clean.times_s[-1] - clean.times_s[0]

    ckpt = str(tmp_path / "mid.ckpt.json")
    recorder = build_scenario("watch-day", engine=engine, dt_s=dt)
    recorder.checkpoint_path = ckpt
    recorder.checkpoint_every_s = max(dt, fraction * horizon_s)
    with_ckpt = recorder.run()
    assert_identical(clean, with_ckpt)
    assert os.path.exists(ckpt)

    resumed = build_scenario("watch-day", engine=engine, dt_s=dt).run(resume_from=ckpt)
    assert_identical(clean, resumed)


# --------------------------------------------------------------------- #
# Explicit save/load API
# --------------------------------------------------------------------- #


def test_explicit_save_and_load(tmp_path):
    ckpt = str(tmp_path / "final.ckpt.json")
    em = build_scenario("watch-day", dt_s=120.0)
    result = em.run()
    em.save_checkpoint(ckpt, result)
    payload = read_checkpoint(ckpt)
    assert payload["kind"] == "emulation"
    assert payload["step_index"] == len(result.times_s)
    assert payload["config_digest"] == emulator_config_digest(em)

    em2 = build_scenario("watch-day", dt_s=120.0)
    restored = em2.load_checkpoint(ckpt)
    assert restored.delivered_j == result.delivered_j
    assert restored.times_s == result.times_s
    assert [c.soc for c in em2.controller.cells] == [c.soc for c in em.controller.cells]


def test_save_without_result_raises(tmp_path):
    em = build_scenario("watch-day", dt_s=120.0)
    with pytest.raises(CheckpointError):
        em.save_checkpoint(str(tmp_path / "x.ckpt.json"))


@pytest.mark.parametrize("engine", ENGINES)
def test_a_payload_carrying_decision_history_resumes_identically(tmp_path, engine):
    """Older ``repro.ckpt/v3`` files also carry the runtime's ratio
    decisions as a ``runtime.history`` list; restore ignores it, and the
    resumed run matches the uninterrupted one."""
    dt = 60.0
    clean = build_scenario("chaos-tablet", engine=engine, dt_s=dt).run()

    ckpt = str(tmp_path / "mid.ckpt.json")
    tracer = Tracer()
    recorder = build_scenario("chaos-tablet", engine=engine, dt_s=dt, tracer=tracer)
    recorder.checkpoint_path = ckpt
    recorder.checkpoint_every_s = 3600.0
    recorder.run()
    payload = read_checkpoint(ckpt)
    assert "history" not in payload["runtime"]
    # The older payload's history entries: each decision's time and the
    # six fields its trace event carries.
    history = [
        {"t": event.t_s, **event.fields}
        for event in tracer.events_named("runtime.ratio_decision")
        if event.t_s <= payload["sim_t_s"]
    ]
    assert history
    payload["runtime"]["history"] = history
    write_checkpoint(ckpt, payload)
    assert CKPT_FORMAT == "repro.ckpt/v3"

    resumed = build_scenario("chaos-tablet", engine=engine, dt_s=dt).run(resume_from=ckpt)
    assert recorded_metrics(resumed) == recorded_metrics(clean)
    assert_identical(clean, resumed)


def test_capture_payload_is_json_safe():
    em = build_scenario("chaos-tablet", dt_s=60.0)
    result = em.run()
    payload = capture_emulator_state(em, result)
    encoded = json.dumps(payload)  # must not raise
    assert json.loads(encoded)["step_index"] == len(result.times_s)


# --------------------------------------------------------------------- #
# Durability: the rename must be findable after a crash
# --------------------------------------------------------------------- #


class TestDirectorySync:
    def test_write_checkpoint_fsyncs_the_parent_directory(self, tmp_path, monkeypatch):
        """fsyncing the temp file alone leaves the ``os.replace`` rename
        in an unsynced directory entry — a power cut could forget the
        file existed. The writer must fsync the parent directory too."""
        import stat

        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(stat.S_IFMT(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        write_checkpoint(str(tmp_path / "x.ckpt.json"), {"k": 1})
        assert stat.S_IFREG in synced  # the payload temp file
        assert synced[-1] == stat.S_IFDIR  # then the directory entry

    def test_directory_fsync_failure_is_tolerated(self, tmp_path, monkeypatch):
        """Filesystems that reject directory fsync (some network mounts)
        must not fail the write — the data fsync already happened."""
        real_fsync = os.fsync

        def flaky_fsync(fd):
            if os.fstat(fd).st_mode & 0o170000 == 0o040000:  # S_IFDIR
                raise OSError("directory fsync unsupported")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", flaky_fsync)
        path = tmp_path / "x.ckpt.json"
        write_checkpoint(str(path), {"k": 2})
        assert read_checkpoint(str(path)) == {"k": 2}

    def test_directory_open_failure_is_tolerated(self, tmp_path, monkeypatch):
        """If the parent directory cannot even be opened read-only, the
        sync degrades to a no-op instead of an error."""
        real_open = os.open

        def failing_open(p, flags, *args, **kwargs):
            if flags & getattr(os, "O_DIRECTORY", 0):
                raise OSError("directory open unsupported")
            return real_open(p, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", failing_open)
        path = tmp_path / "x.ckpt.json"
        write_checkpoint(str(path), {"k": 3})
        assert read_checkpoint(str(path)) == {"k": 3}
