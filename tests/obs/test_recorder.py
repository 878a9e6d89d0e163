"""Flight recorder: bounded ring, anomaly triggers, black-box dumps."""

import pytest

from repro.obs import events as events_mod
from repro.obs.recorder import (
    FlightRecorder,
    configure_recorder,
    get_recorder,
    load_blackbox,
    render_blackbox,
    reset_recorder,
)


@pytest.fixture(autouse=True)
def _fresh_recorder():
    reset_recorder()
    yield
    reset_recorder()


class TestRing:
    def test_ring_is_bounded_and_ordered(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.note_event(f"e{i}")
        names = [e["name"] for e in recorder.entries()]
        assert names == ["e6", "e7", "e8", "e9"]

    def test_note_kinds_are_tagged(self):
        recorder = FlightRecorder(capacity=8)
        recorder.note_span({"name": "s", "trace_id": "t", "duration_s": 0.1})
        recorder.note_event("ev", level="warning", fields={"k": 1})
        kinds = [e["kind"] for e in recorder.entries()]
        assert kinds == ["span", "event"]


class TestTrigger:
    def test_trigger_without_dump_dir_records_but_returns_none(self):
        recorder = FlightRecorder(capacity=8)
        assert recorder.trigger("gate_refusal", context={"tick": 1}) is None
        assert any(
            e["kind"] == "event" and "gate_refusal" in e["name"]
            for e in recorder.entries()
        )

    def test_dump_is_atomic_json_with_ring_and_context(self, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=tmp_path)
        recorder.note_event("before")
        path = recorder.trigger(
            "slo_violation",
            context={"why": "p99"},
            registry_doc={"metrics": []},
            slo={"ok": False, "results": []},
            provenance=[{"key": "main:00000001", "address_id": "a1",
                         "status": "ok"}],
        )
        assert path is not None and path.name == "blackbox-slo_violation-0000.json"
        assert not list(tmp_path.glob("*.tmp"))
        payload = load_blackbox(path)
        assert payload["trigger"] == "slo_violation"
        assert payload["context"]["why"] == "p99"
        assert any(e["name"] == "before" for e in payload["ring"])
        assert payload["provenance"][0]["key"] == "main:00000001"

    def test_max_dumps_cap_still_counts(self, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=tmp_path, max_dumps=2)
        paths = [recorder.trigger("worker_crash") for _ in range(5)]
        assert sum(1 for p in paths if p is not None) == 2
        assert len(list(tmp_path.glob("blackbox-*.json"))) == 2
        # Every trigger past the cap is still noted in the ring.
        crashes = [e for e in recorder.entries()
                   if e["name"] == "flightrecorder_worker_crash"]
        assert len(crashes) == 5

    def test_render_blackbox_is_readable(self, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=tmp_path)
        path = recorder.trigger(
            "gate_refusal",
            context={"served_version": 3, "rejected_candidate_version": 4},
            slo={"ok": False,
                 "results": [{"ok": False, "name": "p99",
                              "observed": 2.0, "objective": 1.0}]},
        )
        text = render_blackbox(load_blackbox(path))
        assert "gate_refusal" in text
        assert "served_version" in text and "3" in text
        assert "p99" in text


class TestEventHook:
    def test_anomaly_event_triggers_recorder(self, tmp_path):
        configure_recorder(capacity=16, dump_dir=tmp_path)
        events_mod.event(
            "slo_violation", level="warning", component="health", slo="p99"
        )
        dumps = list(tmp_path.glob("blackbox-slo_violation-*.json"))
        assert len(dumps) == 1
        payload = load_blackbox(dumps[0])
        assert payload["context"]["component"] == "health"

    def test_ordinary_events_are_noted_not_dumped(self, tmp_path):
        recorder = configure_recorder(capacity=16, dump_dir=tmp_path)
        events_mod.event("stream_promotion", component="stream", version=2)
        assert not list(tmp_path.glob("blackbox-*.json"))
        assert any(
            e["kind"] == "event" and e["name"] == "stream_promotion"
            for e in recorder.entries()
        )

    def test_get_recorder_is_a_singleton_until_reset(self):
        a = get_recorder()
        assert get_recorder() is a
        reset_recorder()
        assert get_recorder() is not a
