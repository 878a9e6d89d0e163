"""Structured events: the stdlib logging bridge and the flight-recorder ring."""

import logging

import pytest

from repro.obs import event
from repro.obs.recorder import configure_recorder, load_blackbox, reset_recorder


@pytest.fixture
def recorder(tmp_path):
    yield configure_recorder(capacity=16, dump_dir=tmp_path)
    reset_recorder()


class TestEventSink:
    def test_event_noted_in_flight_recorder(self, recorder):
        event("refresh.complete", component="service", n_trips=10, incremental=True)
        (entry,) = recorder.entries()
        assert entry["kind"] == "event"
        assert entry["name"] == "refresh.complete"
        assert entry["level"] == "info"
        assert entry["fields"] == {"n_trips": 10, "incremental": True}
        assert entry["ts_unix"] > 0

    def test_non_jsonable_fields_degrade_to_repr(self, recorder, tmp_path):
        class Widget:
            def __repr__(self):
                return "<widget>"

        event("slo_violation", level="warning", widget=Widget())
        (dump,) = tmp_path.glob("blackbox-slo_violation-*.json")
        payload = load_blackbox(dump)
        assert payload["context"]["widget"] == "<widget>"
        assert payload["ring"][0]["fields"]["widget"] == "<widget>"

    def test_no_sink_is_silent(self):
        event("into.the.void", n=1)  # must not raise


class TestStdlibBridge:
    def test_events_forward_to_stdlib_logging(self, recorder, caplog):
        with caplog.at_level(logging.INFO, logger="repro.service"):
            event("refresh.complete", component="service", n_trips=3)
        assert any(
            "refresh.complete" in rec.getMessage() and rec.name == "repro.service"
            for rec in caplog.records
        )

    def test_levels_map_to_stdlib_levels(self, recorder, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.pipeline"):
            event("stage.complete", level="debug", component="pipeline")
            event("stage.slow", level="warning", component="pipeline")
            event("stage.fail", level="error", component="pipeline")
        levels = {rec.getMessage().split()[0]: rec.levelno for rec in caplog.records}
        # Nothing below info reaches stdlib logging; the ring keeps it.
        assert "stage.complete" not in levels
        assert levels["stage.slow"] == logging.WARNING
        assert levels["stage.fail"] == logging.ERROR
        assert [e["name"] for e in recorder.entries()] == [
            "stage.complete", "stage.slow", "stage.fail"
        ]
