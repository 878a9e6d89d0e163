"""Structured event log: JSON-lines sink, level gating, stdlib bridge."""

import logging

import pytest

from repro.obs import configure_events, event, read_events


@pytest.fixture
def event_file(tmp_path):
    path = tmp_path / "events.jsonl"
    configure_events(path, level="debug")
    yield path
    configure_events(None)


class TestEventSink:
    def test_event_written_as_json_line(self, event_file):
        event("refresh.complete", component="service", n_trips=10, incremental=True)
        (rec,) = read_events(event_file)
        assert rec["event"] == "refresh.complete"
        assert rec["component"] == "service"
        assert rec["level"] == "info"
        assert rec["n_trips"] == 10
        assert rec["incremental"] is True
        assert rec["ts_unix"] > 0

    def test_level_gates_file_sink(self, tmp_path):
        path = tmp_path / "e.jsonl"
        configure_events(path, level="warning")
        try:
            event("quiet", level="debug")
            event("loud", level="error")
        finally:
            configure_events(None)
        events = read_events(path)
        assert [e["event"] for e in events] == ["loud"]

    def test_non_jsonable_fields_degrade_to_repr(self, event_file):
        class Widget:
            def __repr__(self):
                return "<widget>"

        event("made", widget=Widget())
        (rec,) = read_events(event_file)
        assert rec["widget"] == "<widget>"

    def test_no_sink_is_silent(self):
        configure_events(None)
        event("into.the.void", n=1)  # must not raise

    def test_torn_tail_is_skipped(self, event_file):
        event("first", n=1)
        event("second", n=2)
        with open(event_file, "a", encoding="utf-8") as fh:
            fh.write('{"ts_unix": 1.0, "level": "in')  # killed mid-line
        assert [r["event"] for r in read_events(event_file)] == ["first", "second"]


class TestStdlibBridge:
    def test_events_forward_to_stdlib_logging(self, event_file, caplog):
        with caplog.at_level(logging.INFO, logger="repro.service"):
            event("refresh.complete", component="service", n_trips=3)
        assert any(
            "refresh.complete" in rec.getMessage() and rec.name == "repro.service"
            for rec in caplog.records
        )

    def test_levels_map_to_stdlib_levels(self, event_file, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.pipeline"):
            event("stage.complete", level="debug", component="pipeline")
            event("stage.fail", level="error", component="pipeline")
        levels = {rec.getMessage().split()[0]: rec.levelno for rec in caplog.records}
        assert levels["stage.complete"] == logging.DEBUG
        assert levels["stage.fail"] == logging.ERROR
