"""Tracing primitives: nesting, attributes, errors, JSON-lines round trip."""

import json
import os
import subprocess
import sys

import pytest

from repro.obs import (
    RemoteSpanContext,
    configure_tracing,
    current_span,
    current_trace_path,
    disable_tracing,
    make_traceparent,
    merge_traces,
    parse_traceparent,
    read_trace,
    span,
    span_tree,
    tracing_enabled,
)


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    configure_tracing(path)
    yield path
    disable_tracing()


class TestDisabled:
    def test_span_is_noop_when_disabled(self):
        disable_tracing()
        assert not tracing_enabled()
        with span("anything", key="value") as sp:
            assert sp is None
        assert current_span() is None

    def test_exceptions_propagate_when_disabled(self):
        disable_tracing()
        with pytest.raises(RuntimeError):
            with span("boom"):
                raise RuntimeError("x")


class TestSpans:
    def test_single_span_written_as_json_line(self, trace_file):
        with span("op", a=1, b="two") as sp:
            assert sp is not None
            assert current_span() is sp
        spans = read_trace(trace_file)
        assert len(spans) == 1
        (rec,) = spans
        assert rec["name"] == "op"
        assert rec["parent_id"] is None
        assert rec["status"] == "ok"
        assert rec["attributes"] == {"a": 1, "b": "two"}
        assert rec["duration_s"] >= 0.0
        assert rec["end_unix"] >= rec["start_unix"]

    def test_nesting_follows_call_stack(self, trace_file):
        with span("parent") as parent:
            with span("child") as child:
                assert child.parent_id == parent.span_id
                assert child.trace_id == parent.trace_id
                with span("grandchild") as gc:
                    assert gc.parent_id == child.span_id
            assert current_span() is parent
        spans = read_trace(trace_file)
        # Children finish (and are written) before parents.
        assert [s["name"] for s in spans] == ["grandchild", "child", "parent"]
        tree = span_tree(spans)
        assert [s["name"] for s in tree[None]] == ["parent"]
        parent_id = tree[None][0]["span_id"]
        assert [s["name"] for s in tree[parent_id]] == ["child"]

    def test_sibling_spans_share_parent(self, trace_file):
        with span("root") as root:
            with span("a"):
                pass
            with span("b"):
                pass
        tree = span_tree(read_trace(trace_file))
        assert {s["name"] for s in tree[root.span_id]} == {"a", "b"}

    def test_mid_flight_attributes(self, trace_file):
        with span("op") as sp:
            sp.set("result_count", 42)
        (rec,) = read_trace(trace_file)
        assert rec["attributes"]["result_count"] == 42

    def test_exception_captured_and_reraised(self, trace_file):
        with pytest.raises(ValueError, match="bad"):
            with span("failing"):
                raise ValueError("bad")
        (rec,) = read_trace(trace_file)
        assert rec["status"] == "error"
        assert rec["error"] == {"type": "ValueError", "message": "bad"}
        # The contextvar must be restored even on error.
        assert current_span() is None

    def test_non_jsonable_attributes_degrade_to_repr(self, trace_file):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        with span("op", thing=Opaque(), many=(1, 2)):
            pass
        (rec,) = read_trace(trace_file)
        assert rec["attributes"]["thing"] == "<opaque>"
        assert rec["attributes"]["many"] == [1, 2]

    def test_every_line_is_valid_json(self, trace_file):
        for i in range(5):
            with span(f"op{i}"):
                pass
        for line in trace_file.read_text().splitlines():
            json.loads(line)

    def test_separate_roots_get_separate_trace_ids(self, trace_file):
        with span("first"):
            pass
        with span("second"):
            pass
        spans = read_trace(trace_file)
        assert spans[0]["trace_id"] != spans[1]["trace_id"]

    def test_reconfigure_appends_to_new_file(self, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        configure_tracing(first)
        try:
            with span("one"):
                pass
            configure_tracing(second)
            with span("two"):
                pass
        finally:
            disable_tracing()
        assert [s["name"] for s in read_trace(first)] == ["one"]
        assert [s["name"] for s in read_trace(second)] == ["two"]

    def test_current_trace_path_follows_configuration(self, tmp_path):
        disable_tracing()
        assert current_trace_path() is None
        configure_tracing(tmp_path / "t.jsonl")
        try:
            assert current_trace_path() == tmp_path / "t.jsonl"
        finally:
            disable_tracing()


class TestTraceparent:
    def test_round_trip_preserves_identity(self, trace_file):
        with span("op") as sp:
            header = make_traceparent(sp)
        ctx = parse_traceparent(header)
        assert ctx is not None
        assert ctx.trace_id == sp.trace_id
        assert ctx.span_id == sp.span_id
        assert ctx.sampled is True

    def test_unsampled_flag_round_trips(self, trace_file):
        with span("op") as sp:
            header = make_traceparent(sp, sampled=False)
        assert header.endswith("-00")
        assert parse_traceparent(header).sampled is False

    @pytest.mark.parametrize("garbage", [
        None,
        42,
        "",
        "not a traceparent",
        "00-abc-def",                  # too few fields
        "00-abc-def-01-extra",         # too many fields
        "99-abc-def-01",               # unknown version
        "00--def-01",                  # empty trace id
        "00-abc--01",                  # empty span id
        "00-abc-def-zz",               # non-hex flags
    ])
    def test_garbage_parses_to_none(self, garbage):
        assert parse_traceparent(garbage) is None

    def test_remote_context_parents_like_a_live_span(self, trace_file):
        remote = RemoteSpanContext("trace123", "span456")
        with span("child", parent=remote) as sp:
            assert sp.trace_id == "trace123"
            assert sp.parent_id == "span456"
        (rec,) = read_trace(trace_file)
        assert rec["trace_id"] == "trace123"
        assert rec["parent_id"] == "span456"

    def test_remote_context_round_trips_through_header(self, trace_file):
        with span("router") as route:
            header = make_traceparent(route)
        with span("worker", parent=parse_traceparent(header)):
            pass
        worker = [s for s in read_trace(trace_file) if s["name"] == "worker"]
        assert worker[0]["trace_id"] == route.trace_id
        assert worker[0]["parent_id"] == route.span_id


def _write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        for sp in spans:
            fh.write(json.dumps(sp) + "\n")


def _span(name, trace_id, span_id, parent_id=None, duration_s=0.001,
          status="ok", start_unix=1.0, **attributes):
    return {
        "name": name, "trace_id": trace_id, "span_id": span_id,
        "parent_id": parent_id, "start_unix": start_unix,
        "end_unix": start_unix + duration_s, "duration_s": duration_s,
        "status": status, "attributes": attributes,
    }


class TestMergeTraces:
    def test_tail_sampler_keeps_errored_slow_and_sampled(self, tmp_path):
        router = tmp_path / "router.jsonl"
        worker = tmp_path / "worker.jsonl"
        # 10 fast boring roots + one slow, one errored, one head-sampled;
        # with 13 roots the nearest-rank p99 is the slowest duration, so
        # only the genuinely slow trace clears the tail threshold.
        boring = [_span("req", f"t{i}", f"r{i}", duration_s=0.001)
                  for i in range(10)]
        _write_spans(router, boring + [
            _span("req", "slow", "rs", duration_s=9.0),
            _span("req", "err", "re"),
            _span("req", "head", "rh", sampled=True),
        ])
        _write_spans(worker, [
            _span("work", "slow", "ws", parent_id="rs"),
            _span("work", "err", "we", parent_id="re", status="error"),
            _span("work", "head", "wh", parent_id="rh"),
        ])
        out = tmp_path / "merged.jsonl"
        stats = merge_traces([router, worker], out)
        assert stats["n_files"] == 2
        assert stats["n_spans"] == 16
        assert stats["n_traces"] == 13
        assert stats["kept_by_reason"] == {"error": 1, "slow": 1, "sampled": 1}
        assert stats["n_kept_traces"] == 3
        kept = read_trace(out)
        assert len(kept) == stats["n_kept_spans"] == 6
        # Both halves of each kept trace survive, parent links intact.
        by_trace = {}
        for sp in kept:
            by_trace.setdefault(sp["trace_id"], []).append(sp)
        assert set(by_trace) == {"slow", "err", "head"}
        for group in by_trace.values():
            child = [s for s in group if s["parent_id"]][0]
            assert child["parent_id"] in {s["span_id"] for s in group}

    def test_p99_hint_overrides_estimate(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_spans(path, [
            _span("req", "a", "sa", duration_s=0.010),
            _span("req", "b", "sb", duration_s=0.002),
        ])
        stats = merge_traces([path], tmp_path / "out.jsonl",
                             p99_hint=0.005)
        assert stats["p99_threshold_s"] == 0.005
        assert stats["kept_by_reason"]["slow"] == 1
        (kept,) = {s["trace_id"] for s in read_trace(tmp_path / "out.jsonl")},
        assert kept == {"a"}

    def test_p99_is_nearest_rank(self, tmp_path):
        # 60 roots of 1..60 s: the nearest-rank p99 (rank ceil(0.99 * 60)
        # = 60) is 60 s, so only the slowest trace clears the threshold.
        path = tmp_path / "t.jsonl"
        _write_spans(path, [
            _span("req", f"t{i}", f"s{i}", duration_s=float(i))
            for i in range(1, 61)
        ])
        stats = merge_traces([path], tmp_path / "out.jsonl")
        assert stats["p99_threshold_s"] == 60.0
        assert stats["kept_by_reason"] == {"error": 0, "slow": 1, "sampled": 0}
        assert {s["trace_id"] for s in read_trace(tmp_path / "out.jsonl")} == {"t60"}

    def test_output_sorted_by_start_time(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_spans(path, [
            _span("late", "t", "s2", start_unix=5.0, sampled=True),
            _span("early", "t", "s1", start_unix=1.0),
        ])
        merge_traces([path], tmp_path / "out.jsonl")
        assert [s["name"] for s in read_trace(tmp_path / "out.jsonl")] == \
            ["early", "late"]

    def test_unreadable_inputs_skipped(self, tmp_path):
        good = tmp_path / "good.jsonl"
        _write_spans(good, [_span("req", "t", "s", status="error")])
        stats = merge_traces(
            [good, tmp_path / "missing.jsonl"], tmp_path / "out.jsonl"
        )
        assert stats["n_files"] == 1
        assert stats["n_kept_spans"] == 1

    def test_empty_inputs_produce_empty_output(self, tmp_path):
        stats = merge_traces([], tmp_path / "out.jsonl")
        assert stats["n_spans"] == 0
        assert (tmp_path / "out.jsonl").read_text() == ""


class TestAtexitFlush:
    def test_spans_reach_disk_without_explicit_shutdown(self, tmp_path):
        # A short-lived process (e.g. a serve worker) that never calls
        # disable_tracing must still leave its spans on disk at exit.
        trace = tmp_path / "exit.jsonl"
        script = (
            "from repro.obs import configure_tracing, span\n"
            f"configure_tracing({str(trace)!r})\n"
            "with span('work', worker=3):\n"
            "    pass\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        subprocess.run([sys.executable, "-c", script], check=True, env=env)
        (rec,) = read_trace(trace)
        assert rec["name"] == "work"
        assert rec["attributes"] == {"worker": 3}
