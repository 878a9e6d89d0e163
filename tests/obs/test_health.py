"""SLO parsing, histogram quantile math, payload evaluation, queue-depth series."""

import json
import logging
import pathlib
import sys
import threading
import types

import pytest

from repro.obs import MetricsRegistry, set_registry
from repro.obs.health import (
    SLO,
    QueueDepthSeries,
    _parse_mini_yaml,
    evaluate_slos,
    histogram_quantile,
    load_slo_file,
    parse_slos,
)
from repro.obs.recorder import configure_recorder, reset_recorder
from repro.obs.shm import MetricsPlane, SlotSpec, merge_snapshots

SPEC_TEXT = """\
# objectives gating the serving tier
slos:
  - name: p95-latency
    metric: serve_request_latency_seconds
    kind: quantile
    quantile: 0.95
    objective: 0.25
  - name: error-rate
    metric: serve_requests_total
    kind: error_rate
    objective: 0.01
    bad:
      status: [error, timed_out]
"""


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = set_registry(MetricsRegistry())
    try:
        yield
    finally:
        set_registry(previous)


def _payload(registry: MetricsRegistry) -> dict:
    return json.loads(json.dumps(registry.to_dict()))


class TestSLOParsing:
    def test_from_dict_normalizes(self):
        slo = SLO.from_dict({
            "name": "s", "metric": "m", "objective": 0.5,
            "kind": "error_rate", "labels": {"b": "2", "a": "1"},
            "bad": {"status": ["error"]},
        })
        assert slo.labels == (("a", "1"), ("b", "2"))
        assert slo.bad == (("status", ("error",)),)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown SLO fields"):
            SLO.from_dict({"name": "s", "metric": "m", "objective": 1, "frobs": 2})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown SLO kind"):
            SLO(name="s", metric="m", objective=1.0, kind="median")

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError, match="quantile"):
            SLO(name="s", metric="m", objective=1.0, quantile=1.5)

    def test_parse_accepts_bare_list(self):
        slos = parse_slos([{"name": "s", "metric": "m", "objective": 1}])
        assert len(slos) == 1 and slos[0].kind == "quantile"

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="no objectives"):
            parse_slos({"slos": []})

    def test_mini_yaml_parses_spec(self):
        payload = _parse_mini_yaml(SPEC_TEXT)
        slos = parse_slos(payload)
        assert [s.name for s in slos] == ["p95-latency", "error-rate"]
        assert slos[0].quantile == 0.95
        assert slos[1].bad == (("status", ("error", "timed_out")),)

    def test_load_slo_file_yaml_and_json(self, tmp_path):
        yml = tmp_path / "slo.yaml"
        yml.write_text(SPEC_TEXT)
        assert [s.name for s in load_slo_file(yml)] == ["p95-latency", "error-rate"]
        jsn = tmp_path / "slo.json"
        jsn.write_text(json.dumps(
            {"slos": [{"name": "j", "metric": "m", "objective": 1}]}
        ))
        assert load_slo_file(jsn)[0].name == "j"

    def test_yaml_never_goes_through_pyyaml(self, tmp_path, monkeypatch):
        class Unusable(types.ModuleType):
            def safe_load(self, text):
                raise AssertionError("PyYAML must not parse SLO files")

        monkeypatch.setitem(sys.modules, "yaml", Unusable("yaml"))
        yml = tmp_path / "slo.yaml"
        yml.write_text(SPEC_TEXT)
        assert [s.name for s in load_slo_file(yml)] == ["p95-latency", "error-rate"]


#: Every checked-in CI spec and the objectives it must parse to:
#: ``(name, metric, kind, objective, bad)`` in file order.
CI_SPECS = {
    "slo.yaml": [
        ("serve-p95-latency", "serve_request_latency_seconds", "quantile", 0.25, ()),
        ("serve-error-rate", "serve_requests_total", "error_rate", 0.01,
         (("status", ("error",)),)),
        ("serve-queue-depth", "serve_queue_depth", "max", 4096, ()),
    ],
    "slo-fleet.yaml": [
        ("serve-p95-latency", "serve_request_latency_seconds", "quantile", 0.25, ()),
        ("serve-error-rate", "serve_requests_total", "error_rate", 0.01,
         (("status", ("error",)),)),
        ("fleet-worker-error-rows", "serve_worker_requests_total", "error_rate",
         0.01, (("status", ("error",)),)),
        ("fleet-worker-restarts", "serve_worker_restarts_total", "max", 0, ()),
        ("fleet-heartbeat-misses", "serve_worker_heartbeat_misses_total", "max",
         5, ()),
        ("fleet-snapshot-version-lag", "serve_worker_snapshot_version_lag", "max",
         2, ()),
    ],
    "slo-stream.yaml": [
        ("stream-ingest-loss-rate", "stream_events_total", "error_rate", 0.01,
         (("outcome", ("late", "shed")),)),
        ("stream-freshness-p95", "stream_freshness_lag_seconds", "quantile",
         30.0, ()),
        ("stream-bus-depth", "stream_bus_depth", "max", 8192, ()),
    ],
}
CI_DIR = pathlib.Path(__file__).resolve().parents[2] / "ci"


class TestCheckedInSpecs:
    def test_every_ci_spec_is_covered(self):
        assert sorted(p.name for p in CI_DIR.glob("slo*.yaml")) == sorted(CI_SPECS)

    @pytest.mark.parametrize("name", sorted(CI_SPECS))
    def test_ci_spec_loads_to_its_objectives(self, name):
        slos = load_slo_file(CI_DIR / name)
        got = [(s.name, s.metric, s.kind, s.objective, s.bad) for s in slos]
        assert got == CI_SPECS[name]
        assert all(s.description for s in slos)
        for slo in slos:
            if slo.kind == "quantile":
                assert slo.quantile == 0.95


class TestHistogramQuantile:
    BOUNDS = (0.1, 0.5, 1.0)

    def test_interpolates_within_bucket(self):
        # 10 observations uniformly in (0.1, 0.5]: p50 is mid-bucket.
        value = histogram_quantile(self.BOUNDS, (0, 10, 10, 10), 0.5)
        assert value == pytest.approx(0.3)

    def test_q0_and_q1_boundaries(self):
        cumulative = (2, 5, 10, 10)
        assert histogram_quantile(self.BOUNDS, cumulative, 0.0) == pytest.approx(0.0)
        assert histogram_quantile(self.BOUNDS, cumulative, 1.0) == pytest.approx(1.0)

    def test_rank_exactly_on_bucket_boundary(self):
        # rank == cumulative[0]: stays in the first bucket, at its upper edge.
        value = histogram_quantile(self.BOUNDS, (5, 10, 10, 10), 0.5)
        assert value == pytest.approx(0.1)

    def test_inf_mass_clamps_to_last_finite_bound(self):
        assert histogram_quantile(self.BOUNDS, (0, 0, 0, 10), 0.95) == 1.0

    def test_empty_histogram_returns_none(self):
        assert histogram_quantile(self.BOUNDS, (0, 0, 0, 0), 0.95) is None

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="len\\(bounds\\)\\+1"):
            histogram_quantile(self.BOUNDS, (1, 2, 3), 0.5)

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            histogram_quantile(self.BOUNDS, (5, 3, 5, 5), 0.5)


class TestMergedExportQuantile:
    """A quantile SLO over a multi-worker merged export judges the pooled
    observations, not an average of per-worker quantiles."""

    BUCKETS = (0.05, 0.1, 0.5, 1.0)
    PER_WORKER = {
        "0": (0.01, 0.02, 0.06, 0.3),
        "1": (0.07, 0.09, 0.4, 0.8, 2.0),
        "2": (0.03, 0.55),
    }

    def _merged_payload(self, tmp_path) -> dict:
        planes = []
        for worker, values in self.PER_WORKER.items():
            plane = MetricsPlane.create(
                str(tmp_path / f"metrics-w{worker}.shm"),
                (SlotSpec("histogram", "lat_seconds",
                          (("worker", worker),), self.BUCKETS),),
                meta={"worker": worker},
            )
            idx = plane.slot("lat_seconds", worker=worker)
            for v in values:
                plane.observe(idx, v)
            planes.append(plane)
        merged = merge_snapshots([p.read() for p in planes])
        for plane in planes:
            plane.close()
        return json.loads(json.dumps(merged.to_dict()))

    def _pooled_cumulative(self, values) -> list:
        registry = MetricsRegistry()
        h = registry.histogram("lat_seconds", buckets=self.BUCKETS)
        for v in values:
            h.observe(v)
        (sample,) = h.samples()
        return ([sample["buckets"][str(b)] for b in self.BUCKETS]
                + [sample["buckets"]["+Inf"]])

    @staticmethod
    def _observed(payload, metric, q, labels=()):
        slo = SLO(name="lat", metric=metric, objective=1e9, kind="quantile",
                  quantile=q, labels=labels)
        (result,) = evaluate_slos(payload, [slo], emit_events=False).results
        return result.observed

    def test_quantile_equals_pooled_observations(self, tmp_path):
        payload = self._merged_payload(tmp_path)
        pooled = self._pooled_cumulative(
            [v for vs in self.PER_WORKER.values() for v in vs]
        )
        for q in (0.5, 0.9, 0.95, 0.99):
            expected = histogram_quantile(list(self.BUCKETS), pooled, q)
            assert self._observed(payload, "lat_seconds", q) == \
                pytest.approx(expected), q

    def test_label_filter_selects_one_worker(self, tmp_path):
        payload = self._merged_payload(tmp_path)
        pooled = self._pooled_cumulative(self.PER_WORKER["1"])
        expected = histogram_quantile(list(self.BUCKETS), pooled, 0.5)
        observed = self._observed(
            payload, "lat_seconds", 0.5, labels=(("worker", "1"),)
        )
        assert observed == pytest.approx(expected)

    def test_absent_family_returns_none(self, tmp_path):
        payload = self._merged_payload(tmp_path)
        assert self._observed(payload, "nope_seconds", 0.5) is None
        assert self._observed(
            payload, "lat_seconds", 0.5, labels=(("worker", "9"),)
        ) is None


class TestEvaluateAgainstPayload:
    def _slo_latency(self, objective=0.25):
        return SLO(name="lat", metric="lat_seconds", objective=objective,
                   kind="quantile", quantile=0.95)

    def test_quantile_pass_and_fail(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat_seconds", buckets=(0.05, 0.25, 1.0))
        for _ in range(100):
            h.observe(0.01)
        report = evaluate_slos(
            _payload(registry), [self._slo_latency()], emit_events=False
        )
        assert report.ok and report.exit_code == 0
        strict = evaluate_slos(
            _payload(registry), [self._slo_latency(objective=0.001)],
            emit_events=False,
        )
        assert not strict.ok and strict.exit_code == 1

    def test_missing_metric_is_violation(self):
        report = evaluate_slos({"metrics": []}, [self._slo_latency()],
                               emit_events=False)
        assert not report.ok
        assert report.results[0].observed is None

    def test_empty_histogram_is_violation(self):
        registry = MetricsRegistry()
        registry.histogram("lat_seconds", buckets=(0.1,))
        report = evaluate_slos(_payload(registry), [self._slo_latency()],
                               emit_events=False)
        assert not report.ok

    def test_error_rate_with_bad_labels(self):
        registry = MetricsRegistry()
        c = registry.counter("requests_total")
        c.inc(98, status="ok")
        c.inc(2, status="error")
        slo = SLO(name="err", metric="requests_total", objective=0.05,
                  kind="error_rate", bad=(("status", ("error",)),))
        report = evaluate_slos(_payload(registry), [slo], emit_events=False)
        assert report.ok
        assert report.results[0].observed == pytest.approx(0.02)
        assert report.results[0].detail["burn_rate"] == pytest.approx(0.4)

    def test_max_over_gauge(self):
        registry = MetricsRegistry()
        registry.gauge("queue_depth").set(12, shard="a")
        registry.gauge("queue_depth").set(3, shard="b")
        slo = SLO(name="q", metric="queue_depth", objective=10, kind="max")
        report = evaluate_slos(_payload(registry), [slo], emit_events=False)
        assert not report.ok and report.results[0].observed == 12.0

    def test_label_filter_narrows_samples(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(100, tier="cold")
        registry.gauge("g").set(1, tier="hot")
        slo = SLO(name="hot-only", metric="g", objective=10, kind="max",
                  labels=(("tier", "hot"),))
        assert evaluate_slos(_payload(registry), [slo], emit_events=False).ok

    def test_violation_emits_event(self, tmp_path, caplog):
        recorder = configure_recorder(dump_dir=tmp_path)
        try:
            with caplog.at_level(logging.WARNING, logger="repro.health"):
                evaluate_slos({"metrics": []}, [self._slo_latency()])
        finally:
            reset_recorder()
        names = [e["name"] for e in recorder.entries()]
        assert "slo_violation" in names
        assert any(rec.getMessage().startswith("slo_violation ")
                   for rec in caplog.records)
        assert list(tmp_path.glob("blackbox-slo_violation-*.json"))

    def test_render_mentions_verdict(self):
        report = evaluate_slos({"metrics": []}, [self._slo_latency()],
                               emit_events=False)
        text = report.render()
        assert "VIOLATED" in text and text.endswith("health: VIOLATED")


class TestQueueDepthSeries:
    def test_keeps_the_max_reading_per_bucket(self):
        series = QueueDepthSeries()
        series.note_queue_depth(1, t=10.0)
        series.note_queue_depth(7, t=10.05)
        series.note_queue_depth(3, t=10.09)
        series.note_queue_depth(2, t=10.3)
        assert series.queue_depth_series() == [(0.0, 7), (0.3, 2)]

    def test_length_is_bounded_to_the_latest_buckets(self):
        series = QueueDepthSeries()
        series.note_queue_depth(0, t=0.0)
        for i in range(1000):  # one reading mid-way through each bucket
            series.note_queue_depth(i, t=(i + 0.5) * QueueDepthSeries.BUCKET_S)
        rows = series.queue_depth_series()
        assert len(rows) == QueueDepthSeries.MAX_BUCKETS == 600
        assert rows[0] == (40.0, 400) and rows[-1] == (99.9, 999)

    def test_late_reading_folds_into_the_latest_bucket(self):
        # A reading taken just before another thread's later one may be
        # noted after it: the series stays ordered and keeps the max.
        series = QueueDepthSeries()
        series.note_queue_depth(1, t=0.0)
        series.note_queue_depth(2, t=0.25)
        series.note_queue_depth(9, t=0.15)
        assert series.queue_depth_series() == [(0.0, 1), (0.2, 9)]

    def test_concurrent_readings_lose_no_maximum(self):
        series = QueueDepthSeries()
        n_threads, n_readings = 8, 10000

        def writer(k):
            for i in range(n_readings):
                series.note_queue_depth(i * n_threads + k)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(k,))
                       for k in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        rows = series.queue_depth_series()
        times = [t for t, _ in rows]
        assert times == sorted(set(times))
        assert max(d for _, d in rows) == n_threads * n_readings - 1
