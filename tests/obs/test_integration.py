"""End-to-end observability: trace the pipeline, export + render metrics.

The acceptance path of the obs subsystem: a full ``fit`` + ``query`` run
with tracing enabled yields a JSON-lines trace whose span tree covers all
five pipeline stages, and the exported metrics file renders
request counters and query-latency histograms through ``repro metrics``.
"""

import pytest

from repro.cli import main
from repro.core import DLInfMA, DLInfMAConfig
from repro.obs import (
    MetricsRegistry,
    configure_tracing,
    disable_tracing,
    export_metrics,
    get_registry,
    read_trace,
    set_registry,
    span_tree,
)
from repro.serve import QueryServer, ServerConfig, ShardedLocationStore

STAGE_NAMES = (
    "stay_point_extraction",
    "pool_construction",
    "profile_build",
    "feature_extraction",
    "training",
)


@pytest.fixture
def fresh_registry():
    previous = set_registry(MetricsRegistry())
    yield get_registry()
    set_registry(previous)


@pytest.fixture
def traced(tmp_path):
    path = tmp_path / "trace.jsonl"
    configure_tracing(path)
    yield path
    disable_tracing()


def _fast_config(**kwargs):
    return DLInfMAConfig(selector="maxtc-ilc", **kwargs)


def _fit(workload, trips=None):
    return DLInfMA(_fast_config()).fit(
        workload.trips if trips is None else trips,
        workload.addresses,
        workload.ground_truth,
        workload.train_ids,
        workload.val_ids,
        projection=workload.projection,
    )


def _served_store(workload):
    model = _fit(workload)
    inferred = model.predict(model.extractor.delivered)
    return ShardedLocationStore(inferred, workload.addresses)


class TestTracedFitAndQuery:
    def test_span_tree_covers_all_five_stages(self, tiny_workload, traced, fresh_registry):
        store = _served_store(tiny_workload)
        address = next(iter(tiny_workload.addresses.values()))
        store.query(address)

        spans = read_trace(traced)
        by_id = {s["span_id"]: s for s in spans}
        names = {s["name"] for s in spans}
        for stage in STAGE_NAMES:
            assert stage in names, f"stage {stage} missing from trace"

        # All five stage spans sit under the dlinfma.fit root.
        roots = [s for s in spans if s["parent_id"] is None]
        assert [r["name"] for r in roots] == ["dlinfma.fit"]
        for stage in STAGE_NAMES:
            node = next(s for s in spans if s["name"] == stage)
            ancestors = []
            while node["parent_id"] is not None:
                node = by_id[node["parent_id"]]
                ancestors.append(node["name"])
            assert ancestors[-1] == "dlinfma.fit"

        tree = span_tree(spans)
        fit_span = next(s for s in spans if s["name"] == "dlinfma.fit")
        child_names = {s["name"] for s in tree.get(fit_span["span_id"], [])}
        assert "training" in child_names
        assert all(s["status"] == "ok" for s in spans)

    def test_update_path_traces_incremental_stages(self, tiny_workload, traced):
        trips = sorted(tiny_workload.trips, key=lambda t: t.t_start)
        half = len(trips) // 2
        model = _fit(tiny_workload, trips[:half])
        model.update(
            trips[half:],
            tiny_workload.ground_truth,
            tiny_workload.train_ids,
            tiny_workload.val_ids,
        )
        spans = read_trace(traced)
        update = next(s for s in spans if s["name"] == "dlinfma.update")
        assert update["attributes"]["n_new_trips"] == len(trips) - half
        update_children = {
            s["name"] for s in spans if s["parent_id"] == update["span_id"]
        }
        assert "pool_construction" in update_children
        assert "feature_extraction" in update_children

    def test_query_latency_histogram_by_source(self, tiny_workload, fresh_registry):
        store = _served_store(tiny_workload)
        with QueryServer(store, ServerConfig(n_workers=2)) as server:
            for address_id in tiny_workload.addresses:
                assert server.query(address_id, timeout_s=5.0).ok
        hist = fresh_registry.histogram("serve_request_latency_seconds")
        total = sum(
            sample["count"] for sample in hist.samples()
        )
        assert total == len(tiny_workload.addresses)
        assert hist.count(source="address", cache="miss") > 0

    def test_locmatcher_training_metrics(self, tiny_workload, fresh_registry):
        from dataclasses import replace

        from repro.core import LocMatcherConfig

        config = DLInfMAConfig(
            selector="locmatcher",
            locmatcher=replace(LocMatcherConfig(), max_epochs=3, patience=2),
        )
        DLInfMA(config).fit(
            tiny_workload.trips,
            tiny_workload.addresses,
            tiny_workload.ground_truth,
            tiny_workload.train_ids,
            tiny_workload.val_ids,
            projection=tiny_workload.projection,
        )
        assert fresh_registry.gauge("locmatcher_train_loss").value() is not None
        assert fresh_registry.gauge("locmatcher_epochs_run").value() == 3
        accuracy = fresh_registry.gauge("locmatcher_train_accuracy").value()
        assert 0.0 <= accuracy <= 1.0
        assert fresh_registry.histogram("locmatcher_grad_norm").count() > 0

    def test_metrics_cli_renders_export(self, tiny_workload, tmp_path, fresh_registry, capsys):
        fresh_registry.counter("serve_requests_total").inc(3, status="ok")
        fresh_registry.histogram("serve_request_latency_seconds").observe(
            0.0004, source="address"
        )
        path = tmp_path / "metrics.json"
        export_metrics(path, fresh_registry, meta={"git_sha": "deadbeef"})
        assert main(["metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "serve_requests_total{status=ok}" in out
        assert "serve_request_latency_seconds{source=address}" in out
        assert "deadbeef" in out

    def test_metrics_cli_missing_file(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path / "nope.json")]) == 1
