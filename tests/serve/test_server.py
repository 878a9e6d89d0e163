"""Query server: worker pool, backpressure, deadlines, obs wiring."""

import threading

import pytest

from repro.apps import QuerySource
from repro.obs import get_registry
from repro.obs.provenance import ProvenanceRing, set_provenance_ring
from repro.obs.recorder import configure_recorder, reset_recorder
from repro.serve import (
    QueryRouter,
    QueryServer,
    ServeStatus,
    ServerConfig,
)
from tests.core.helpers import point_at


class GatedRouter(QueryRouter):
    """Router whose resolution blocks until released (concurrency probes)."""

    def __init__(self, store):
        super().__init__(store)
        self.entered = threading.Event()
        self.release = threading.Event()

    def resolve(self, address_id):
        self.entered.set()
        assert self.release.wait(5.0), "gate never released"
        return super().resolve(address_id)


class TestBasicServing:
    def test_query_resolves_with_provenance(self, served_world):
        _, _, store = served_world
        with QueryServer(store, ServerConfig(n_workers=2)) as server:
            response = server.query("a0")
            assert response.ok
            assert response.status is ServeStatus.OK
            assert response.result.source == QuerySource.ADDRESS
            assert response.cache_state == "miss"
            assert response.latency_s > 0
            # Second hit comes from the cache.
            again = server.query("a0")
            assert again.cache_state == "hit"
            assert again.result == response.result

    def test_unknown_address_is_structured_not_a_crash(self, served_world):
        _, _, store = served_world
        with QueryServer(store, ServerConfig(n_workers=1)) as server:
            response = server.query("never-seen")
            assert response.status is ServeStatus.UNKNOWN_ADDRESS
            assert response.result is None
            assert "never-seen" in response.error
            # The worker survives and keeps serving.
            assert server.query("a1").ok

    def test_fallback_tiers_travel_through_the_server(self, served_world):
        _, _, store = served_world
        with QueryServer(store, ServerConfig(n_workers=1)) as server:
            assert server.query("a0").result.source == QuerySource.ADDRESS
            # a8..a11 have no inferred location; b-buildings 0..2 all have
            # located addresses, so the building tier answers.
            assert server.query("a8").result.source == QuerySource.BUILDING

    def test_lifecycle_guards(self, served_world):
        _, _, store = served_world
        server = QueryServer(store, ServerConfig(n_workers=1))
        with pytest.raises(RuntimeError):
            server.submit("a0")
        server.start()
        with pytest.raises(RuntimeError):
            server.start()
        server.stop()
        server.stop()  # idempotent
        with pytest.raises(RuntimeError):
            server.submit("a0")


class TestBackpressure:
    def test_full_queue_rejects_immediately(self, served_world):
        _, _, store = served_world
        router = GatedRouter(store)
        config = ServerConfig(n_workers=1, queue_capacity=1)
        with QueryServer(store, config, router=router) as server:
            held = server.submit("a0", timeout_s=5.0)
            assert router.entered.wait(5.0)   # worker is busy with a0
            queued = server.submit("a1", timeout_s=5.0)
            rejected = server.submit("a2", timeout_s=5.0)
            assert rejected.done()            # no waiting: instant verdict
            response = rejected.result()
            assert response.status is ServeStatus.REJECTED
            assert "queue full" in response.error
            router.release.set()
            assert held.result().ok
            assert queued.result().ok
        counts = server.stats()["requests_by_status"]
        assert counts["rejected"] == 1
        assert counts["ok"] == 2

    def test_client_side_deadline(self, served_world):
        _, _, store = served_world
        router = GatedRouter(store)
        config = ServerConfig(n_workers=1, queue_capacity=4)
        with QueryServer(store, config, router=router) as server:
            held = server.submit("a0", timeout_s=5.0)
            assert router.entered.wait(5.0)
            starved = server.submit("a1", timeout_s=0.05)
            response = starved.result()
            assert response.status is ServeStatus.TIMED_OUT
            router.release.set()
            assert held.result().ok
        counts = server.stats()["requests_by_status"]
        assert counts["timed_out"] == 1

    def test_late_worker_answer_is_not_accounted(self, served_world):
        # The worker finishes resolving a0 after its client timed out:
        # only the TIMED_OUT the client saw may be counted, observed or
        # minted — `repro explain a0` must not report it served.
        _, _, store = served_world
        ring = ProvenanceRing(capacity=16)
        previous = set_provenance_ring(ring)
        try:
            router = GatedRouter(store)
            config = ServerConfig(n_workers=1, queue_capacity=4)
            with QueryServer(store, config, router=router) as server:
                pending = server.submit("a0", timeout_s=0.05)
                assert router.entered.wait(5.0)
                assert pending.result().status is ServeStatus.TIMED_OUT
                router.release.set()
            # stop() joined the worker, so its late answer was handled.
        finally:
            set_provenance_ring(previous)
        counts = server.stats()["requests_by_status"]
        assert counts["ok"] == 0
        assert counts["timed_out"] == 1
        latency = get_registry().histogram("serve_request_latency_seconds")
        assert latency.count(source="address", cache="bypass") == 0
        assert ring.find("a0") == []

    def test_worker_discards_expired_queued_work(self, served_world):
        _, _, store = served_world
        router = GatedRouter(store)
        config = ServerConfig(n_workers=1, queue_capacity=4)
        with QueryServer(store, config, router=router) as server:
            held = server.submit("a0", timeout_s=5.0)
            assert router.entered.wait(5.0)
            starved = server.submit("a1", timeout_s=0.01)
            import time
            time.sleep(0.05)                  # expire it while queued
            router.release.set()
            assert held.result().ok
            assert starved.result().status is ServeStatus.TIMED_OUT


class TestRefresh:
    def test_apply_refresh_swaps_and_invalidates_cache(self, served_world):
        addresses, _, store = served_world
        with QueryServer(store, ServerConfig(n_workers=2)) as server:
            before = server.query("a0")
            assert server.query("a0").cache_state == "hit"
            moved = point_at(999.0, 0.0)
            version = server.apply_refresh({"a0": moved})
            assert version == 2
            after = server.query("a0")
            assert after.cache_state == "miss"   # cache dropped on swap
            assert after.result.location == moved
            assert before.result.location != moved

    def test_refresh_mid_load_causes_zero_errors(self, served_world):
        """Acceptance: atomic snapshot swap is invisible to the query path."""
        addresses, locations, store = served_world
        config = ServerConfig(n_workers=4, queue_capacity=256,
                              cache_ttl_s=0.005)
        ids = sorted(addresses)
        with QueryServer(store, config) as server:
            stop = threading.Event()
            moved = {aid: point_at(1000.0 + i, 0.0)
                     for i, aid in enumerate(ids)}

            def churn():
                flip = False
                while not stop.wait(0.0005):
                    server.apply_refresh(moved if flip else locations)
                    flip = not flip

            churner = threading.Thread(target=churn)
            churner.start()
            responses = []
            for i in range(600):
                responses.append(server.query(ids[i % len(ids)],
                                              timeout_s=5.0))
            stop.set()
            churner.join()
        bad = [r for r in responses
               if r.status not in (ServeStatus.OK,)]
        assert bad == []
        assert store.version > 1  # at least one swap landed mid-load


class TestObservability:
    def test_metrics_are_registered_and_labeled(self, served_world):
        _, _, store = served_world
        with QueryServer(store, ServerConfig(n_workers=2)) as server:
            server.query("a0")
            server.query("a0")
            server.query("missing-id")
        registry = get_registry()
        requests = registry.counter("serve_requests_total")
        assert requests.value(status="ok") == 2
        assert requests.value(status="unknown_address") == 1
        latency = registry.histogram("serve_request_latency_seconds")
        assert latency.count(source="address", cache="miss") == 1
        assert latency.count(source="address", cache="hit") == 1
        assert registry.gauge("serve_queue_depth").value() is not None
        # The cache hit ratio comes from the latency cache labels alone.
        names = {m["name"] for m in registry.to_dict()["metrics"]}
        assert "serve_cache_events_total" not in names

    def test_answers_leave_the_flight_recorder_ring_to_events(
        self, served_world
    ):
        # Answered requests add nothing to the black-box ring, so the
        # start event survives a run much longer than the ring.
        _, _, store = served_world
        recorder = configure_recorder()
        try:
            with QueryServer(store, ServerConfig(n_workers=2)) as server:
                for i in range(2000):
                    assert server.query(f"a{i % 8}").ok
            names = [e["name"] for e in recorder.entries()]
            assert "serve.start" in names
        finally:
            reset_recorder()

    def test_stats_snapshot_shape(self, served_world):
        _, _, store = served_world
        config = ServerConfig(n_workers=3, queue_capacity=7)
        with QueryServer(store, config) as server:
            server.query("a0")
            stats = server.stats()
        assert stats["n_workers"] == 3
        assert stats["queue_capacity"] == 7
        assert stats["store_version"] == 1
        assert stats["store_size"] == len(store)
        assert stats["requests_by_status"]["ok"] == 1
        assert "cache" in stats

    def test_request_spans_are_emitted(self, served_world, tmp_path):
        from repro.obs import configure_tracing, disable_tracing, read_trace

        _, _, store = served_world
        trace_path = tmp_path / "serve-trace.jsonl"
        configure_tracing(trace_path)
        try:
            with QueryServer(store, ServerConfig(n_workers=1)) as server:
                server.query("a0")
        finally:
            disable_tracing()
        spans = read_trace(trace_path)
        serve_spans = [s for s in spans if s["name"] == "serve.request"]
        assert len(serve_spans) == 1
        assert serve_spans[0]["attributes"]["address_id"] == "a0"
        assert serve_spans[0]["attributes"]["status"] == "ok"


class TestConcurrentServing:
    def test_direct_path_answers_correctly_under_concurrency(
        self, served_world
    ):
        addresses, _, store = served_world
        config = ServerConfig(n_workers=4, queue_capacity=256,
                              cache_capacity=0)
        ids = sorted(addresses)
        asked = [ids[i % len(ids)] for i in range(64)]
        with QueryServer(store, config) as server:
            pendings = [server.submit(a, timeout_s=5.0) for a in asked]
            responses = [p.result() for p in pendings]
        for address_id, response in zip(asked, responses):
            assert response.ok, response
            assert response.address_id == address_id
            assert response.cache_state == "bypass"
            assert (response.result.location
                    == store.query_id(address_id).location), address_id
        assert server.stats()["requests_by_status"]["ok"] == 64


class TestServerHealth:
    def test_worker_span_reparents_under_submitter(self, served_world, tmp_path):
        from repro.obs import configure_tracing, disable_tracing, read_trace, span

        _, _, store = served_world
        trace_path = tmp_path / "reparent-trace.jsonl"
        configure_tracing(trace_path)
        try:
            with QueryServer(store, ServerConfig(n_workers=1)) as server:
                with span("caller.batch"):
                    server.submit("a0").result()
        finally:
            disable_tracing()
        spans = {s["name"]: s for s in read_trace(trace_path)}
        request = spans["serve.request"]
        caller = spans["caller.batch"]
        # The worker runs on its own thread, yet its span threads back to
        # the submitting span instead of floating as a new trace root.
        assert request["parent_id"] == caller["span_id"]
        assert request["trace_id"] == caller["trace_id"]

    def test_health_windows_record_requests_and_depth(self, served_world):
        _, _, store = served_world
        with QueryServer(store, ServerConfig(n_workers=2)) as server:
            for _ in range(5):
                server.query("a0")
        assert server.health.queue_depth_series()

    def test_live_verdict_equals_the_export_verdict(self, served_world):
        from repro.obs.health import SLO, evaluate_slos

        _, _, store = served_world
        router = GatedRouter(store)
        config = ServerConfig(n_workers=1, queue_capacity=1)
        with QueryServer(store, config, router=router) as server:
            held = server.submit("a0", timeout_s=5.0)
            assert router.entered.wait(5.0)
            flood = [server.submit("a1", timeout_s=5.0) for _ in range(199)]
            router.release.set()
            responses = [held.result()] + [p.result() for p in flood]
            slos = [
                SLO(name="errors", metric="serve_requests_total",
                    kind="error_rate", objective=0.01,
                    bad=(("status", ("error",)),)),
                SLO(name="misspelt", metric="serve_request_latency_second",
                    objective=1.0),
            ]
            live = server.verdict(slos)
        rejected = sum(r.status is ServeStatus.REJECTED for r in responses)
        assert rejected == 198
        # The autouse fixture gave this test a fresh registry.
        exported = evaluate_slos(get_registry().to_dict(), slos,
                                 emit_events=False)
        assert [(r.slo.name, r.ok, r.observed) for r in live.results] == [
            (r.slo.name, r.ok, r.observed) for r in exported.results
        ]
        # Rejections are not errors, and a misspelt metric has no data.
        assert [(r.ok, r.observed) for r in live.results] == [
            (True, 0.0), (False, None)
        ]

    def test_live_verdict_from_server(self, served_world):
        from repro.obs.health import SLO

        _, _, store = served_world
        with QueryServer(store, ServerConfig(n_workers=2)) as server:
            for _ in range(10):
                server.query("a0")
            report = server.verdict([
                SLO(name="p95", metric="serve_request_latency_seconds",
                    objective=5.0, kind="quantile", quantile=0.95),
                SLO(name="err", metric="serve_requests_total",
                    objective=0.01, kind="error_rate"),
            ])
        assert report.source == "live"
        assert report.ok and report.exit_code == 0
