"""Load generator: seeded determinism, report math, end-to-end runs."""

import random

import pytest

from repro.apps.store import QueryResult, QuerySource
from repro.obs.health import percentile
from repro.serve import (
    LoadGenerator,
    QueryServer,
    ServeResponse,
    ServeStatus,
    ServerConfig,
    build_report,
    closed_sequences,
    poisson_schedule,
)
from tests.core.helpers import point_at

IDS = [f"a{i}" for i in range(12)]


class TestDeterminism:
    """All randomness flows from the explicit rng; no module-level state."""

    def test_poisson_schedule_identical_at_same_seed(self):
        one = poisson_schedule(IDS, 200.0, 1.5, random.Random(42))
        two = poisson_schedule(IDS, 200.0, 1.5, random.Random(42))
        assert one == two
        assert len(one) > 100  # ~300 expected arrivals

    def test_poisson_schedule_differs_across_seeds(self):
        one = poisson_schedule(IDS, 200.0, 1.5, random.Random(1))
        two = poisson_schedule(IDS, 200.0, 1.5, random.Random(2))
        assert one != two

    def test_closed_sequences_identical_at_same_seed(self):
        one = closed_sequences(IDS, 4, 64, random.Random(7))
        two = closed_sequences(IDS, 4, 64, random.Random(7))
        assert one == two
        assert len(one) == 4
        assert all(len(seq) == 64 for seq in one)

    def test_global_random_state_is_untouched(self):
        random.seed(123)
        before = random.getstate()
        poisson_schedule(IDS, 100.0, 0.5, random.Random(0))
        closed_sequences(IDS, 2, 16, random.Random(0))
        assert random.getstate() == before

    def test_schedule_offsets_are_sorted_within_duration(self):
        schedule = poisson_schedule(IDS, 300.0, 0.5, random.Random(0))
        offsets = [r.offset_s for r in schedule]
        assert offsets == sorted(offsets)
        assert all(0.0 < t < 0.5 for t in offsets)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_schedule([], 100.0, 1.0, random.Random(0))
        with pytest.raises(ValueError):
            poisson_schedule(IDS, 0.0, 1.0, random.Random(0))
        with pytest.raises(ValueError):
            closed_sequences(IDS, 0, 8, random.Random(0))


class TestPercentile:
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50.0) == 50.0
        assert percentile(values, 95.0) == 95.0
        assert percentile(values, 99.0) == 99.0
        assert percentile(values, 100.0) == 100.0

    def test_small_and_empty(self):
        assert percentile([], 99.0) == 0.0
        assert percentile([3.0], 50.0) == 3.0
        assert percentile([3.0], 99.0) == 3.0


def _response(status, latency=0.001, cache_state=None, source=None):
    result = (
        QueryResult(point_at(0.0, 0.0), source) if source is not None else None
    )
    return ServeResponse("a0", status, result, cache_state, latency)


class TestBuildReport:
    def test_counts_and_rates(self):
        responses = (
            [_response(ServeStatus.OK, 0.001, "hit", QuerySource.ADDRESS)] * 6
            + [_response(ServeStatus.OK, 0.002, "miss", QuerySource.BUILDING)] * 2
            + [_response(ServeStatus.REJECTED)] * 3
            + [_response(ServeStatus.TIMED_OUT)]
            + [_response(ServeStatus.UNKNOWN_ADDRESS)]
        )
        report = build_report("closed", responses, duration_s=2.0)
        assert report.n_issued == 13
        assert report.n_ok == 8
        assert report.n_rejected == 3
        assert report.n_timed_out == 1
        assert report.n_unknown == 1
        assert report.n_errors == 0
        assert report.throughput_rps == pytest.approx(4.0)
        assert report.cache_hit_rate == pytest.approx(6 / 8)
        assert report.by_source == {"address": 6, "building": 2}
        assert report.latency_ms["p50"] == pytest.approx(1.0)
        assert report.latency_ms["max"] == pytest.approx(2.0)

    def test_report_round_trips_and_renders(self):
        report = build_report(
            "open", [_response(ServeStatus.OK, 0.001, "hit", QuerySource.ADDRESS)],
            duration_s=1.0,
        )
        payload = report.to_dict()
        assert payload["workload"] == "open"
        assert payload["latency_ms"]["p99"] > 0
        text = report.render()
        assert "throughput" in text
        assert "cache hit rate" in text


class TestEndToEnd:
    def test_closed_loop_against_live_server(self, served_world):
        addresses, _, store = served_world
        config = ServerConfig(n_workers=4, queue_capacity=128)
        with QueryServer(store, config) as server:
            generator = LoadGenerator(server, sorted(addresses), random.Random(0))
            report = generator.run_closed(n_clients=4, duration_s=0.3)
        assert report.workload == "closed"
        assert report.n_ok > 0
        assert report.n_errors == 0
        assert report.throughput_rps > 0
        assert report.latency_ms["p50"] <= report.latency_ms["p95"]
        assert report.latency_ms["p95"] <= report.latency_ms["p99"]
        assert report.server["requests_by_status"]["ok"] == report.n_ok

    def test_open_loop_issues_the_full_schedule(self, served_world):
        addresses, _, store = served_world
        config = ServerConfig(n_workers=2, queue_capacity=128)
        expected = len(
            poisson_schedule(sorted(addresses), 150.0, 0.4, random.Random(5))
        )
        with QueryServer(store, config) as server:
            generator = LoadGenerator(server, sorted(addresses), random.Random(5))
            report = generator.run_open(rate_rps=150.0, duration_s=0.4)
        assert report.workload == "open"
        assert report.n_issued == expected
        assert report.n_errors == 0

    def test_empty_address_pool_rejected(self, served_world):
        _, _, store = served_world
        with QueryServer(store, ServerConfig(n_workers=1)) as server:
            with pytest.raises(ValueError):
                LoadGenerator(server, [], random.Random(0))
