"""StreamMetrics and the router front end: fail-closed pre-seeding and
the shm fleet plane."""

import os

import pytest

from repro.obs import MetricsRegistry, set_registry
from repro.obs.shm import merge_snapshots, scrape_planes
from repro.serve import (
    ProcessRouter,
    ServerConfig,
    ServeStatus,
    ShardedLocationStore,
)
from repro.stream import IngestOutcome, StreamMetrics
from repro.stream.metrics import PROMOTION_OUTCOMES
from tests.core.helpers import make_address, point_at


def families(registry):
    doc = registry.to_dict()
    return {m["name"]: m for m in doc["metrics"]}


class TestPreSeeding:
    def test_every_family_exists_at_zero_before_any_event(self):
        metrics = StreamMetrics(registry=MetricsRegistry())
        fams = families(metrics.registry)
        for outcome in IngestOutcome:
            rows = [s for s in fams["stream_events_total"]["samples"]
                    if s["labels"] == {"outcome": outcome.value}]
            assert rows and rows[0]["value"] == 0, outcome
        for outcome in PROMOTION_OUTCOMES:
            rows = [s for s in fams["stream_promotions_total"]["samples"]
                    if s["labels"] == {"outcome": outcome}]
            assert rows and rows[0]["value"] == 0, outcome
        for name in ("stream_stays_emitted_total",
                     "stream_stays_quarantined_total",
                     "stream_evictions_total",
                     "stream_courier_states", "stream_bus_depth",
                     "stream_pool_candidates", "stream_snapshot_version"):
            assert name in fams, name

    def test_freshness_histogram_has_the_seed_observation(self):
        """A quantile SLO must be evaluable before the first promotion."""
        from repro.obs import SLO, evaluate_slos

        metrics = StreamMetrics(registry=MetricsRegistry())
        assert metrics.freshness.count() == 1
        slo = SLO(name="freshness", metric="stream_freshness_lag_seconds",
                  kind="quantile", quantile=0.95, objective=30.0)
        report = evaluate_slos(metrics.registry.to_dict(), [slo],
                               emit_events=False)
        # Fail-closed engine: without the seed this would be a
        # no-data violation on the very first tick.
        assert report.ok, report.to_dict()

    def test_loss_identity_starts_at_zero(self):
        metrics = StreamMetrics(registry=MetricsRegistry())
        assert metrics.n_lost() == 0
        counts = metrics.event_counts()
        assert set(counts) == {o.value for o in IngestOutcome}
        assert all(v == 0 for v in counts.values())

    def test_writers_update_the_counts(self):
        metrics = StreamMetrics(registry=MetricsRegistry())
        metrics.count_event(IngestOutcome.ACCEPTED, 3)
        metrics.count_event(IngestOutcome.LATE)
        metrics.count_event(IngestOutcome.SHED, 2)
        assert metrics.event_counts()["accepted"] == 3
        assert metrics.n_lost() == 3
        metrics.count_promotion("rejected_drift")
        assert metrics.promotions.value(outcome="rejected_drift") == 1


class TestShmPlane:
    def test_plane_is_created_and_scrapeable(self, tmp_path):
        obs_dir = str(tmp_path / "obs")
        metrics = StreamMetrics(registry=MetricsRegistry(), obs_dir=obs_dir)
        assert os.path.exists(os.path.join(obs_dir, "metrics-stream.shm"))
        metrics.count_event(IngestOutcome.ACCEPTED, 7)
        metrics.count_promotion("promoted")
        metrics.set_gauge("bus_depth", 42.0)
        metrics.observe_freshness(1.5)
        metrics.close()

        # Post-mortem: the plane outlives the writer, like the serve
        # worker planes, and merges into the fleet registry.
        snapshots = scrape_planes(obs_dir)
        assert len(snapshots) == 1
        fams = families(merge_snapshots(snapshots))
        events = {tuple(sorted(s["labels"].items())): s["value"]
                  for s in fams["stream_events_total"]["samples"]}
        assert events[(("outcome", "accepted"),)] == 7
        # Pre-seeded labels are present in the plane too (fail-closed).
        assert events[(("outcome", "shed"),)] == 0
        depth = fams["stream_bus_depth"]["samples"][0]["value"]
        assert depth == 42.0

    def test_plane_mirrors_the_freshness_seed(self, tmp_path):
        obs_dir = str(tmp_path / "obs")
        metrics = StreamMetrics(registry=MetricsRegistry(), obs_dir=obs_dir)
        metrics.close()
        fams = families(merge_snapshots(scrape_planes(obs_dir)))
        sample = fams["stream_freshness_lag_seconds"]["samples"][0]
        # The merged fleet family carries the one 0.0 seed observation,
        # so a plane-only quantile gate is well-formed from tick zero.
        assert sample["count"] == 1
        assert sample["buckets"]["0.05"] == 1

    @pytest.mark.parametrize("writer", ["stream", "router"])
    def test_registry_and_plane_stay_in_sync(self, tmp_path, writer):
        """Every write lands in the registry and the plane alike."""
        registry, obs_dir = WRITERS[writer](tmp_path)
        plane = families(merge_snapshots(
            scrape_planes(obs_dir, f"metrics-{writer}.shm")
        ))
        own = families(registry)
        assert plane
        for name, family in plane.items():
            assert own[name]["type"] == family["type"], name
            assert own[name]["help"] == family["help"], name
            # A histogram slot exists before its first observation; the
            # registry has no sample for it until then.
            samples = [s for s in family["samples"] if s.get("count", 1)]
            assert own[name]["samples"] == samples, name


class TestPlaneFailure:
    @pytest.mark.parametrize("writer", ["stream", "router", "worker"])
    def test_unmappable_plane_leaves_the_registry_counting(
        self, tmp_path, writer
    ):
        """A plane path that cannot be created (here: a directory) costs
        the plane, never the tier or its registry.  A worker without its
        plane still answers: the router counts its answers."""
        obs_dir = tmp_path / "obs" if writer == "stream" else (
            tmp_path / "snap" / "obs"
        )
        name = "worker-0" if writer == "worker" else writer
        blocked = obs_dir / f"metrics-{name}.shm"
        blocked.mkdir(parents=True)
        registry, _ = WRITERS[writer](tmp_path)
        own = families(registry)
        if writer == "stream":
            assert {s["labels"]["outcome"]: s["value"]
                    for s in own["stream_events_total"]["samples"]
                    }["duplicate"] == 5
        else:
            assert {s["labels"]["status"]: s["value"]
                    for s in own["serve_requests_total"]["samples"]
                    } == {"ok": 2, "unknown_address": 1, "error": 0,
                          "rejected": 0, "timed_out": 0}
        assert blocked.is_dir()
        scraped = [snap.path for snap in scrape_planes(str(obs_dir))]
        assert str(blocked) not in scraped


def _stream_writes(tmp_path):
    registry = MetricsRegistry()
    metrics = StreamMetrics(registry=registry, obs_dir=str(tmp_path / "obs"))
    for _ in range(5):
        metrics.count_event(IngestOutcome.DUPLICATE)
    metrics.count_promotion("promoted")
    metrics.count_stays(2)
    metrics.set_gauge("bus_depth", 3.0)
    metrics.observe_freshness(0.7)
    metrics.close()
    return registry, str(tmp_path / "obs")


def _router_writes(tmp_path):
    """One OK answer, one unknown id, one worker restart, one more OK."""
    addresses = {
        f"m{i}": make_address(f"m{i}", "b0", (i * 40.0, 0.0))
        for i in range(4)
    }
    store = ShardedLocationStore(
        {a: point_at(i * 40.0 + 5.0, 3.0) for i, a in enumerate(addresses)},
        addresses, n_shards=2,
    )
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        with ProcessRouter.from_store(
            store, str(tmp_path / "snap"), n_workers=1,
            config=ServerConfig(default_timeout_s=10.0),
            heartbeat_interval_s=30.0,
        ) as router:
            statuses = [r.status for r in router.query_batch(["m0", "nope"])]
            assert statuses == [ServeStatus.OK, ServeStatus.UNKNOWN_ADDRESS]
            worker = router._workers[0]
            worker.process.kill()
            worker.process.join(5.0)
            assert router.query("m1").ok
            assert router.restarts == 1
    finally:
        set_registry(previous)
    return registry, router.obs_dir


#: The worker case runs the router: its plane is the one that is blocked.
WRITERS = {"stream": _stream_writes, "router": _router_writes,
           "worker": _router_writes}
