"""Multi-process serving: durability, routing, refresh churn, restarts.

Everything here runs real worker subprocesses over pipes (small pools,
tiny worlds) — the point is the cross-process contracts: version flips
observed through the mmap'd counter, typed errors surviving the pipe,
dead workers restarted mid-traffic, and crash recovery never serving a
torn snapshot.
"""

import os
import random
import signal
import struct
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.apps import QuerySource, UnknownAddressError
from repro.geo import Point
from repro.obs import configure_tracing, disable_tracing, merge_traces, read_trace
from repro.obs.health import SLO
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.shm import TierMetrics
from repro.serve import (
    GeohashShardStrategy,
    ProcessRouter,
    QueryServer,
    ServeStatus,
    ServerConfig,
    ShardedLocationStore,
    SnapshotPublisher,
    VersionCounter,
    load_snapshot,
)
from repro.serve.mp import (
    _OUTCOMES,
    _REPLY_ROW,
    WorkerHandle,
    append_log_record,
    read_log_records,
    worker_plane_specs,
)
from tests.core.helpers import make_address, point_at

#: Generous deadlines: restart-and-retry on a single-core CI box must
#: fit inside one request budget.
CONFIG = ServerConfig(default_timeout_s=10.0)


def small_world():
    addresses = {
        f"m{i}": make_address(f"m{i}", f"b{i % 3}", (i * 40.0, 0.0))
        for i in range(12)
    }
    locations = {
        f"m{i}": point_at(i * 40.0 + 5.0, 3.0) for i in range(8)
    }
    return addresses, locations


def publish_once(store, directory):
    """Publish ``store`` into ``directory`` and close the publisher."""
    publisher = SnapshotPublisher(str(directory))
    publisher.publish(store)
    publisher.close()


@pytest.fixture()
def store():
    addresses, locations = small_world()
    return ShardedLocationStore(
        locations, addresses, strategy=GeohashShardStrategy(4, precision=6)
    )


class TestVersionCounter:
    def test_writer_flips_are_visible_to_readers(self, tmp_path):
        path = str(tmp_path / "CURRENT")
        writer = VersionCounter(path, create=True)
        reader = VersionCounter(path)
        assert reader.get() == 0
        for version in (1, 2, 7, 7, 40):
            writer.set(version)
            assert reader.get() == version
        writer.close()
        reader.close()

    def test_open_missing_counter_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            VersionCounter(str(tmp_path / "CURRENT"))


class TestUpdateLog:
    def test_round_trip_preserves_order_and_points(self, tmp_path):
        path = str(tmp_path / "updates.log")
        batches = [
            (2, {"a": Point(1.0, 2.0)}),
            (3, {"b": Point(-3.5, 4.25), "c": Point(0.0, 0.0)}),
            (4, {}),
        ]
        for version, locations in batches:
            append_log_record(path, version, locations)
        assert read_log_records(path) == batches

    def test_torn_tail_is_discarded(self, tmp_path):
        path = str(tmp_path / "updates.log")
        append_log_record(path, 2, {"a": Point(1.0, 2.0)})
        append_log_record(path, 3, {"b": Point(5.0, 6.0)})
        with open(path, "rb") as f:
            blob = f.read()
        # Chop the last record mid-payload: writer died mid-append.
        with open(path, "wb") as f:
            f.write(blob[:-5])
        records = read_log_records(path)
        assert [v for v, _ in records] == [2]

    def test_corrupt_crc_stops_replay(self, tmp_path):
        path = str(tmp_path / "updates.log")
        append_log_record(path, 2, {"a": Point(1.0, 2.0)})
        append_log_record(path, 3, {"b": Point(5.0, 6.0)})
        with open(path, "rb") as f:
            blob = bytearray(f.read())
        length = struct.unpack_from("<I", blob, 0)[0]
        blob[8 + length + 8] ^= 0xFF  # first payload byte of record two
        with open(path, "wb") as f:
            f.write(bytes(blob))
        assert [v for v, _ in read_log_records(path)] == [2]

    def test_missing_log_is_empty(self, tmp_path):
        assert read_log_records(str(tmp_path / "nope.log")) == []

    def test_append_after_torn_tail_is_not_lost(self, tmp_path):
        # A writer killed mid-append leaves junk; a restarted publisher
        # must trim it, or every later record hides behind the tear.
        path = str(tmp_path / "updates.log")
        append_log_record(path, 1, {"a": Point(1.0, 2.0)})
        with open(path, "ab") as f:
            f.write(b"\x07" * 6)
        SnapshotPublisher(str(tmp_path)).log_update({"b": Point(3.0, 4.0)}, 2)
        assert [v for v, _ in read_log_records(path)] == [1, 2]


class TestCrashRecovery:
    """Kill the writer mid-publish; restore must never serve a torn file."""

    def test_restore_skips_corrupt_newest_snapshot(self, store, tmp_path):
        publisher = SnapshotPublisher(str(tmp_path))
        publisher.publish(store)
        good_version = store.version
        # Crash scenario: the log record for the next refresh landed and
        # the snapshot file got renamed, but its payload never finished.
        moved = {"m0": point_at(999.0, 999.0)}
        publisher.log_update(moved, good_version + 1)
        with open(publisher.path_for(good_version + 1), "wb") as f:
            f.write(b"RSNAP001" + os.urandom(64))
        publisher.close()
        restored = ShardedLocationStore.restore(str(tmp_path))
        # Recovery: newest *intact* snapshot, then the log suffix replays
        # the batch the crash separated from its snapshot.
        assert restored.version == good_version + 1
        got = restored.query_id("m0")
        assert got.location.lng == pytest.approx(moved["m0"].lng)
        assert got.location.lat == pytest.approx(moved["m0"].lat)

    def test_restore_without_any_snapshot_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ShardedLocationStore.restore(str(tmp_path))

    def test_restore_preserves_strategy_and_answers(self, store, tmp_path):
        publish_once(store, tmp_path)
        restored = ShardedLocationStore.restore(str(tmp_path))
        assert isinstance(restored.strategy, GeohashShardStrategy)
        assert restored.version == store.version
        for aid in store.address_book:
            assert restored.query_id(aid) == store.query_id(aid)


class TestProcessRouter:
    def test_query_round_trip_with_confidence(self, store, tmp_path):
        with ProcessRouter.from_store(
            store, str(tmp_path), n_workers=2, config=CONFIG,
            confidences={"m0": 0.75},
        ) as router:
            response = router.query("m0")
            assert response.status is ServeStatus.OK
            assert response.result.source == QuerySource.ADDRESS
            assert response.result.confidence == pytest.approx(0.75, abs=1e-6)
            # Confidence is per-id, not smeared across the batch.
            other = router.query("m1")
            assert other.status is ServeStatus.OK
            assert other.result.confidence is None

    def test_unknown_address_crosses_the_process_boundary(
        self, store, tmp_path
    ):
        with ProcessRouter.from_store(
            store, str(tmp_path), n_workers=2, config=CONFIG
        ) as router:
            response = router.query("never-heard-of-it")
            assert response.status is ServeStatus.UNKNOWN_ADDRESS
            assert response.result is None
            assert response.error == str(UnknownAddressError("never-heard-of-it"))
            # OK ids still resolve through the same contract.
            assert router.query("m1").result.location is not None

    def test_query_batch_mixes_statuses(self, store, tmp_path):
        with ProcessRouter.from_store(
            store, str(tmp_path), n_workers=2, config=CONFIG
        ) as router:
            ids = list(store.address_book) + ["missing-a", "missing-b"]
            responses = router.query_batch(ids)
            assert [r.address_id for r in responses] == ids
            by_id = {r.address_id: r for r in responses}
            for aid in store.address_book:
                assert by_id[aid].status is ServeStatus.OK, aid
            for aid in ("missing-a", "missing-b"):
                assert by_id[aid].status is ServeStatus.UNKNOWN_ADDRESS

    def test_concurrent_single_queries_keep_their_own_answers(
        self, store, tmp_path
    ):
        ids = sorted(store.address_book) + ["missing-a"]
        answers: list[list] = [[] for _ in range(4)]

        def client(k: int) -> None:
            for address_id in ids[k:] + ids[:k]:
                answers[k].append((address_id, router.query(address_id)))

        with ProcessRouter.from_store(
            store, str(tmp_path), n_workers=2, config=CONFIG
        ) as router:
            threads = [threading.Thread(target=client, args=(k,))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            counts = router.stats()["requests_by_status"]
        pairs = [pair for per_thread in answers for pair in per_thread]
        assert len(pairs) == 4 * len(ids)
        for address_id, response in pairs:
            assert response.address_id == address_id
            if address_id == "missing-a":
                assert response.status is ServeStatus.UNKNOWN_ADDRESS
                assert response.result is None
            else:
                assert response.status is ServeStatus.OK, address_id
                assert (response.result.location
                        == store.query_id(address_id).location), address_id
        assert sum(counts.values()) == len(pairs)

    def test_an_empty_book_answers_unknown(self, tmp_path):
        empty = ShardedLocationStore({}, {}, n_shards=2)
        with ProcessRouter.from_store(
            empty, str(tmp_path), n_workers=1, config=CONFIG
        ) as router:
            responses = router.query_batch(["x", "y", "x"])
        assert [r.status for r in responses] == [ServeStatus.UNKNOWN_ADDRESS] * 3
        assert responses[1].error == str(UnknownAddressError("y"))

    def test_start_requires_published_snapshot(self, tmp_path):
        router = ProcessRouter(str(tmp_path / "empty"), n_workers=1)
        with pytest.raises(FileNotFoundError):
            router.start()
        # Stopping the router whose start raised unmaps its metrics plane.
        assert router.telemetry.plane is not None
        router.stop()
        assert router.telemetry.plane is None

    def test_worker_stats_report_version_and_requests(self, store, tmp_path):
        with ProcessRouter.from_store(
            store, str(tmp_path), n_workers=2, config=CONFIG
        ) as router:
            router.query_batch(list(store.address_book))
            stats = router.worker_stats()
            assert len(stats) == 2
            assert {s["worker_id"] for s in stats} == {0, 1}
            # A worker that served anything mapped the published version;
            # an idle one (geohash can route every shard elsewhere) stays
            # unmapped and honestly reports 0.
            for s in stats:
                assert s["version"] == (
                    store.version if s["snapshot_loads"] > 0 else 0
                )
            served = router.metrics().counter("serve_worker_requests_total")
            assert served.total() >= len(store.address_book)


class TestBatchAccounting:
    """A batch is accounted per status and per label, not per id, and the
    counts still equal the per-id totals on both sides of the pipe."""

    def test_counts_equal_per_id_totals(self, tmp_path):
        rng = random.Random(7)
        addresses = {
            f"p{i:03d}": make_address(f"p{i:03d}", f"b{i % 12}",
                                      (i * 25.0, (i % 5) * 30.0))
            for i in range(120)
        }
        # Buildings b0..b8 get located addresses; b9..b11 answer by geocode.
        locations = {
            a: point_at(i * 25.0 + 4.0, 2.0)
            for i, a in enumerate(sorted(addresses))
            if i % 12 < 9 and rng.random() < 0.6
        }
        store = ShardedLocationStore(
            locations, addresses, strategy=GeohashShardStrategy(4, precision=6)
        )
        batch = [rng.choice(sorted(addresses)) for _ in range(509)]
        for missing in ("nope-1", "nope-2", "nope-3"):
            batch.insert(rng.randrange(len(batch) + 1), missing)
        assert len(batch) == 512 and len(set(batch)) < 509

        want_status: Counter = Counter()
        want_latency: Counter = Counter()  # (source, cache) -> OK ids
        want_worker: Counter = Counter()  # (worker, status) -> rows
        want_worker_ok: Counter = Counter()  # (worker, cache) -> OK rows
        with ProcessRouter.from_store(
            store, str(tmp_path), n_workers=2, config=CONFIG
        ) as router:
            worker_of = {a: router.worker_for_shard(router.shard_for(a))
                         for a in batch}
            assert set(worker_of.values()) == {0, 1}
            for _ in range(2):  # the first pass misses the cache, the second hits
                responses = router.query_batch(batch)
                assert [r.address_id for r in responses] == batch
                assert len({r.latency_s for r in responses}) == 1
                for r in responses:
                    want_status[r.status.value] += 1
                    want_worker[(worker_of[r.address_id], r.status.value)] += 1
                    if r.ok:
                        want_latency[(r.result.source.value, r.cache_state)] += 1
                        want_worker_ok[(worker_of[r.address_id], r.cache_state)] += 1
            requests = router.telemetry.family("serve_requests_total")
            latency = router.telemetry.family("serve_request_latency_seconds")
            for status in ServeStatus:
                assert requests.value(status=status.value) == want_status[status.value]
            for (source, cache), n in want_latency.items():
                assert latency.count(source=source, cache=cache) == n
            assert sum(s["count"] for s in latency.samples()) == sum(
                want_latency.values())
            router.stop()  # flush worker planes before the final scrape
            registry = router.metrics()
        assert want_status == {"ok": 1018, "unknown_address": 6}
        assert {c for _, c in want_latency} == {"hit", "miss"}
        assert {s for s, _ in want_latency} == {"address", "building", "geocode"}

        worker_requests = registry.counter("serve_worker_requests_total")
        worker_latency = registry.histogram("serve_worker_request_latency_seconds")
        for w in (0, 1):
            for status in ("ok", "unknown_address", "timed_out", "error"):
                assert worker_requests.value(status=status, worker=str(w)) == (
                    want_worker[(w, status)])
            # A worker keys its rows in the order it got them: its share
            # of the first pass (every known id a miss), then of the
            # second (every known id a hit).  Each label is observed once,
            # and its exemplar is the key of the label's last row.
            share = [a for a in batch if worker_of[a] == w]
            last = max(i for i, a in enumerate(share) if a in addresses)
            for p, cache in enumerate(("miss", "hit")):
                keys = [e.provenance_key for e in
                        worker_latency.exemplars(cache=cache, worker=str(w))
                        if e is not None]
                assert keys == [f"w{w}:{p * len(share) + last:08d}"], (w, cache)
            for cache in ("hit", "miss", "bypass"):
                n = worker_latency.count(cache=cache, worker=str(w))
                assert n == want_worker_ok[(w, cache)], (w, cache)

    def test_exemplar_is_the_key_of_each_labels_last_row(self, store, tmp_path):
        """In a sub-batch that mixes cache states and answering tiers, each
        label's newest exemplar keys that label's last row, whatever its
        tier."""
        first = ["m0", "m1"]  # keys w0:00000000-01, cached after
        mixed = ["m8", "m0", "m2", "m9", "m1", "m3", "nope", "m0"]
        #         miss  hit   miss  miss  hit   miss  -      hit
        with ProcessRouter.from_store(
            store, str(tmp_path), n_workers=1, config=CONFIG
        ) as router:
            router.query_batch(first)
            responses = router.query_batch(mixed)
            router.stop()  # flush the worker plane before the scrape
            registry = router.metrics()
        assert [r.result.source for r in responses[:4]] == [
            QuerySource.BUILDING, QuerySource.ADDRESS, QuerySource.ADDRESS,
            QuerySource.BUILDING]
        latency = registry.histogram("serve_worker_request_latency_seconds")
        newest = {
            cache: max((e for e in latency.exemplars(cache=cache, worker="0")
                        if e is not None), key=lambda e: e.ts_unix)
            for cache in ("hit", "miss")
        }
        # The mixed batch's row i is key 2 + i.
        assert newest["miss"].provenance_key == "w0:00000007"  # m3
        assert newest["hit"].provenance_key == "w0:00000009"  # m0 again
        assert latency.count(cache="miss", worker="0") == 2 + 4
        assert latency.count(cache="hit", worker="0") == 3


class TestRefreshContract:
    """``from_store`` keeps the store; ``apply_refresh`` refreshes it."""

    def test_apply_refresh_publishes_and_workers_serve_it(self, store, tmp_path):
        moved = point_at(777.0, 7.0)
        with ProcessRouter.from_store(
            store, str(tmp_path), n_workers=1, config=CONFIG
        ) as router:
            assert router.store is store
            assert router.query("m0").result.location != moved
            version = router.apply_refresh({"m0": moved})
            assert version == store.version == 2
            assert router.publisher.current_version() == version
            response = router.query("m0")
            assert response.result.location.lng == pytest.approx(moved.lng)
            assert response.result.location.lat == pytest.approx(moved.lat)
            assert router.stats()["store_version"] == version
        assert [v for v, _ in read_log_records(router.publisher.log_path)] == [2]

    def test_router_over_a_bare_directory_cannot_refresh(self, store, tmp_path):
        publish_once(store, tmp_path)
        router = ProcessRouter(str(tmp_path), n_workers=1)
        assert router.store is None
        with pytest.raises(RuntimeError, match="from_store"):
            router.apply_refresh({"m0": point_at(1.0, 1.0)})
        router.stop()
        assert router.telemetry.plane is None  # never started, still unmapped

    def test_stop_closes_the_publisher(self, store, tmp_path):
        router = ProcessRouter.from_store(
            store, str(tmp_path), n_workers=1, config=CONFIG
        ).start()
        assert router.publisher._counter is not None
        router.stop()
        assert router.publisher._counter is None


class TestStats:
    @pytest.mark.parametrize(
        "n, p50_ms, p95_ms", [(5, 3.0, 5.0), (30, 15.0, 29.0)]
    )
    def test_snapshot_load_percentiles_are_nearest_rank(
        self, tmp_path, n, p50_ms, p95_ms
    ):
        router = ProcessRouter(str(tmp_path), n_workers=1)
        loads = [k / 1000.0 for k in range(1, n + 1)]
        router.worker_stats = lambda: [{"load_seconds": loads[::-1]}]
        got = router.stats()["snapshot_load_ms"]
        router.stop()
        assert got["count"] == n
        assert got["p50"] == pytest.approx(p50_ms)
        assert got["p95"] == pytest.approx(p95_ms)
        assert got["max"] == pytest.approx(float(n))


class TestFrontEndParity:
    """Both serving backends answer the same ids the same way."""

    def test_thread_and_process_backends_agree(self, tmp_path):
        addresses, locations = small_world()
        addresses["solo"] = make_address("solo", "b-solo", (900.0, 0.0))
        store = ShardedLocationStore(
            locations, addresses, strategy=GeohashShardStrategy(4, precision=6)
        )
        cases = {
            "m0": QuerySource.ADDRESS,
            "m8": QuerySource.BUILDING,
            "solo": QuerySource.GEOCODE,
            "never-heard-of-it": None,
        }
        config = ServerConfig(default_timeout_s=10.0, cache_capacity=64)

        def answers(backend) -> list[tuple]:
            out = []
            for _ in range(2):
                for address_id in cases:
                    r = backend.query(address_id)
                    result = r.result
                    out.append((
                        address_id, r.status, r.cache_state,
                        None if result is None else result.location,
                        None if result is None else result.source,
                        None if result is None else result.confidence,
                    ))
            return out

        with QueryServer(store, config) as server:
            thread = answers(server)
        with ProcessRouter.from_store(
            store, str(tmp_path), n_workers=1, config=config
        ) as router:
            process = answers(router)
        assert process == thread
        for k, (address_id, status, cache_state, _, source, _) in enumerate(
            thread
        ):
            if cases[address_id] is None:
                assert status is ServeStatus.UNKNOWN_ADDRESS
                assert cache_state is None
            else:
                assert status is ServeStatus.OK
                assert source is cases[address_id]
                assert cache_state == ("miss" if k < len(cases) else "hit")

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_edge_batches_agree(self, tmp_path, n_workers):
        """Empty, one-id, all-unknown and repeated-id batches: the process
        router's batch and the thread server's queries, one per id, give
        the same answers and the same request and latency counts.  No
        cache: a thread server answers a repeated id from the cache it
        filled a moment before, a batch answers every copy alike."""
        addresses, locations = small_world()
        addresses["solo"] = make_address("solo", "b-solo", (900.0, 0.0))
        store = ShardedLocationStore(
            locations, addresses, strategy=GeohashShardStrategy(4, precision=6)
        )
        batches = [
            [],
            ["m0"],
            ["never-1", "never-2", "never-1"],
            ["m0", "m8", "solo", "m0", "nope", "m8", "m3", "m0"],
        ]
        config = ServerConfig(default_timeout_s=10.0, cache_capacity=0)

        def answers(responses) -> list[tuple]:
            return [
                (r.address_id, r.status, r.cache_state, r.error,
                 None if r.result is None else
                 (r.result.location, r.result.source, r.result.confidence))
                for r in responses
            ]

        def counts(telemetry) -> tuple[dict, dict]:
            requests = telemetry.family("serve_requests_total")
            latency = telemetry.family("serve_request_latency_seconds")
            return (
                {s: requests.value(status=s.value) for s in ServeStatus},
                {(s, c): latency.count(source=s.value, cache=c)
                 for s in QuerySource for c in ("hit", "miss", "bypass")},
            )

        set_registry(MetricsRegistry())
        with QueryServer(store, config) as server:
            thread = [answers([server.query(a) for a in batch])
                      for batch in batches]
            thread_counts = counts(server.telemetry)
        set_registry(MetricsRegistry())
        with ProcessRouter.from_store(
            store, str(tmp_path), n_workers=n_workers, config=config
        ) as router:
            process = [answers(router.query_batch(batch)) for batch in batches]
            process_counts = counts(router.telemetry)
        assert process == thread
        assert process_counts == thread_counts
        requests, latency = thread_counts
        assert requests[ServeStatus.OK] == 8
        assert requests[ServeStatus.UNKNOWN_ADDRESS] == 4
        assert latency[(QuerySource.BUILDING, "bypass")] == 2
        assert latency[(QuerySource.GEOCODE, "bypass")] == 1


class TestVersionSkew:
    """A worker finds its rows by id hash in its own snapshot, so a router
    routing against an older snapshot still gets right answers."""

    def test_worker_ahead_of_the_routing_snapshot(self, tmp_path):
        addresses, locations = small_world()
        old = ShardedLocationStore(
            locations, addresses, strategy=GeohashShardStrategy(4, precision=6)
        )
        # The next version's book drops m11, adds n0..n5 and shards by 8,
        # so the ids it shares with the old one sit in other rows; every
        # id it knows has a location no old answer has.
        book = {a: addr for a, addr in addresses.items() if a != "m11"}
        book.update({f"n{i}": make_address(f"n{i}", "b-new", (i * 40.0, 90.0))
                     for i in range(6)})
        new = ShardedLocationStore(
            {a: point_at(i * 40.0 + 17.0, 60.0) for i, a in enumerate(sorted(book))},
            book, strategy=GeohashShardStrategy(8, precision=6),
            initial_version=old.version + 1,
        )
        ids = sorted(set(addresses) | set(book)) + ["nowhere"]
        publisher = SnapshotPublisher(str(tmp_path))
        publisher.publish(old)
        with ProcessRouter(str(tmp_path), n_workers=2, config=CONFIG) as router:
            router.query_batch(ids)  # both workers map the old version
            routing = router._ensure_routing()
            publisher.publish(new)
            # Keep routing against the old version while the workers load
            # the new one.
            router._ensure_routing = lambda: routing
            worker_of = {a: router.worker_for_shard(router.shard_for(a))
                         for a in ids}
            batch = ids + ids[::-1]
            responses = router.query_batch(batch)
            stats = router.worker_stats()
        publisher.close()
        new_snap = load_snapshot(publisher.path_for(new.version))
        shared = sorted(set(addresses) & set(book))
        assert (routing.version, new_snap.version) == (old.version, new.version)
        assert (routing.lookup_rows(shared) != new_snap.lookup_rows(shared)).any()
        assert set(worker_of.values()) == {0, 1}
        assert [s["version"] for s in stats] == [new.version] * 2
        for address_id, response in zip(batch, responses):
            if address_id in book:
                assert response.status is ServeStatus.OK, address_id
                assert response.result == new.query_id(address_id), address_id
            else:
                assert response.status is ServeStatus.UNKNOWN_ADDRESS, address_id


class TestWorkerDeath:
    def test_killed_worker_is_restarted_and_queries_recover(
        self, store, tmp_path
    ):
        with ProcessRouter.from_store(
            store, str(tmp_path), n_workers=2, config=CONFIG,
            heartbeat_interval_s=30.0,  # restarts must come from the query path
        ) as router:
            before = router.query_batch(list(store.address_book))
            assert all(r.status is ServeStatus.OK for r in before)
            # Which workers actually carry this world's shards?  Restart
            # is lazy — only a worker the query path dispatches to gets
            # resurrected, so the assertions track the serving set.
            serving = {
                s["worker_id"]: s["pid"]
                for s in router.worker_stats()
                if s["snapshot_loads"] > 0
            }
            assert serving
            for worker in list(router._workers):
                worker.process.kill()
                worker.process.join(5.0)
            after = router.query_batch(list(store.address_book))
            assert all(r.status is ServeStatus.OK for r in after), [
                (r.address_id, r.status, r.error) for r in after
            ]
            assert router.restarts >= len(serving)
            for index, old_pid in serving.items():
                replacement = router._workers[index]
                assert replacement.alive
                assert replacement.process.pid != old_pid


class TestUnansweredSubBatches:
    """Sub-batches no worker answers cross the pipe as status codes with
    one error text per id, and are counted like any other answer."""

    def test_deadlines_on_both_sides_and_worker_errors(self, store, tmp_path):
        ids = ["m0", "m9", "nope", "m0"]
        with ProcessRouter.from_store(
            store, str(tmp_path), n_workers=1, config=CONFIG,
            heartbeat_interval_s=30.0,
        ) as router:
            assert all(r.ok for r in router.query_batch(ids[:2]))
            # Past its deadline on arrival: the worker answers no id.
            late = router.query_batch(ids, timeout_s=1e-9)
            # A stalled worker: the router stops waiting at the deadline.
            worker = router._workers[0]
            os.kill(worker.process.pid, signal.SIGSTOP)
            try:
                stalled = router.query_batch(ids, timeout_s=0.2)
            finally:
                os.kill(worker.process.pid, signal.SIGCONT)
            # A worker that fails on a sub-batch answers every id ERROR.
            rows, errors = worker.wait(
                worker.send("q", ids, b"\x00" * 3, None, None), 10.0)
            requests = router.telemetry.family("serve_requests_total")
            timed_out = requests.value(status="timed_out")
        for responses in (late, stalled):
            assert [r.address_id for r in responses] == ids
            assert {r.status for r in responses} == {ServeStatus.TIMED_OUT}
            assert all(r.result is None and r.cache_state is None
                       for r in responses)
        assert {r.error for r in late} <= {
            "deadline exceeded before evaluation",
            "deadline exceeded while waiting",
        }
        assert {r.error for r in stalled} == {"deadline exceeded while waiting"}
        assert timed_out == 2 * len(ids)
        codes = np.frombuffer(rows, _REPLY_ROW)["code"].tolist()
        assert [_OUTCOMES[c] for c in codes] == [(ServeStatus.ERROR, None, None)] * 4
        assert sorted(errors) == list(range(len(ids)))
        assert all(e.startswith("ValueError: ") for e in errors.values())


class TestFleetObservability:
    """Shared-memory planes, merged registry, and cross-process traces."""

    def _status_sums(self, registry, name):
        out = {}
        for family in registry.to_dict()["metrics"]:
            if family["name"] != name:
                continue
            for sample in family["samples"]:
                status = sample["labels"].get("status", "")
                out[status] = out.get(status, 0.0) + sample["value"]
        return out

    def test_merged_export_conserves_request_counts(self, store, tmp_path):
        ids = list(store.address_book)
        with ProcessRouter.from_store(
            store, str(tmp_path), n_workers=2, config=CONFIG
        ) as router:
            for _ in range(3):
                responses = router.query_batch(ids)
                assert all(r.status is ServeStatus.OK for r in responses)
            router.stop()  # flush worker planes before the final scrape
            registry = router.metrics()
        n_issued = 3 * len(ids)
        router_counts = self._status_sums(registry, "serve_requests_total")
        worker_counts = self._status_sums(
            registry, "serve_worker_requests_total"
        )
        # Conservation: every finished request was recorded by exactly
        # one worker plane, so the sums match the router's — exactly.
        assert router_counts.get("ok") == n_issued
        assert worker_counts.get("ok") == n_issued
        assert sum(router_counts.values()) == sum(worker_counts.values())
        # Healthy run: restart/heartbeat families are present (pre-seeded
        # per worker, fail-closed SLOs need the zero samples) and at zero.
        assert registry.counter("serve_worker_restarts_total").total() == 0
        assert registry.counter(
            "serve_worker_heartbeat_misses_total"
        ).total() == 0
        # The worker cache's hit ratio is read off the latency histogram's
        # cache labels: pass one misses, passes two and three hit.
        latency = registry.histogram("serve_worker_request_latency_seconds")
        by_cache = {}
        for sample in latency.samples():
            cache = sample["labels"]["cache"]
            by_cache[cache] = by_cache.get(cache, 0) + sample["count"]
        assert by_cache == {"hit": 2 * len(ids), "miss": len(ids),
                            "bypass": 0}
        names = {m["name"] for m in registry.to_dict()["metrics"]}
        assert not names & {"serve_worker_cache_events_total",
                            "serve_cache_events_total",
                            "provenance_records_total",
                            "flightrecorder_dumps_total"}

    def test_forked_worker_counts_only_its_own_rows(self, store, tmp_path):
        # The parent's registry already holds 500 rows of worker 0; a
        # fork-started worker inherits it, but its plane must report only
        # its own 5.
        parent = MetricsRegistry()
        TierMetrics(parent, worker_plane_specs(0)).inc(
            "serve_worker_requests_total", 500, status="ok", worker="0"
        )
        previous = set_registry(parent)
        try:
            ids = list(store.address_book)[:5]
            with ProcessRouter.from_store(
                store, str(tmp_path), n_workers=1, config=CONFIG,
                start_method="fork",
            ) as router:
                router.query_batch(ids)
                router.stop()
                registry = router.metrics()
        finally:
            set_registry(previous)
        counter = registry.counter("serve_worker_requests_total")
        assert counter.value(status="ok", worker="0") == 5

    def test_fleet_verdict_over_merged_planes(self, store, tmp_path):
        ids = list(store.address_book)
        with ProcessRouter.from_store(
            store, str(tmp_path), n_workers=2, config=CONFIG
        ) as router:
            assert all(
                r.status is ServeStatus.OK for r in router.query_batch(ids)
            )
            router.stop()
            report = router.fleet_verdict([
                SLO(name="error-rate", metric="serve_requests_total",
                    kind="error_rate", objective=0.01,
                    bad=(("status", ("error",)),)),
                SLO(name="restarts", metric="serve_worker_restarts_total",
                    kind="max", objective=0),
            ])
        assert report.ok, report.to_dict()
        assert report.source == "fleet"

    def test_live_verdict_equals_the_export_verdict(self, store, tmp_path):
        from repro.obs import get_registry
        from repro.obs.health import evaluate_slos

        ids = list(store.address_book) + ["nowhere"]
        slos = [
            SLO(name="errors", metric="serve_requests_total",
                kind="error_rate", objective=0.01,
                bad=(("status", ("error",)),)),
            SLO(name="misspelt", metric="serve_request_latency_second",
                objective=1.0),
        ]
        with ProcessRouter.from_store(
            store, str(tmp_path), n_workers=2, config=CONFIG
        ) as router:
            statuses = [r.status for r in router.query_batch(ids)]
            live = router.verdict(slos)
        assert statuses[-1] is ServeStatus.UNKNOWN_ADDRESS
        # The autouse fixture gave this test a fresh registry.
        exported = evaluate_slos(get_registry().to_dict(), slos,
                                 emit_events=False)
        assert live.source == "live"
        assert [(r.slo.name, r.ok, r.observed) for r in live.results] == [
            (r.slo.name, r.ok, r.observed) for r in exported.results
        ]
        assert [(r.ok, r.observed) for r in live.results] == [
            (True, 0.0), (False, None)
        ]

    def test_metrics_scrape_touches_no_worker_pipes(
        self, store, tmp_path, monkeypatch
    ):
        ids = list(store.address_book)
        with ProcessRouter.from_store(
            store, str(tmp_path), n_workers=2, config=CONFIG,
            heartbeat_interval_s=30.0,
        ) as router:
            assert all(
                r.status is ServeStatus.OK for r in router.query_batch(ids)
            )

            def no_pipes(self, *args, **kwargs):
                raise AssertionError("metrics scrape sent a pipe message")

            monkeypatch.setattr(WorkerHandle, "send", no_pipes)
            registry = router.metrics()
        worker_total = registry.counter("serve_worker_requests_total").total()
        assert worker_total >= len(ids)

    def test_restart_counter_attributes_killed_workers(self, store, tmp_path):
        ids = list(store.address_book)
        with ProcessRouter.from_store(
            store, str(tmp_path), n_workers=2, config=CONFIG,
            heartbeat_interval_s=30.0,
        ) as router:
            assert all(
                r.status is ServeStatus.OK for r in router.query_batch(ids)
            )
            serving = {
                s["worker_id"] for s in router.worker_stats()
                if s["snapshot_loads"] > 0
            }
            assert serving
            for worker in list(router._workers):
                worker.process.kill()
                worker.process.join(5.0)
            after = router.query_batch(ids)
            assert all(r.status is ServeStatus.OK for r in after)
            registry = router.metrics()
            restarts = registry.counter("serve_worker_restarts_total")
            assert restarts.total() == router.restarts >= len(serving)
            for index in serving:
                assert restarts.value(worker=str(index)) >= 1, index
            # The restarted workers attached to the existing planes: the
            # pre-kill request counts survived the restart (monotonic).
            worker_counts = self._status_sums(
                registry, "serve_worker_requests_total"
            )
            assert worker_counts.get("ok", 0) >= len(ids)

    def test_cross_process_span_parentage(self, store, tmp_path):
        configure_tracing(tmp_path / "router-trace.jsonl")
        try:
            with ProcessRouter.from_store(
                store, str(tmp_path / "snap"), n_workers=2, config=CONFIG
            ) as router:
                responses = router.query_batch(list(store.address_book))
                assert all(r.status is ServeStatus.OK for r in responses)
                router.stop()  # workers flush their span files on shutdown
                stats = router.trace_dump(str(tmp_path / "merged.jsonl"))
        finally:
            disable_tracing()
        assert stats["n_files"] >= 2        # router file + >=1 worker file
        assert stats["n_kept_spans"] >= 2
        spans = read_trace(tmp_path / "merged.jsonl")
        routes = {s["span_id"]: s for s in spans if s["name"] == "serve.route"}
        requests = [s for s in spans if s["name"] == "serve.request"]
        assert routes and requests
        linked = [
            s for s in requests
            if s.get("parent_id") in routes
            and s["trace_id"] == routes[s["parent_id"]]["trace_id"]
        ]
        assert linked, spans
        # The child spans really come from other processes.
        assert all(
            s["attributes"].get("pid") not in (None, os.getpid())
            for s in linked
        )
        # Workers re-stamp the router's head-sampling decision, so a
        # post-mortem merge of the worker files ALONE (no router trace
        # file — the obs-export path after a front-end crash) still
        # keeps the sampled traces.
        assert all(s["attributes"].get("sampled") for s in linked)
        worker_files = sorted(
            os.path.join(router.obs_dir, name)
            for name in os.listdir(router.obs_dir)
            if name.startswith("trace-worker-")
        )
        worker_only = merge_traces(
            worker_files, tmp_path / "workers-only.jsonl"
        )
        assert worker_only["n_kept_spans"] >= len(linked)
        assert worker_only["kept_by_reason"]["sampled"] >= 1

    def test_tracing_off_means_no_worker_span_files(self, store, tmp_path):
        disable_tracing()
        with ProcessRouter.from_store(
            store, str(tmp_path), n_workers=2, config=CONFIG
        ) as router:
            router.query_batch(list(store.address_book))
            obs_dir = router.obs_dir
        assert [
            name for name in os.listdir(obs_dir)
            if name.startswith("trace-worker-")
        ] == []


class TestRefreshChurn:
    """Acceptance: readers in other processes see zero errors while the
    publisher keeps flipping versions under them."""

    def test_concurrent_readers_during_refresh(self, store, tmp_path):
        publisher = SnapshotPublisher(str(tmp_path))
        publisher.publish(store)
        ids = list(store.address_book)
        errors: list[str] = []
        stop = threading.Event()

        with ProcessRouter(
            str(tmp_path), n_workers=2, config=CONFIG
        ) as router:

            def reader() -> None:
                i = 0
                while not stop.is_set():
                    for response in router.query_batch(
                        [ids[i % len(ids)], ids[(i + 5) % len(ids)]]
                    ):
                        if response.status is not ServeStatus.OK:
                            errors.append(
                                f"{response.address_id}: "
                                f"{response.status.value} {response.error}"
                            )
                    i += 1

            threads = [threading.Thread(target=reader) for _ in range(3)]
            for thread in threads:
                thread.start()
            try:
                for round_no in range(6):
                    moved = {
                        aid: point_at(50.0 * round_no + i, 7.0)
                        for i, aid in enumerate(ids)
                    }
                    publisher.refresh(store, moved)
                    time.sleep(0.05)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(10.0)
            assert errors == [], errors[:5]
            # Workers converged on the newest version: the counter flip
            # propagated through mmap polling, no restart needed.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                router.query_batch(ids)
                serving = [
                    s for s in router.worker_stats() if s["snapshot_loads"] > 0
                ]
                if serving and all(
                    s["version"] == store.version for s in serving
                ):
                    break
            assert serving and all(
                s["version"] == store.version for s in serving
            )
            # The serving workers really did remap at least once mid-run.
            assert all(s["snapshot_loads"] >= 2 for s in serving)
        publisher.close()
        assert store.version > 1
