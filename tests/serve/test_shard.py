"""The in-process store: shard keys, one-reference swap, concurrent safety."""

import threading
import time

import pytest

from repro.apps import QuerySource, UnknownAddressError
from repro.apps.store import aggregate_building_locations
from repro.serve import (
    GeohashShardStrategy,
    HashShardStrategy,
    ProcessRouter,
    ShardedLocationStore,
    SnapshotPublisher,
)
from repro.serve.shard import _stable_hash
from tests.core.helpers import make_address, point_at


@pytest.fixture()
def world():
    addresses = {
        "a1": make_address("a1", "b1", (0.0, 0.0)),
        "a2": make_address("a2", "b1", (5.0, 0.0)),
        "a3": make_address("a3", "b1", (10.0, 0.0)),
        "a4": make_address("a4", "b2", (500.0, 0.0)),
    }
    locations = {
        "a1": point_at(20.0, 0.0),
        "a2": point_at(20.0, 0.0),
        "a3": point_at(300.0, 0.0),
    }
    return addresses, locations


class TestStrategies:
    def test_hash_strategy_in_range_and_deterministic(self):
        strategy = HashShardStrategy(4)
        ids = [f"a{i:04d}" for i in range(200)]
        shards = [strategy.shard_of(i) for i in ids]
        assert all(0 <= s < 4 for s in shards)
        assert shards == [strategy.shard_of(i) for i in ids]
        # Uniform-ish: every shard gets some of 200 ids.
        assert len(set(shards)) == 4

    def test_geohash_strategy_groups_nearby_addresses(self):
        strategy = GeohashShardStrategy(8, precision=5)
        # Two addresses a few meters apart share a geohash-5 cell
        # (~4.9 km x 4.9 km) and therefore a shard.
        near1 = make_address("n1", "b", (0.0, 0.0))
        near2 = make_address("n2", "b", (5.0, 5.0))
        assert strategy.shard_of("n1", near1) == strategy.shard_of("n2", near2)

    def test_geohash_strategy_falls_back_without_address(self):
        strategy = GeohashShardStrategy(8)
        assert 0 <= strategy.shard_of("nowhere", None) < 8

    def test_invalid_shard_counts(self):
        with pytest.raises(ValueError):
            HashShardStrategy(0)
        with pytest.raises(ValueError):
            GeohashShardStrategy(4, precision=0)


class TestQueryParity:
    """Every strategy answers the same three-tier fallback."""

    @pytest.mark.parametrize("strategy_cls", [HashShardStrategy, GeohashShardStrategy])
    def test_three_tiers(self, world, strategy_cls):
        addresses, locations = world
        store = ShardedLocationStore(locations, addresses, strategy=strategy_cls(3))
        assert store.query(addresses["a1"]).source == QuerySource.ADDRESS
        newcomer = make_address("new", "b1", (2.0, 2.0))
        assert store.query(newcomer).source == QuerySource.BUILDING
        stranger = make_address("s", "nowhere", (42.0, 0.0))
        assert store.query(stranger).location == stranger.geocode

    def test_query_id_and_unknown(self, world):
        addresses, locations = world
        store = ShardedLocationStore(locations, addresses)
        assert store.query_id("a1").source == QuerySource.ADDRESS
        with pytest.raises(UnknownAddressError):
            store.query_id("missing")
        with pytest.raises(KeyError):  # back-compat contract
            store.query_id("missing")


class TestCopyOnWrite:
    def test_update_swaps_snapshot_and_bumps_version(self, world):
        addresses, locations = world
        store = ShardedLocationStore(locations, addresses, n_shards=4)
        before = store.snapshot()
        store.update({"a4": point_at(510.0, 0.0)})
        after = store.snapshot()
        assert after is not before
        assert after.version == before.version + 1
        # The old generation is untouched.
        assert "a4" not in before.by_address
        assert "b2" not in before.by_building
        assert store.query_id("a4").source == QuerySource.ADDRESS

    def test_empty_update_is_a_noop(self, world):
        addresses, locations = world
        store = ShardedLocationStore(locations, addresses)
        before = store.snapshot()
        store.update({})
        assert store.snapshot() is before

    def test_replace_rebuilds_everything(self, world):
        # A full refresh is a fresh store: nothing of the old table stays.
        addresses, _ = world
        store = ShardedLocationStore({"a4": point_at(510.0, 0.0)}, addresses)
        assert len(store) == 1
        assert store.query_id("a1").source != QuerySource.ADDRESS

    def test_building_fallback_is_global_across_shards(self, world):
        addresses, locations = world
        # Many shards: b1's addresses fall on different shard keys, yet
        # the building vote still runs over all of them.
        store = ShardedLocationStore(locations, addresses, n_shards=16)
        assert store.building_locations == aggregate_building_locations(
            locations, addresses
        )

    def test_merged_views(self, world):
        addresses, locations = world
        store = ShardedLocationStore(locations, addresses, n_shards=4)
        assert store.address_locations == locations
        assert len(store) == len(locations)
        assert store.snapshot().by_address == locations


class TestShardAssignmentStability:
    """Shard assignment is a compatibility surface: the multi-process
    router derives a worker from the *shard* (``shard % n_workers``), so
    neither the hash nor the address→shard mapping may drift with worker
    count — or across releases."""

    #: Pinned crc32 values; a change here silently re-shards every
    #: deployed snapshot, so it must be a loud, deliberate break.
    PINNED_HASHES = {
        "": 0,
        "a0000": 1336914574,
        "a0001": 950567448,
        "addr-42": 3441695549,
        "courier/9": 4028651208,
    }

    def test_stable_hash_values_are_pinned(self):
        for key, expected in self.PINNED_HASHES.items():
            assert _stable_hash(key) == expected, key

    def test_hash_strategy_assignments_are_pinned(self):
        strategy = HashShardStrategy(8)
        ids = sorted(self.PINNED_HASHES)
        assert [strategy.shard_of(i) for i in ids] == [
            self.PINNED_HASHES[i] % 8 for i in ids
        ]

    def test_assignment_independent_of_worker_count(self, world, tmp_path):
        addresses, locations = world
        store = ShardedLocationStore(locations, addresses, n_shards=4)
        SnapshotPublisher(str(tmp_path)).publish(store)
        ids = list(addresses) + ["unseen-a", "unseen-b"]
        by_workers = {
            n: [ProcessRouter(str(tmp_path), n_workers=n).shard_for(i) for i in ids]
            for n in (1, 2, 4, 7)
        }
        # Address -> shard never moves when the pool is resized.
        assert len({tuple(v) for v in by_workers.values()}) == 1
        # Known ids follow the store's own strategy; unknown ids the hash.
        shards = by_workers[1]
        for aid, shard in zip(list(addresses), shards):
            assert shard == store.strategy.shard_of(aid, addresses[aid])
        for aid, shard in zip(ids[len(addresses):], shards[len(addresses):]):
            assert shard == _stable_hash(aid) % 4


class TestAtomicSwapUnderLoad:
    """Acceptance: a refresh mid-load causes zero query errors, and every
    answer comes whole from one generation."""

    def test_concurrent_queries_during_refresh(self):
        n_addresses = 64
        addresses = {
            f"a{i}": make_address(
                f"a{i}", "b-cold" if i >= 60 else f"b{i // 2 % 8}", (float(i), 0.0)
            )
            for i in range(n_addresses)
        }
        # Generation A (the store as built): even ids below 60 located; odd
        # ids fall back to their building's vote, and "b-cold" members to
        # the geocode.  Generation B (``update(moved)`` on top of A): every
        # id located, at a different spot — so ids move between tiers on
        # the first swap.  Generation C (``update(base)`` on top of B): the
        # even ids below 60 back at A's spots, every other id still at B's;
        # the swaps after the first alternate B and C.
        base = {f"a{i}": point_at(float(i), 10.0) for i in range(0, 60, 2)}
        moved = {f"a{i}": point_at(float(i), 90.0) for i in range(n_addresses)}
        store = ShardedLocationStore(base, addresses, n_shards=4)
        gen_a = {aid: store.query_id(aid) for aid in addresses}
        gen_b = {
            aid: ShardedLocationStore({**base, **moved}, addresses).query_id(aid)
            for aid in addresses
        }
        tiers = {(gen_a[a].source, gen_b[a].source) for a in addresses}
        assert tiers == {
            (QuerySource.ADDRESS, QuerySource.ADDRESS),
            (QuerySource.BUILDING, QuerySource.ADDRESS),
            (QuerySource.GEOCODE, QuerySource.ADDRESS),
        }
        assert all(gen_a[a] != gen_b[a] for a in addresses)
        gen_c = {
            aid: ShardedLocationStore({**moved, **base}, addresses).query_id(aid)
            for aid in addresses
        }
        assert gen_c != gen_b

        ids = list(addresses)
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader(by_object: bool) -> None:
            i = 0
            while not stop.is_set():
                aid = ids[i % len(ids)]
                try:
                    if by_object:
                        result = store.query(addresses[aid])
                    else:
                        result = store.query_id(aid)
                    # Any whole generation is fine; a torn one is not.
                    assert result in (gen_a[aid], gen_b[aid], gen_c[aid]), (aid, result)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
                    return
                i += 1

        readers = [
            threading.Thread(target=reader, args=(k % 2 == 0,)) for k in range(8)
        ]
        for thread in readers:
            thread.start()
        for round_no in range(200):
            if round_no % 2 == 0:
                store.update(moved)
            else:
                store.update(base)
            time.sleep(0.0002)  # let readers run between swaps
        stop.set()
        for thread in readers:
            thread.join()
        assert errors == []
        assert store.version == 201
        assert {aid: store.query_id(aid) for aid in ids} == gen_c
