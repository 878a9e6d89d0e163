"""Columnar snapshot files: format round-trip, corruption, query parity."""

import os
import random

import numpy as np
import pytest

from repro.apps import QueryResult, QuerySource, UnknownAddressError
from repro.geo import Point
from repro.serve import (
    GeohashShardStrategy,
    HashShardStrategy,
    ShardedLocationStore,
    SnapshotCorruptError,
    SnapshotPublisher,
    load_snapshot,
    write_snapshot,
)
from repro.serve import columnar
from repro.serve.columnar import MAGIC
from tests.core.helpers import make_address, point_at


def make_world(n=40, seed=3, with_locations=0.6):
    """Addresses spread over a few km; a fraction get inferred locations."""
    rng = random.Random(seed)
    addresses, locations = {}, {}
    for i in range(n):
        aid = f"c{i:04d}"
        x, y = rng.uniform(-2500, 2500), rng.uniform(-2500, 2500)
        addresses[aid] = make_address(aid, f"b{i % 7}", (x, y))
        if rng.random() < with_locations:
            locations[aid] = point_at(x + rng.uniform(-30, 30), y + rng.uniform(-30, 30))
    return addresses, locations


def store_answers(store, address_ids):
    """The store's answer per id, an :class:`UnknownAddressError` value for
    an id outside its book: what :meth:`ColumnarSnapshot.resolve_batch`
    must give."""
    out = {}
    for aid in address_ids:
        try:
            out[aid] = store.query_id(aid)
        except UnknownAddressError as exc:
            out[aid] = exc
    return out


@pytest.fixture()
def snapshot_world(tmp_path):
    addresses, locations = make_world()
    store = ShardedLocationStore(
        locations, addresses, strategy=GeohashShardStrategy(4, precision=6)
    )
    path = str(tmp_path / "snap.rsnap")
    info = write_snapshot(path, store, confidences={"c0000": 0.875})
    return store, path, info


class TestRoundTrip:
    def test_info_and_meta(self, snapshot_world):
        store, path, info = snapshot_world
        assert info.path == path
        assert info.version == store.version
        assert info.n_rows == len(store.address_book)
        snap = load_snapshot(path)
        assert snap.version == store.version
        assert snap.n_rows == info.n_rows
        assert snap.n_shards == 4
        assert snap.precision == 6
        assert snap.meta["strategy"] == "GeohashShardStrategy"

    def test_resolve_parity_with_store(self, tmp_path):
        """The columnar file answers every id exactly like the store.

        Under both shard strategies: probes all three tiers and unknown
        ids, then again after an ``update`` (moves some ids, locates some
        cold ones) and after a ``replace`` that drops ids back to the
        building/geocode tiers.
        """
        for strategy in (HashShardStrategy(4), GeohashShardStrategy(4, precision=6)):
            self._check_resolve_parity(tmp_path / type(strategy).__name__, strategy)

    @staticmethod
    def _check_resolve_parity(tmp_path, strategy):
        tmp_path.mkdir()
        addresses, locations = make_world()
        # A building with no located address: its members hit the geocode.
        for i in range(3):
            aid = f"g{i}"
            addresses[aid] = make_address(aid, "b-empty", (3000.0 + 10 * i, 0.0))
        store = ShardedLocationStore(locations, addresses, strategy=strategy)
        ids = sorted(addresses) + ["missing-1", "missing-2"]

        def check(tag):
            path = str(tmp_path / f"{tag}.rsnap")
            write_snapshot(path, store)
            snap = load_snapshot(path)
            got = snap.resolve_batch(ids)
            want = store_answers(store, ids)
            sources = set()
            for aid in ids:
                g, w = got[aid], want[aid]
                if isinstance(w, UnknownAddressError):
                    assert isinstance(g, UnknownAddressError), (tag, aid)
                    with pytest.raises(UnknownAddressError):
                        snap.query_id(aid)
                    continue
                assert w == store.query_id(aid), (tag, aid)
                assert g.source == w.source, (tag, aid)
                assert g.location.lng == pytest.approx(w.location.lng, abs=1e-9)
                assert g.location.lat == pytest.approx(w.location.lat, abs=1e-9)
                sources.add(w.source)
            return sources, want

        sources, _ = check("initial")
        assert sources == {
            QuerySource.ADDRESS, QuerySource.BUILDING, QuerySource.GEOCODE
        }

        cold = [a for a in sorted(addresses) if a not in locations]
        moved = {a: point_at(-4000.0 + 5 * i, 100.0)
                 for i, a in enumerate(sorted(locations)[:5])}
        moved.update({a: point_at(4000.0, 50.0 * i) for i, a in enumerate(cold[:4])})
        store.update(moved)
        _, after_update = check("update")
        for aid in moved:
            assert after_update[aid].source == QuerySource.ADDRESS, aid

        kept = dict(sorted(locations.items())[::2])
        dropped = [a for a in locations if a not in kept]
        store = ShardedLocationStore(kept, addresses, strategy=strategy)
        sources, after_replace = check("replace")
        assert sources == {
            QuerySource.ADDRESS, QuerySource.BUILDING, QuerySource.GEOCODE
        }
        for aid in dropped:
            assert after_replace[aid].source in (
                QuerySource.BUILDING, QuerySource.GEOCODE
            ), aid

    def test_confidence_round_trips_as_float32(self, snapshot_world):
        store, path, _ = snapshot_world
        snap = load_snapshot(path)
        result = snap.resolve_batch(["c0000"])["c0000"]
        if result.source == QuerySource.ADDRESS:
            assert result.confidence == pytest.approx(0.875, abs=1e-6)
        # Every other answered id reports no confidence (NaN column).
        others = [a for a in store.address_book if a != "c0000"]
        for aid, res in snap.resolve_batch(others).items():
            assert res.confidence is None, aid

    def test_query_id_raises_unknown(self, snapshot_world):
        _, path, _ = snapshot_world
        snap = load_snapshot(path)
        with pytest.raises(UnknownAddressError):
            snap.query_id("nope")

    def test_address_book_reconstruction(self, snapshot_world):
        store, path, _ = snapshot_world
        snap = load_snapshot(path)
        rebuilt = snap.addresses()
        assert set(rebuilt) == set(store.address_book)
        for aid, address in store.address_book.items():
            again = rebuilt[aid]
            assert again.text == address.text
            assert again.building_id == address.building_id
            assert again.poi_category == address.poi_category
            assert again.geocode.lng == pytest.approx(address.geocode.lng, abs=1e-9)

    def test_address_locations_reconstruction(self, snapshot_world):
        store, path, _ = snapshot_world
        snap = load_snapshot(path)
        restored = snap.address_locations()
        assert set(restored) == set(store.address_locations)
        for aid, point in store.address_locations.items():
            assert restored[aid].lng == pytest.approx(point.lng, abs=1e-9)
            assert restored[aid].lat == pytest.approx(point.lat, abs=1e-9)

    def test_shards_for_ids_groups_rows(self, snapshot_world):
        store, path, _ = snapshot_world
        snap = load_snapshot(path)
        ids = list(store.address_book)
        shards = snap.shards_for_ids(ids + ["missing"])
        assert shards[-1] == -1
        for aid, shard in zip(ids, shards):
            assert shard == store.strategy.shard_of(aid, store.address_book[aid])

    def test_empty_store_round_trips(self, tmp_path):
        store = ShardedLocationStore({}, {}, n_shards=2)
        path = str(tmp_path / "empty.rsnap")
        write_snapshot(path, store)
        snap = load_snapshot(path, verify=True)
        assert snap.n_rows == 0
        assert snap.resolve_batch([]) == {}


def reference_resolve(snap, address_ids):
    """Per-id resolution with scalar column reads, kept as the reference
    for the vectorised :meth:`ColumnarSnapshot.resolve_batch`."""
    rows = snap.lookup_rows(address_ids)
    a = snap._a
    safe = np.maximum(rows, 0)
    loc_ok = np.isfinite(a["loc_lng"][safe]) & (rows >= 0)
    bld_rows = a["building_row"][safe]
    bld_ok = (
        (rows >= 0)
        & ~loc_ok
        & np.isfinite(a["bld_lng"][np.maximum(bld_rows, 0)])
        & (bld_rows >= 0)
    )
    out = {}
    for i, address_id in enumerate(address_ids):
        row = int(rows[i])
        if row < 0:
            out[address_id] = UnknownAddressError(address_id)
        elif loc_ok[i]:
            conf = float(a["confidence"][row])
            out[address_id] = QueryResult(
                Point(float(a["loc_lng"][row]), float(a["loc_lat"][row])),
                QuerySource.ADDRESS,
                confidence=conf if np.isfinite(conf) else None,
            )
        elif bld_ok[i]:
            b = int(bld_rows[i])
            out[address_id] = QueryResult(
                Point(float(a["bld_lng"][b]), float(a["bld_lat"][b])),
                QuerySource.BUILDING,
            )
        else:
            out[address_id] = QueryResult(
                Point(float(a["geo_lng"][row]), float(a["geo_lat"][row])),
                QuerySource.GEOCODE,
            )
    return out


class TestEqualHashes:
    def test_equal_hashes_are_settled_by_the_id(self, tmp_path, monkeypatch):
        """With a hash that collides (one per id length), every id still
        finds its own row, by ``lookup_rows`` and by ``rows_of`` given the
        hashes of a shuffled batch."""

        class LengthHash:
            def __init__(self, data, digest_size):
                self._digest = len(data).to_bytes(digest_size, "little")

            def digest(self):
                return self._digest

        monkeypatch.setattr(columnar, "blake2b", LengthHash)
        addresses, locations = make_world(n=60, seed=5)
        store = ShardedLocationStore(locations, addresses, n_shards=4)
        path = str(tmp_path / "collide.rsnap")
        write_snapshot(path, store)
        snap = load_snapshot(path)
        assert snap._dup_hashes
        ids = sorted(addresses)
        batch = random.Random(2).sample(ids, len(ids)) + ["c99999", "nope"]
        rows = snap.rows_of(batch, columnar.hash_ids(batch))
        assert rows.tolist() == snap.lookup_rows(batch).tolist()
        assert [snap.id_at(r) for r in rows[:-2].tolist()] == batch[:-2]
        assert rows[-2:].tolist() == [-1, -1]


class TestVectorisedResolve:
    def test_equals_the_per_id_reference(self, tmp_path):
        addresses, locations = make_world(n=300, seed=11)
        for i in range(4):  # a building with no located address: geocodes
            aid = f"g{i}"
            addresses[aid] = make_address(aid, "b-empty", (3000.0 + 10 * i, 0.0))
        rng = random.Random(5)
        # Half the located ids get a confidence; the rest stay NaN.
        confidences = {a: rng.random() for a in sorted(locations) if rng.random() < 0.5}
        store = ShardedLocationStore(locations, addresses, n_shards=4)
        path = str(tmp_path / "snap.rsnap")
        write_snapshot(path, store, confidences=confidences)
        snap = load_snapshot(path)
        ids = sorted(addresses) + ["missing-1", "missing-2"]
        batches = [ids, ids[::-1], [ids[0]], ["missing-1"], []]
        batches += [[rng.choice(ids) for _ in range(64)] for _ in range(20)]
        for batch in batches:
            got = snap.resolve_batch(batch)
            want = reference_resolve(snap, batch)
            assert list(got) == list(want)
            for aid in batch:
                g, w = got[aid], want[aid]
                if isinstance(w, UnknownAddressError):
                    assert isinstance(g, UnknownAddressError)
                    assert str(g) == str(w)
                else:
                    assert g == w, aid
        answers = reference_resolve(snap, ids)
        sources = {r.source for r in answers.values() if isinstance(r, QueryResult)}
        assert sources == {QuerySource.ADDRESS, QuerySource.BUILDING, QuerySource.GEOCODE}
        address_tier = [r for r in answers.values()
                        if isinstance(r, QueryResult) and r.source == QuerySource.ADDRESS]
        assert any(r.confidence is None for r in address_tier)
        assert any(r.confidence is not None for r in address_tier)


class TestLegacySpatialArrays:
    """Files written while snapshots carried a spatial index (six ``sp_*``
    arrays) still load, resolve and restore; new files carry none."""

    SP_DTYPES = {
        "sp_row": np.int64, "sp_lng": np.float64, "sp_lat": np.float64,
        "sp_cell_codes": np.uint64, "sp_cell_starts": np.int64,
        "sp_cell_rows": np.int64,
    }

    def test_file_with_sp_arrays_loads_and_resolves(self, tmp_path, monkeypatch):
        addresses, locations = make_world()
        store = ShardedLocationStore(
            locations, addresses, strategy=GeohashShardStrategy(4, precision=6)
        )
        fresh = str(tmp_path / "fresh.rsnap")
        write_snapshot(fresh, store, confidences={"c0000": 0.875})

        build = columnar.build_columnar_arrays

        def with_index(store, confidences=None):
            arrays, meta = build(store, confidences)
            rows = np.flatnonzero(np.isfinite(arrays["loc_lng"]))
            arrays["sp_row"] = rows.astype(np.int64)
            arrays["sp_lng"] = arrays["loc_lng"][rows]
            arrays["sp_lat"] = arrays["loc_lat"][rows]
            arrays["sp_cell_codes"] = np.arange(len(rows), dtype=np.uint64)
            arrays["sp_cell_starts"] = np.arange(len(rows) + 1, dtype=np.int64)
            arrays["sp_cell_rows"] = np.arange(len(rows), dtype=np.int64)
            return arrays, meta

        monkeypatch.setattr(columnar, "build_columnar_arrays", with_index)
        publisher = SnapshotPublisher(str(tmp_path / "snaps"))
        legacy = publisher.path_for(store.version)
        write_snapshot(legacy, store, confidences={"c0000": 0.875})
        monkeypatch.undo()

        old, new = load_snapshot(legacy, verify=True), load_snapshot(fresh)
        assert {n for n in old._a if n.startswith("sp_")} == set(self.SP_DTYPES)
        assert not [n for n in new._a if n.startswith("sp_")]
        for name, dtype in self.SP_DTYPES.items():
            assert getattr(old, name).dtype == dtype
        ids = sorted(addresses) + ["missing"]
        got, want = old.resolve_batch(ids), new.resolve_batch(ids)
        expected = store_answers(store, ids[:-1])
        for aid in ids[:-1]:
            assert got[aid] == want[aid]
            assert got[aid].location == expected[aid].location
            assert got[aid].source == expected[aid].source
        assert got["c0000"].confidence == 0.875
        assert isinstance(got["missing"], UnknownAddressError)
        assert old.address_locations() == new.address_locations()

        restored = ShardedLocationStore.restore(publisher.directory)
        assert restored.version == store.version
        assert isinstance(restored.strategy, GeohashShardStrategy)
        assert restored.strategy.precision == 6
        assert store_answers(restored, ids[:-1]) == expected


class TestCorruption:
    def test_verify_catches_flipped_payload_byte(self, snapshot_world):
        _, path, _ = snapshot_world
        blob = bytearray(open(path, "rb").read())
        blob[-8] ^= 0xFF  # flip a byte inside the last array's payload
        bad = path + ".bad"
        with open(bad, "wb") as f:
            f.write(bytes(blob))
        load_snapshot(bad)  # lazy load does not touch payload CRCs
        with pytest.raises(SnapshotCorruptError):
            load_snapshot(bad, verify=True)

    def test_bad_magic_rejected(self, snapshot_world, tmp_path):
        _, path, _ = snapshot_world
        blob = bytearray(open(path, "rb").read())
        blob[:len(MAGIC)] = b"NOTASNAP"
        bad = str(tmp_path / "magic.rsnap")
        with open(bad, "wb") as f:
            f.write(bytes(blob))
        with pytest.raises(SnapshotCorruptError):
            load_snapshot(bad)

    def test_truncated_file_rejected(self, snapshot_world, tmp_path):
        _, path, _ = snapshot_world
        blob = open(path, "rb").read()
        for cut in (4, len(blob) // 3):
            bad = str(tmp_path / f"cut{cut}.rsnap")
            with open(bad, "wb") as f:
                f.write(blob[:cut])
            with pytest.raises(SnapshotCorruptError):
                load_snapshot(bad)

    def test_no_tmp_file_left_behind(self, snapshot_world):
        _, path, _ = snapshot_world
        directory = os.path.dirname(path)
        assert not [n for n in os.listdir(directory) if ".tmp." in n]
