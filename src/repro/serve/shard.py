"""The in-process delivery-location store for online serving.

The deployed system (Figure 14) resolves address -> building -> geocode
and takes a refresh every two weeks (Section VI-A).  In one process that
is :class:`ShardedLocationStore`: one immutable :class:`StoreSnapshot`
per generation holding the address table, the building vote over all of
it, and a version.  A refresh builds the next generation off to the side
and then flips one reference; a reader grabbed the reference once at
query start, so it sees the whole old generation or the whole new one.
Readers take no lock — only writers serialize, on a writer-only mutex.

A per-id dict lookup here is more than ten times cheaper than a per-id
lookup on the memory-mapped :class:`~repro.serve.columnar.ColumnarSnapshot`,
which is why the dict generation, not the columnar file, is what an
in-process server reads on a cache miss.

The :class:`ShardStrategy` (address-id hash, or geohash prefix of the
geocode for spatial locality) does not split these tables.  It keeps one
job: the key that groups columnar snapshot rows and routes ids to worker
processes (:class:`~repro.serve.mp.ProcessRouter`).
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from repro.apps.store import (
    QueryResult,
    QuerySource,
    UnknownAddressError,
    aggregate_building_locations,
)
from repro.geo import Point
from repro.geo.geohash import geohash_encode
from repro.trajectory import Address


def _stable_hash(text: str) -> int:
    """Process-independent hash (builtin ``hash`` is salted per run).

    This function is a compatibility surface, not an implementation
    detail: shard assignment is ``_stable_hash(key) % n_shards``, the
    multi-process router derives a worker from the *shard* (never from a
    worker-count-sized rehash), and columnar snapshot files persist
    row-to-shard grouping built from it.  Changing the hash (or mixing
    the worker count into it) would silently reshuffle every persisted
    snapshot, so its outputs are pinned by a regression test
    (``tests/serve/test_shard.py``).
    """
    return zlib.crc32(text.encode("utf-8"))


class ShardStrategy:
    """Maps an address to a shard index in ``[0, n_shards)``."""

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1: {n_shards}")
        self.n_shards = n_shards

    def shard_of(self, address_id: str, address: Address | None = None) -> int:
        raise NotImplementedError


class HashShardStrategy(ShardStrategy):
    """Uniform partitioning by a stable hash of the address id."""

    def shard_of(self, address_id: str, address: Address | None = None) -> int:
        return _stable_hash(address_id) % self.n_shards


class GeohashShardStrategy(ShardStrategy):
    """Partition by geohash prefix of the geocode (spatial locality).

    Addresses in the same geohash-``precision`` cell land on the same
    shard, so a worker process's slice of the snapshot is geographically
    compact — the Ping2Hex-style spatial key as routing key.  Falls back
    to the id hash for addresses outside the address book.
    """

    def __init__(self, n_shards: int, precision: int = 5) -> None:
        super().__init__(n_shards)
        if precision < 1:
            raise ValueError(f"precision must be >= 1: {precision}")
        self.precision = precision

    def cell_of(self, address: Address) -> str:
        """The geohash cell that routes this address."""
        return geohash_encode(
            address.geocode.lng, address.geocode.lat, self.precision
        )

    def shard_of(self, address_id: str, address: Address | None = None) -> int:
        if address is None:
            return _stable_hash(address_id) % self.n_shards
        return _stable_hash(self.cell_of(address)) % self.n_shards


@dataclass(frozen=True)
class StoreSnapshot:
    """One immutable generation of the serving tables.

    ``by_address`` is the address->location table and ``by_building`` the
    building fallback voted over all of it.  Neither dict is mutated after
    construction, so a query that read the snapshot reference once
    resolves entirely against one generation.
    """

    by_address: dict[str, Point]
    by_building: dict[str, Point]
    version: int

    @property
    def size(self) -> int:
        return len(self.by_address)

    def resolve(self, address: Address) -> QueryResult:
        """Three-tier fallback: address -> building -> geocode."""
        point = self.by_address.get(address.address_id)
        if point is not None:
            return QueryResult(point, QuerySource.ADDRESS)
        point = self.by_building.get(address.building_id)
        if point is not None:
            return QueryResult(point, QuerySource.BUILDING)
        return QueryResult(address.geocode, QuerySource.GEOCODE)


class ShardedLocationStore:
    """The in-process delivery-location store.

    Query contract: ``query`` / ``query_id`` with the three-tier fallback
    and :class:`UnknownAddressError` for ids outside the address book.
    Reads are lock-free against an immutable
    :class:`StoreSnapshot`; ``update`` builds the next generation off
    to the side and swaps one reference.  The
    :class:`ShardStrategy` does not partition the tables: it is the key
    that groups columnar snapshot rows and routes ids to worker processes.
    """

    def __init__(
        self,
        address_locations: dict[str, Point],
        addresses: dict[str, Address],
        n_shards: int = 4,
        strategy: ShardStrategy | None = None,
        initial_version: int = 1,
    ) -> None:
        self._addresses = dict(addresses)
        self._strategy = strategy or HashShardStrategy(n_shards)
        self._write_lock = threading.Lock()
        self._snapshot = self._generation(
            dict(address_locations), initial_version
        )

    # ------------------------------------------------------------------
    # Construction of immutable generations (writer side)
    # ------------------------------------------------------------------
    def _generation(
        self, by_address: dict[str, Point], version: int
    ) -> StoreSnapshot:
        by_building = aggregate_building_locations(by_address, self._addresses)
        return StoreSnapshot(by_address, by_building, version)

    def update(self, address_locations: dict[str, Point]) -> StoreSnapshot:
        """Merge a refresh batch and atomically swap the snapshot in.

        The merged address table and the re-voted building table form a
        new generation; the old one is never mutated.  Returns the new
        snapshot (the current one, unchanged, for an empty batch).
        """
        if not address_locations:
            return self._snapshot
        with self._write_lock:
            old = self._snapshot
            self._snapshot = self._generation(
                {**old.by_address, **address_locations}, old.version + 1
            )
            return self._snapshot

    # ------------------------------------------------------------------
    # Lock-free read path
    # ------------------------------------------------------------------
    def snapshot(self) -> StoreSnapshot:
        """The current immutable generation (one atomic reference read)."""
        return self._snapshot

    def query(self, address: Address) -> QueryResult:
        """Three-tier fallback resolution against one snapshot."""
        return self._snapshot.resolve(address)

    def query_id(self, address_id: str) -> QueryResult:
        """Resolve by id; raises :class:`UnknownAddressError` on a miss."""
        address = self._addresses.get(address_id)
        if address is None:
            raise UnknownAddressError(address_id)
        return self._snapshot.resolve(address)

    # ------------------------------------------------------------------
    # Durability (columnar snapshot + update log)
    # ------------------------------------------------------------------
    @classmethod
    def restore(
        cls,
        snapshot_dir: str,
        n_shards: int | None = None,
        strategy: ShardStrategy | None = None,
    ) -> "ShardedLocationStore":
        """Rebuild a store from the newest intact snapshot + log suffix.

        Crash recovery for the multi-process serving tier: scan
        ``snapshot_dir`` for the highest-versioned snapshot file that
        passes CRC validation (a writer killed mid-publish leaves either
        a tmp file, which is ignored, or a corrupt file, which is
        skipped), then replay append-only update-log records *newer* than
        that snapshot — torn trailing records are discarded.  The result
        is a store at least as fresh as the last durable publish, never a
        torn one.
        """
        from repro.serve.mp import SnapshotPublisher

        snap, records = SnapshotPublisher.recover(snapshot_dir)
        addresses = snap.addresses()
        if strategy is None:
            if snap.meta.get("strategy") == "GeohashShardStrategy":
                strategy = GeohashShardStrategy(
                    n_shards or snap.n_shards, precision=snap.precision
                )
            else:
                strategy = HashShardStrategy(n_shards or snap.n_shards)
        # Re-seat at the snapshot's version so the restored store's
        # generations line up with the published files it came from.
        store = cls(
            snap.address_locations(),
            addresses,
            strategy=strategy,
            initial_version=snap.version,
        )
        for locations in records:
            store.update(locations)
        return store

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._snapshot.size

    @property
    def address_book(self) -> Mapping[str, Address]:
        """Read-only view of the address book (columnar rows, routing)."""
        return MappingProxyType(self._addresses)

    @property
    def strategy(self) -> ShardStrategy:
        return self._strategy

    @property
    def n_shards(self) -> int:
        return self._strategy.n_shards

    @property
    def version(self) -> int:
        return self._snapshot.version

    @property
    def address_locations(self) -> dict[str, Point]:
        """The address-level table (read-only copy)."""
        return dict(self._snapshot.by_address)

    @property
    def building_locations(self) -> dict[str, Point]:
        """The global building-level fallback table (read-only copy)."""
        return dict(self._snapshot.by_building)
