"""Request routing: cache in front, a lookup behind.

The router is the one resolution core under both serving backends: check
the LRU+TTL cache, and on a cold miss ask the lookup.  Thread workers
call :meth:`QueryRouter.resolve` per request over the location store;
process workers call :meth:`QueryRouter.rows_of` per sub-batch over
their columnar snapshot, whose rows they then gather as columns.  Every
answer is tagged with its cache state, which the servers fold into the
latency histogram labels — cache hits and fallback tiers have very
different latency floors and must not share a bucket family.  The router
itself counts nothing: the cache's :class:`CacheStats` holds its hits
and misses.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.apps.store import QueryResult
from repro.serve.cache import CacheStats, TTLLRUCache
from repro.serve.shard import ShardedLocationStore

#: Cache-state labels attached to every routed answer.
CACHE_HIT = "hit"
CACHE_MISS = "miss"
CACHE_BYPASS = "bypass"  # router configured without a cache
CACHE_STATES = (CACHE_HIT, CACHE_MISS, CACHE_BYPASS)
_HIT, _MISS, _BYPASS = range(len(CACHE_STATES))


class QueryRouter:
    """Cache → lookup resolution chain.

    ``store`` is a :class:`ShardedLocationStore` (``query_id``, for
    :meth:`resolve`) or a :class:`~repro.serve.columnar.ColumnarSnapshot`
    (``rows_of``, for :meth:`rows_of`).  Swap ``store`` and call
    :meth:`on_refresh` to serve a new generation.
    """

    def __init__(
        self,
        store: ShardedLocationStore,
        cache: TTLLRUCache | None = None,
    ) -> None:
        self.store = store
        self.cache = cache

    @classmethod
    def build(
        cls,
        store: ShardedLocationStore,
        cache_capacity: int = 1024,
        cache_ttl_s: float = 30.0,
    ) -> "QueryRouter":
        """Assemble the standard chain; a zero capacity disables the cache."""
        cache = (
            TTLLRUCache(cache_capacity, cache_ttl_s) if cache_capacity > 0 else None
        )
        return cls(store, cache=cache)

    def resolve(self, address_id: str) -> tuple[QueryResult, str]:
        """``(answer, cache state)`` of one id; raises
        :class:`~repro.apps.store.UnknownAddressError` on bad ids."""
        if self.cache is not None:
            cached = self.cache.get(address_id)
            if cached is not None:
                return cached, CACHE_HIT
        result = self.store.query_id(address_id)
        if self.cache is not None:
            self.cache.put(address_id, result)
            return result, CACHE_MISS
        return result, CACHE_BYPASS

    def rows_of(
        self, address_ids: Sequence[str], hashes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | int]:
        """Snapshot row of every id (``-1`` unknown) and its cache-state
        code, an index into ``CACHE_STATES`` (one code for the whole batch
        without a cache).

        ``hashes`` are the ids' :func:`~repro.serve.columnar.hash_ids`.
        The cache holds rows of the current snapshot.  Each id probes it
        once; the misses go to the snapshot in one ``rows_of`` call (each
        distinct id once), and the known ones fill the cache.
        """
        cache = self.cache
        if cache is None:
            return self.store.rows_of(address_ids, hashes), _BYPASS
        rows = [cache.get(a) for a in address_ids]
        missed = {a: i for i, (a, row) in enumerate(zip(address_ids, rows)) if row is None}
        found = dict(zip(missed, self.store.rows_of(
            list(missed), hashes[list(missed.values())]).tolist()))
        states = [_MISS if row is None else _HIT for row in rows]
        for i, address_id in enumerate(address_ids):
            if rows[i] is None:
                rows[i] = found[address_id]
                if rows[i] >= 0:  # unknown ids are never cached
                    cache.put(address_id, rows[i])
        return np.array(rows, dtype=np.int64), np.array(states, dtype=np.int8)

    def on_refresh(self) -> int:
        """Drop cached answers after a store swap; returns entries dropped."""
        if self.cache is None:
            return 0
        return self.cache.clear()

    def cache_stats(self) -> CacheStats | None:
        return self.cache.stats() if self.cache is not None else None
