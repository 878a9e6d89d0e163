"""Request routing: cache in front, a lookup behind.

The router is the one resolution core under both serving backends: check
the LRU+TTL cache, and on a cold miss ask the lookup — the location
store or a worker's columnar snapshot.
Thread workers call :meth:`QueryRouter.resolve` per request, process
workers :meth:`QueryRouter.resolve_batch` per sub-batch.  Every answer
is tagged with its cache state, which the servers fold into the latency
histogram labels — cache hits and fallback tiers have very different
latency floors and must not share a bucket family.  The router itself
counts nothing: the cache's :class:`CacheStats` holds its hits and misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.apps.store import QueryResult, UnknownAddressError
from repro.serve.cache import CacheStats, TTLLRUCache
from repro.serve.shard import ShardedLocationStore

#: Cache-state labels attached to every routed answer.
CACHE_HIT = "hit"
CACHE_MISS = "miss"
CACHE_BYPASS = "bypass"  # router configured without a cache
CACHE_STATES = (CACHE_HIT, CACHE_MISS, CACHE_BYPASS)


@dataclass(frozen=True)
class RoutedResult:
    """A resolved query plus how the serving tier answered it
    (:meth:`QueryRouter.resolve_batch` returns unknown ids as errors)."""

    address_id: str
    result: QueryResult | UnknownAddressError
    cache_state: str


class QueryRouter:
    """Cache → lookup resolution chain.

    ``store`` is anything with ``query_id(address_id) -> QueryResult``
    (raising :class:`UnknownAddressError` on a bad id) and the batch
    contract of :meth:`ShardedLocationStore.resolve_batch`: a
    :class:`ShardedLocationStore` or a
    :class:`~repro.serve.columnar.ColumnarSnapshot`.  Swap ``store`` and
    call :meth:`on_refresh` to serve a new generation.
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

    def resolve(self, address_id: str) -> RoutedResult:
        """Resolve one id; raises :class:`UnknownAddressError` on bad ids."""
        if self.cache is not None:
            cached = self.cache.get(address_id)
            if cached is not None:
                return RoutedResult(address_id, cached, CACHE_HIT)
        result = self.store.query_id(address_id)
        if self.cache is not None:
            self.cache.put(address_id, result)
            state = CACHE_MISS
        else:
            state = CACHE_BYPASS
        return RoutedResult(address_id, result, state)

    def resolve_batch(self, address_ids: Sequence[str]) -> list[RoutedResult]:
        """Resolve many ids: one answer per input id, in order.

        Each id probes the cache once; the misses go to the store in one
        ``resolve_batch`` call (each distinct id once), and the known ones
        fill the cache.  An unknown id comes back with an
        :class:`UnknownAddressError` as its result instead of raising, so
        it cannot fail its batch-mates.
        """
        cache = self.cache
        if cache is None:
            resolved = self.store.resolve_batch(list(dict.fromkeys(address_ids)))
            return [RoutedResult(a, resolved[a], CACHE_BYPASS) for a in address_ids]
        hits = {}
        for address_id in address_ids:
            cached = cache.get(address_id)
            if cached is not None:
                hits[address_id] = cached
        resolved = self.store.resolve_batch(
            [a for a in dict.fromkeys(address_ids) if a not in hits]
        )
        out = []
        for address_id in address_ids:
            if address_id in hits:
                out.append(RoutedResult(address_id, hits[address_id], CACHE_HIT))
                continue
            result = resolved[address_id]
            if not isinstance(result, UnknownAddressError):
                cache.put(address_id, result)
            out.append(RoutedResult(address_id, result, CACHE_MISS))
        return out

    def on_refresh(self) -> int:
        """Drop cached answers after a store swap; returns entries dropped."""
        if self.cache is None:
            return 0
        return self.cache.clear()

    def cache_stats(self) -> CacheStats | None:
        return self.cache.stats() if self.cache is not None else None
