"""Request routing: cache in front, a lookup behind.

The router is the single synchronous resolution path the server's workers
call: check the LRU+TTL cache, and on a cold miss ask the lookup — the
location store, or the live model-scoring tier — with ``query_id``.  It
tags every answer with its cache state, which the server folds into the
latency histogram labels — cache hits and fallback tiers have very
different latency floors and must not share a bucket family.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.store import QueryResult, UnknownAddressError
from repro.obs import get_registry
from repro.serve.cache import CacheStats, TTLLRUCache
from repro.serve.shard import ShardedLocationStore

#: Cache-state labels attached to every routed answer.
CACHE_HIT = "hit"
CACHE_MISS = "miss"
CACHE_BYPASS = "bypass"  # router configured without a cache


@dataclass(frozen=True)
class RoutedResult:
    """A resolved query plus how the serving tier answered it."""

    address_id: str
    result: QueryResult
    cache_state: str


class QueryRouter:
    """Cache → ``store.query_id`` resolution chain.

    ``store`` is anything with ``query_id(address_id) -> QueryResult``
    that raises :class:`UnknownAddressError` on a bad id: a
    :class:`ShardedLocationStore` or a
    :class:`~repro.serve.scoring.ModelScoringTier`.
    """

    def __init__(
        self,
        store: ShardedLocationStore,
        cache: TTLLRUCache | None = None,
    ) -> None:
        self.store = store
        self.cache = cache
        registry = get_registry()
        self._cache_events = registry.counter(
            "serve_cache_events_total", "Result-cache lookups by outcome"
        )
        self._cache_hit_ratio = registry.gauge(
            "serve_cache_hit_ratio", "Result-cache hit ratio since start"
        )

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
                self._cache_events.inc(event="hit")
                self._note_hit_ratio()
                return RoutedResult(address_id, cached, CACHE_HIT)
            self._cache_events.inc(event="miss")
            self._note_hit_ratio()
        result = self.store.query_id(address_id)
        if self.cache is not None:
            self.cache.put(address_id, result)
            state = CACHE_MISS
        else:
            state = CACHE_BYPASS
        return RoutedResult(address_id, result, state)

    def _note_hit_ratio(self) -> None:
        hits = self._cache_events.value(event="hit")
        misses = self._cache_events.value(event="miss")
        if hits + misses:
            self._cache_hit_ratio.set(hits / (hits + misses))

    def on_refresh(self) -> int:
        """Drop cached answers after a store swap; returns entries dropped."""
        if self.cache is None:
            return 0
        return self.cache.clear()

    def cache_stats(self) -> CacheStats | None:
        return self.cache.stats() if self.cache is not None else None
