"""Request routing: cache in front, micro-batcher behind, store below.

The router is the single synchronous resolution path the server's workers
call: check the LRU+TTL cache, and on a cold miss either go straight to
the store or ride the micro-batcher so concurrent misses share
one snapshot pass.  It tags every answer with its cache state, which the
server folds into the latency histogram labels — cache hits and fallback
tiers have very different latency floors and must not share a bucket
family.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.store import QueryResult, UnknownAddressError
from repro.obs import get_registry
from repro.serve.batching import BatchStats, MicroBatcher
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
    """Cache → (micro-batcher →) store resolution chain."""

    def __init__(
        self,
        store: ShardedLocationStore,
        cache: TTLLRUCache | None = None,
        batcher: MicroBatcher | None = None,
    ) -> None:
        self.store = store
        self.cache = cache
        self.batcher = batcher
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
        batch_window_s: float = 0.0,
        batch_max: int = 32,
        batch_fn=None,
    ) -> "QueryRouter":
        """Assemble the standard chain; zero/negative knobs disable a part.

        ``batch_fn`` replaces the store's snapshot pass as the batched
        cold-miss evaluator (e.g. a
        :class:`~repro.serve.scoring.ModelScoringTier`); passing one
        enables the micro-batcher even at a zero batching window, since a
        custom evaluator is useless without the batcher in front of it.
        """
        cache = (
            TTLLRUCache(cache_capacity, cache_ttl_s) if cache_capacity > 0 else None
        )
        batcher = (
            MicroBatcher(batch_fn or store.query_ids_batch, batch_max, batch_window_s)
            if batch_window_s > 0 or batch_fn is not None
            else None
        )
        return cls(store, cache=cache, batcher=batcher)

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
        if self.batcher is not None:
            result = self.batcher.submit(address_id)
        else:
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

    def batch_stats(self) -> BatchStats | None:
        return self.batcher.stats() if self.batcher is not None else None
