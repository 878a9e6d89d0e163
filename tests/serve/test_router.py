"""QueryRouter.resolve_batch: the batched cache → lookup core."""

from repro.apps import UnknownAddressError
from repro.serve import QueryRouter


def test_batch_probes_the_cache_per_id_and_looks_up_misses_once(served_world):
    _, _, store = served_world
    calls = []

    class RecordingStore:
        def resolve_batch(self, address_ids):
            calls.append(list(address_ids))
            return store.resolve_batch(address_ids)

    router = QueryRouter.build(RecordingStore(), cache_capacity=16)
    first = router.resolve_batch(["a0", "a9", "a0", "nope"])
    assert calls == [["a0", "a9", "nope"]]
    assert [r.address_id for r in first] == ["a0", "a9", "a0", "nope"]
    assert [r.cache_state for r in first] == ["miss"] * 4
    assert first[0].result == first[2].result == store.query_id("a0")
    assert first[1].result == store.query_id("a9")
    assert isinstance(first[3].result, UnknownAddressError)

    second = router.resolve_batch(["a0", "nope", "a9"])
    assert calls[1] == ["nope"]  # unknown ids are never cached
    assert [r.cache_state for r in second] == ["hit", "miss", "hit"]
    stats = router.cache_stats()
    assert (stats.hits, stats.misses) == (2, 5)

    router.on_refresh()
    assert [r.cache_state for r in router.resolve_batch(["a0"])] == ["miss"]


def test_batch_without_a_cache_bypasses_it(served_world):
    _, _, store = served_world
    router = QueryRouter.build(store, cache_capacity=0)
    routed = router.resolve_batch(["a1", "a1", "a10"])
    assert [r.cache_state for r in routed] == ["bypass"] * 3
    assert [r.result for r in routed] == [
        store.query_id("a1"), store.query_id("a1"), store.query_id("a10")
    ]
