"""QueryRouter.rows_of: the batched cache → lookup core of a process worker."""

import numpy as np

from repro.serve import QueryRouter, write_snapshot, load_snapshot
from repro.serve.columnar import hash_ids
from repro.serve.router import CACHE_STATES


def snapshot_of(store, tmp_path):
    path = str(tmp_path / "snap.rsnap")
    write_snapshot(path, store)
    return load_snapshot(path)


def states(codes, n):
    """Cache-state labels of ``n`` ids from a :meth:`rows_of` code (one
    code for the batch, or one per id)."""
    return [CACHE_STATES[c] for c in np.broadcast_to(codes, n).tolist()]


def test_batch_probes_the_cache_per_id_and_looks_up_misses_once(
    served_world, tmp_path
):
    _, _, store = served_world
    snap = snapshot_of(store, tmp_path)
    calls = []

    class RecordingSnapshot:
        def rows_of(self, address_ids, hashes):
            calls.append(list(address_ids))
            return snap.rows_of(address_ids, hashes)

    router = QueryRouter.build(RecordingSnapshot(), cache_capacity=16)
    ids = ["a0", "a9", "a0", "nope"]
    rows, codes = router.rows_of(ids, hash_ids(ids))
    assert calls == [["a0", "a9", "nope"]]
    assert states(codes, 4) == ["miss"] * 4
    assert rows.tolist() == snap.lookup_rows(ids).tolist()
    assert rows[0] == rows[2] >= 0 and rows[1] >= 0
    assert rows[3] == -1

    ids = ["a0", "nope", "a9"]
    rows, codes = router.rows_of(ids, hash_ids(ids))
    assert calls[1] == ["nope"]  # unknown ids are never cached
    assert states(codes, 3) == ["hit", "miss", "hit"]
    assert rows.tolist() == snap.lookup_rows(ids).tolist()
    stats = router.cache_stats()
    assert (stats.hits, stats.misses) == (2, 5)

    router.on_refresh()
    assert states(router.rows_of(["a0"], hash_ids(["a0"]))[1], 1) == ["miss"]


def test_batch_without_a_cache_bypasses_it(served_world, tmp_path):
    _, _, store = served_world
    snap = snapshot_of(store, tmp_path)
    router = QueryRouter.build(snap, cache_capacity=0)
    ids = ["a1", "a1", "a10"]
    rows, codes = router.rows_of(ids, hash_ids(ids))
    assert states(codes, 3) == ["bypass"] * 3
    assert rows.tolist() == snap.lookup_rows(ids).tolist()
    assert rows[0] == rows[1] != rows[2]
    assert router.cache_stats() is None


def test_resolve_tags_each_answer_with_its_cache_state(served_world):
    _, _, store = served_world
    router = QueryRouter.build(store, cache_capacity=16)
    assert router.resolve("a1") == (store.query_id("a1"), "miss")
    assert router.resolve("a1") == (store.query_id("a1"), "hit")
    assert QueryRouter.build(store, cache_capacity=0).resolve("a1") == (
        store.query_id("a1"), "bypass")
