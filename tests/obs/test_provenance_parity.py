"""ProvenanceRing retention parity against a written-out reference.

``ReferenceRing`` is the ring's retention policy in its plainest form:
build every record, then decide whether to keep it (always-keep deque
for errors, unknown ids and low-confidence answers; Algorithm R with
``crc32(key) % (i + 1)`` as the draw for the rest).  The ring must keep
exactly the records the reference keeps, however it gets there.
"""

import random
import sys
import threading
import time
import zlib
from collections import deque

import pytest

from repro.obs import provenance
from repro.obs.provenance import (
    DEFAULT_LOW_CONFIDENCE,
    ProvenanceRecord,
    ProvenanceRing,
)


class ReferenceRing:
    """Record-first mint + retain, kept here as the parity reference."""

    def __init__(self, capacity, keep_capacity, low_confidence=DEFAULT_LOW_CONFIDENCE,
                 origin="main"):
        self.capacity = capacity
        self.low_confidence = low_confidence
        self.origin = origin
        self._reservoir = []
        self._seen = 0
        self._seq = 0
        self._kept = deque(maxlen=keep_capacity)
        self.placed = []  # keys of the records retained when minted

    def mint(self, address_id, status, **fields):
        seq = self._seq
        self._seq += 1
        record = ProvenanceRecord(
            key=f"{self.origin}:{seq:08d}",
            address_id=str(address_id),
            status=str(status),
            origin=self.origin,
            ts_unix=time.time(),
            **fields,
        )
        self._retain(record)
        return record

    def _always_keep(self, record):
        if record.status != "ok" or record.error:
            return True
        return (record.confidence is not None
                and record.confidence < self.low_confidence)

    def _retain(self, record):
        if self._always_keep(record):
            self._kept.append(record)
            self.placed.append(record.key)
            return
        i = self._seen
        self._seen += 1
        if len(self._reservoir) < self.capacity:
            self._reservoir.append(record)
            self.placed.append(record.key)
            return
        j = zlib.crc32(record.key.encode("utf-8")) % (i + 1)
        if j < self.capacity:
            self._reservoir[j] = record
            self.placed.append(record.key)

    def records(self):
        merged = {r.key: r for r in self._reservoir}
        merged.update((r.key, r) for r in self._kept)
        return sorted(merged.values(), key=lambda r: (r.ts_unix, r.key),
                      reverse=True)

    def __len__(self):
        return len(self._reservoir) + len(self._kept)


def seeded_mints(seed, n=5000):
    """``(address_id, status, fields)`` draws covering every retention case."""
    rng = random.Random(seed)
    for i in range(n):
        address_id = f"a{rng.randrange(800):04d}"
        fields = {
            "lng": 116.3 + rng.random() * 0.1,
            "lat": 39.9 + rng.random() * 0.1,
            "source": rng.choice(["address", "building", "geocode"]),
            "cache_state": rng.choice(["hit", "miss", "bypass"]),
            "snapshot_version": rng.randrange(1, 5),
            "trace_id": f"{rng.getrandbits(64):016x}",
        }
        kind = rng.random()
        if kind < 0.04:
            status = "error"
            fields.update(lng=None, lat=None, source="", cache_state="",
                          error="RuntimeError: boom")
        elif kind < 0.08:
            status = "unknown_address"
            fields.update(lng=None, lat=None, source="", cache_state="",
                          error=f"unknown address id: {address_id!r}")
        elif kind < 0.12:
            status = "ok"
            fields["confidence"] = rng.random() * DEFAULT_LOW_CONFIDENCE
        elif kind < 0.13:
            status = "ok"
            fields["confidence"] = DEFAULT_LOW_CONFIDENCE  # boundary: routine
        elif kind < 0.55:
            status = "ok"
            fields["confidence"] = None
        else:
            status = "ok"
            fields["confidence"] = DEFAULT_LOW_CONFIDENCE + rng.random() * 0.8
        yield address_id, status, fields


def without_ts(record):
    doc = record.to_dict()
    del doc["ts_unix"]
    return doc


@pytest.mark.parametrize("capacity,keep_capacity,seed", [
    (1, 1, 0),
    (16, 8, 1),
    (256, 128, 2),
    (512, 64, 3),
])
def test_ring_keeps_the_reference_records(capacity, keep_capacity, seed):
    ring = ProvenanceRing(capacity=capacity, keep_capacity=keep_capacity,
                          origin="w1")
    reference = ReferenceRing(capacity, keep_capacity, origin="w1")
    n_keep = n_routine = 0
    for address_id, status, fields in seeded_mints(seed):
        reference.mint(address_id, status, **fields)
        ring.mint(address_id, status, **fields)
        if reference._always_keep(ProvenanceRecord("", address_id, status, **fields)):
            n_keep += 1
        else:
            n_routine += 1
    # Both bounds overflow, so both eviction paths run.
    assert n_routine > capacity and n_keep > keep_capacity
    assert len(ring) == len(reference) == capacity + keep_capacity
    got = [without_ts(r) for r in ring.records()]
    want = [without_ts(r) for r in reference.records()]
    assert got == want


def test_discarded_routine_answer_builds_no_record(monkeypatch):
    built = []

    class SpyRecord(ProvenanceRecord):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.key)

    monkeypatch.setattr(provenance, "ProvenanceRecord", SpyRecord)
    ring = ProvenanceRing(capacity=8)
    n_dropped = 0
    for i in range(2000):
        before = len(built)
        key = ring.mint(f"a{i}", "ok", confidence=0.9, source="address")
        kept = key in {r.key for r in ring.records()}
        assert len(built) - before == int(kept), (i, key)
        n_dropped += not kept
    assert n_dropped > 1900
    # An always-keep answer is built and kept even with the reservoir full.
    key = ring.mint("bad", "error", error="boom")
    assert built[-1] == key and ring.find("bad")[0].key == key


def test_concurrent_mints_keep_what_a_sequential_replay_keeps():
    """Threads minting at once lose no update: replaying the mints in key
    order through the reference keeps exactly the ring's records."""
    ring = ProvenanceRing(capacity=64, keep_capacity=16, origin="t")
    minted = [[] for _ in range(8)]

    def worker(k):
        for address_id, status, fields in seeded_mints(100 + k, n=1500):
            key = ring.mint(address_id, status, **fields)
            minted[k].append((key, address_id, status, fields))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(previous)
    mints = sorted(m for per_thread in minted for m in per_thread)
    assert [m[0] for m in mints] == [f"t:{i:08d}" for i in range(8 * 1500)]
    reference = ReferenceRing(64, 16, origin="t")
    for _key, address_id, status, fields in mints:
        reference.mint(address_id, status, **fields)
    assert len(ring) == len(reference)
    got = sorted((without_ts(r) for r in ring.records()), key=lambda d: d["key"])
    want = sorted((without_ts(r) for r in reference.records()), key=lambda d: d["key"])
    assert got == want


# ----------------------------------------------------------------------
# Batch mint: ``mint_rows`` over columns keeps what ``mint`` keeps.
# ----------------------------------------------------------------------
def seeded_batches(seed, n=5000, sizes=(1, 2, 7, 64, 300)):
    """``seeded_mints`` cut into batches of mixed sizes; every row of a
    batch carries that batch's snapshot version and trace id."""
    rng = random.Random(seed + 1000)
    draws = list(seeded_mints(seed, n))
    i = 0
    while i < len(draws):
        batch = draws[i:i + rng.choice(sizes)]
        i += len(batch)
        version, trace_id = rng.randrange(1, 5), f"{rng.getrandbits(64):016x}"
        for _, _, fields in batch:
            fields.update(snapshot_version=version, trace_id=trace_id)
        yield batch


def mint_batch(ring, batch, nan_for_none=True):
    """``ring.mint_rows`` over ``batch``'s draws as columns.  A missing
    number goes in as NaN (a reply row's form) or as ``None``."""
    def number(x):
        return float("nan") if x is None and nan_for_none else x

    fields = [f for _, _, f in batch]
    return ring.mint_rows(
        [a for a, _, _ in batch], [s for _, s, _ in batch],
        [number(f["lng"]) for f in fields], [number(f["lat"]) for f in fields],
        [f["source"] for f in fields], [f["cache_state"] for f in fields],
        [number(f.get("confidence")) for f in fields],
        {i: f["error"] for i, f in enumerate(fields) if f.get("error")},
        fields[0]["snapshot_version"], fields[0]["trace_id"],
    )


def same_records(ring, reference):
    assert len(ring) == len(reference)
    got = sorted((without_ts(r) for r in ring.records()), key=lambda d: d["key"])
    want = sorted((without_ts(r) for r in reference.records()),
                  key=lambda d: d["key"])
    assert got == want


@pytest.mark.parametrize("capacity,keep_capacity,seed,nan_for_none", [
    (1, 1, 10, True),
    (16, 8, 11, False),
    (256, 128, 12, True),
    (512, 64, 13, True),
])
def test_batch_mint_keeps_the_reference_records(capacity, keep_capacity, seed,
                                                nan_for_none):
    ring = ProvenanceRing(capacity=capacity, keep_capacity=keep_capacity,
                          origin="w1")
    reference = ReferenceRing(capacity, keep_capacity, origin="w1")
    statuses = set()
    for batch in seeded_batches(seed):
        want = [reference.mint(a, s, **f).key for a, s, f in batch]
        assert mint_batch(ring, batch, nan_for_none) == want
        statuses.update(s for _, s, _ in batch)
    assert statuses == {"ok", "error", "unknown_address"}
    assert len(ring) == capacity + keep_capacity  # both bounds overflowed
    same_records(ring, reference)


def test_reservoir_fills_partway_through_a_batch():
    ring = ProvenanceRing(capacity=10, keep_capacity=4, origin="w0")
    reference = ReferenceRing(10, 4, origin="w0")
    draws = [d for d in seeded_mints(20, n=400)
             if d[1] == "ok" and d[2]["confidence"] is None]
    keep = [d for d in seeded_mints(21, n=400) if d[1] != "ok"]
    # 7 routine answers, then a batch whose routine rows fill the last
    # 3 slots and go on into the draw, with always-keep rows between.
    first, batch = draws[:7], draws[7:20]
    batch[1:1] = keep[:2]
    batch[6:6] = keep[2:3]
    for rows in (first[:4], first[4:], batch):
        for a, s, f in rows:
            f.update(snapshot_version=1, trace_id="t")
            reference.mint(a, s, **f)
        mint_batch(ring, rows)
    assert ring._seen == 20 and len(ring._reservoir) == 10
    same_records(ring, reference)


def test_single_and_batch_mints_interleave():
    ring = ProvenanceRing(capacity=32, keep_capacity=8, origin="w2")
    reference = ReferenceRing(32, 8, origin="w2")
    for k, batch in enumerate(seeded_batches(30, n=3000)):
        want = [reference.mint(a, s, **f).key for a, s, f in batch]
        if k % 2:
            got = mint_batch(ring, batch)
        else:
            got = [ring.mint(a, s, **f) for a, s, f in batch]
        assert got == want
    same_records(ring, reference)


def test_batch_mint_builds_no_record_for_a_dropped_row(monkeypatch):
    built = []

    class SpyRecord(ProvenanceRecord):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.key)

    monkeypatch.setattr(provenance, "ProvenanceRecord", SpyRecord)
    ring = ProvenanceRing(capacity=8)
    reference = ReferenceRing(8, 128)
    routine = [(f"a{i}", "ok", {"lng": 116.4, "lat": 39.9, "source": "address",
                                "cache_state": "miss", "confidence": 0.9,
                                "snapshot_version": 1, "trace_id": "t"})
               for i in range(64)]
    for _ in range(30):
        for a, s, f in routine:
            reference.mint(a, s, **f)
        mint_batch(ring, routine)
        # A record is built for each row the reservoir took when it was
        # minted (a later row of the batch may replace it), and no other.
        assert built == reference.placed
    assert len(built) < 30 * 64 / 10


def test_concurrent_batch_mints_keep_what_a_sequential_replay_keeps():
    """Threads minting batches at once: each batch's keys are one run, and
    replaying every row in key order through the reference keeps exactly
    the ring's records."""
    ring = ProvenanceRing(capacity=64, keep_capacity=16, origin="t")
    minted = [[] for _ in range(6)]

    def worker(k):
        for batch in seeded_batches(200 + k, n=1500, sizes=(1, 3, 17, 40)):
            keys = mint_batch(ring, batch)
            minted[k].extend(zip(keys, batch))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(previous)
    rows = sorted((m for per_thread in minted for m in per_thread),
                  key=lambda m: m[0])
    assert [key for key, _ in rows] == [f"t:{i:08d}" for i in range(6 * 1500)]
    reference = ReferenceRing(64, 16, origin="t")
    for _key, (address_id, status, fields) in rows:
        reference.mint(address_id, status, **fields)
    same_records(ring, reference)
