"""Provenance records: minting, retention policy, persistence, merging."""

import json

from repro.obs.provenance import (
    PROVENANCE_VERSION,
    ProvenanceRecord,
    ProvenanceRing,
    merge_provenance,
    read_provenance,
    render_record,
)


def _fill(ring, n, status="ok", confidence=0.9, **fields):
    return [
        ring.mint(f"addr-{i:04d}", status, confidence=confidence, **fields)
        for i in range(n)
    ]


class TestRecord:
    def test_dict_roundtrip(self):
        record = ProvenanceRecord(
            key="main:00000001", address_id="a1", status="ok",
            lng=116.4, lat=39.9, source="address", cache_state="miss",
            confidence=0.83, snapshot_version=7, trace_id="t" * 16,
        )
        back = ProvenanceRecord.from_dict(record.to_dict())
        assert back == record
        assert back.version == PROVENANCE_VERSION

    def test_render_mentions_the_load_bearing_fields(self):
        record = ProvenanceRecord(
            key="main:00000009", address_id="a9", status="ok",
            lng=1.0, lat=2.0, source="building", cache_state="miss",
            confidence=0.5, snapshot_version=4, trace_id="abcd",
        )
        text = render_record(record)
        assert "a9" in text and "building / miss" in text
        assert "(1.000000, 2.000000)" in text and "0.5000" in text
        assert "v4" in text and "abcd" in text

    def test_version_one_evidence_keys_are_ignored(self):
        doc = ProvenanceRecord(
            key="w0:00000002", address_id="a2", status="ok", lng=3.0, lat=4.0,
            source="address", snapshot_version=1, trace_id="t1",
        ).to_dict()
        doc.update(
            version=1,
            candidates=[{"candidate_id": "c1", "score": 0.9, "rank": 1}],
            stays=[{"candidate_id": "c1", "weight": 2.0}],
            model_fingerprint="matcher:aa", pool_fingerprint="pool:bb",
        )
        record = ProvenanceRecord.from_dict(doc)
        assert record.version == 1
        assert (record.address_id, record.lng, record.trace_id) == ("a2", 3.0, "t1")
        assert set(record.to_dict()) == set(doc) - {
            "candidates", "stays", "model_fingerprint", "pool_fingerprint",
        }


class TestRingRetention:
    def test_always_keeps_errors_and_low_confidence(self):
        ring = ProvenanceRing(capacity=4, keep_capacity=8)
        _fill(ring, 50)
        bad = ring.mint("bad-id", "error", error="boom")
        shaky = ring.mint("shaky", "ok", confidence=0.05)
        unknown = ring.mint("nope", "unknown_address")
        keys = {r.key for r in ring.records()}
        assert {bad, shaky, unknown} <= keys

    def test_reservoir_is_deterministic(self):
        def run():
            ring = ProvenanceRing(capacity=8)
            _fill(ring, 200)
            return [r.key for r in ring.records()]

        assert run() == run()

    def test_len_is_bounded_by_both_capacities(self):
        ring = ProvenanceRing(capacity=8, keep_capacity=4)
        _fill(ring, 100)
        _fill(ring, 10, status="error")
        assert len(ring) == len(ring.records()) == 8 + 4

    def test_find_returns_newest_first(self):
        ring = ProvenanceRing(capacity=32)
        first = ring.mint("dup", "ok", confidence=0.9, snapshot_version=1)
        second = ring.mint("dup", "ok", confidence=0.9, snapshot_version=2)
        found = ring.find("dup")
        assert [r.key for r in found] == [second, first]


class TestPersistence:
    def test_jsonl_roundtrip(self, tmp_path):
        ring = ProvenanceRing(capacity=16)
        minted = _fill(ring, 10, snapshot_version=3)
        path = ring.write_jsonl(tmp_path / "provenance-w0.jsonl")
        records, n_torn = read_provenance(path)
        assert n_torn == 0
        assert {r.key for r in records} == set(minted)

    def test_torn_tail_is_skipped_and_counted(self, tmp_path):
        ring = ProvenanceRing(capacity=16)
        _fill(ring, 5)
        path = ring.write_jsonl(tmp_path / "p.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "main:fffffff"')  # crash mid-line
        records, n_torn = read_provenance(path)
        assert len(records) == 5
        assert n_torn == 1

    def test_future_version_records_are_skipped_not_fatal(self, tmp_path):
        ring = ProvenanceRing(capacity=16)
        _fill(ring, 2)
        path = ring.write_jsonl(tmp_path / "p.jsonl")
        other = ProvenanceRing(capacity=4)
        _fill(other, 1)
        doc = other.records()[0].to_dict()
        doc["version"] = PROVENANCE_VERSION + 1
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(doc) + "\n")
        records, n_torn = read_provenance(path)
        assert len(records) == 2
        assert n_torn == 1


class TestMerge:
    def test_merge_dedups_newest_wins_and_counts(self, tmp_path):
        r1 = ProvenanceRing(capacity=16, origin="w0")
        r2 = ProvenanceRing(capacity=16, origin="w1")
        _fill(r1, 4)
        _fill(r2, 6)
        p1 = r1.write_jsonl(tmp_path / "provenance-worker-0.jsonl")
        p2 = r2.write_jsonl(tmp_path / "provenance-worker-1.jsonl")
        out = tmp_path / "merged.jsonl"
        records, stats = merge_provenance([p1, p2, p1], out=out)
        assert stats["n_files"] == 3
        assert stats["n_records"] == 10  # duplicate file dedup'd by key
        assert out.exists()
        again, stats2 = merge_provenance([out])
        assert {r.key for r in again} == {r.key for r in records}

    def test_unreadable_file_is_counted_not_fatal(self, tmp_path):
        ring = ProvenanceRing(capacity=8)
        _fill(ring, 3)
        good = ring.write_jsonl(tmp_path / "good.jsonl")
        records, stats = merge_provenance(
            [good, tmp_path / "missing.jsonl"]
        )
        assert len(records) == 3
        assert stats["n_unreadable_files"] == 1

    def test_merge_nothing_is_empty(self):
        records, stats = merge_provenance([])
        assert records == []
        assert stats["n_records"] == 0
