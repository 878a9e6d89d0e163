"""CLI forensics surface: `repro explain`, `repro blackbox`, exemplars."""

import json

import pytest

from repro.cli import main
from repro.obs.provenance import ProvenanceRing
from repro.obs.recorder import FlightRecorder


@pytest.fixture()
def obs_dir(tmp_path):
    ring = ProvenanceRing(capacity=32, origin="w0")
    ring.mint("a1", "ok", lng=116.4, lat=39.9, source="address",
              cache_state="miss", confidence=0.8, snapshot_version=2,
              trace_id="abc123")
    ring.mint("a2", "unknown_address", error="no such id")
    ring.write_jsonl(tmp_path / "provenance-worker-0.jsonl")
    return tmp_path


class TestExplain:
    def test_renders_matched_records(self, obs_dir, capsys):
        rc = main(["explain", "a1", "--obs-dir", str(obs_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "a1" in out and "address" in out and "abc123" in out

    def test_json_mode_is_machine_readable(self, obs_dir, capsys):
        rc = main(["explain", "a1", "--obs-dir", str(obs_dir), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["n_matched"] == 1
        assert doc["records"][0]["address_id"] == "a1"

    def test_version_one_lines_merge_and_render(self, obs_dir, capsys):
        # A line in the version-1 layout, which also carried per-candidate
        # evidence and model/pool fingerprints, beside a current file.
        old = {
            "version": 1, "key": "w1:00000000", "address_id": "a1",
            "status": "ok", "lng": 116.5, "lat": 39.8, "source": "address",
            "cache_state": "hit", "confidence": 0.7,
            "candidates": [{"candidate_id": "c1", "score": 0.9, "rank": 1,
                            "weight": 2.0, "lng": 116.5, "lat": 39.8}],
            "stays": [{"candidate_id": "c1", "weight": 2.0,
                       "avg_duration_s": 300.0, "n_couriers": 3}],
            "snapshot_version": 1, "model_fingerprint": "matcher:aa",
            "pool_fingerprint": "pool:bb", "trace_id": "old42",
            "origin": "w1", "ts_unix": 1.0, "error": "",
        }
        (obs_dir / "provenance-worker-1.jsonl").write_text(
            json.dumps(old) + "\n", encoding="utf-8")
        rc = main(["explain", "a1", "--obs-dir", str(obs_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 record(s) for a1" in out and "torn" not in out
        assert "(116.500000, 39.800000)" in out and "old42" in out
        assert "snapshot     v1" in out

        rc = main(["explain", "a1", "--obs-dir", str(obs_dir), "--json"])
        records = json.loads(capsys.readouterr().out)["records"]
        assert rc == 0
        assert [r["trace_id"] for r in records] == ["abc123", "old42"]
        assert all("candidates" not in r for r in records)

    def test_missing_address_exits_nonzero(self, obs_dir, capsys):
        rc = main(["explain", "nope", "--obs-dir", str(obs_dir)])
        assert rc == 1
        assert "no provenance records" in capsys.readouterr().err

    def test_empty_dir_fails_clearly(self, tmp_path, capsys):
        rc = main(["explain", "a1", "--obs-dir", str(tmp_path)])
        assert rc == 2
        assert "no provenance files" in capsys.readouterr().err


class TestBlackboxCommand:
    def test_renders_a_dump(self, tmp_path, capsys):
        recorder = FlightRecorder(capacity=8, dump_dir=tmp_path)
        path = recorder.trigger("gate_refusal",
                                context={"served_version": 3})
        rc = main(["blackbox", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "gate_refusal" in out

    def test_json_mode(self, tmp_path, capsys):
        recorder = FlightRecorder(capacity=8, dump_dir=tmp_path)
        path = recorder.trigger("worker_crash")
        rc = main(["blackbox", str(path), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["trigger"] == "worker_crash"

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["blackbox", str(tmp_path / "gone.json")])
        assert rc == 2
        assert "cannot load" in capsys.readouterr().err


class TestObsExportExemplars:
    def test_prom_export_carries_exemplars(self, tmp_path, capsys):
        from repro.obs.exemplar import Exemplar
        from repro.obs.shm import MetricsPlane, SlotSpec

        plane = MetricsPlane.create(
            str(tmp_path / "metrics-w0.shm"),
            [SlotSpec("histogram", "lat_seconds", buckets=(0.1, 1.0),
                      exemplars=True)],
        )
        plane.observe(plane.slot("lat_seconds"), 0.05,
                      exemplar=Exemplar.now(0.05, "tr99", "w0:00000000"))
        plane.close()
        out = tmp_path / "metrics.prom"
        rc = main(["obs-export", "--obs-dir", str(tmp_path),
                   "--out", str(out), "--exemplars"])
        assert rc == 0
        text = out.read_text()
        assert 'trace_id="tr99"' in text
        # Without the flag the same scrape stays plain.
        rc = main(["obs-export", "--obs-dir", str(tmp_path),
                   "--out", str(out)])
        assert rc == 0
        assert "# {" not in out.read_text()
