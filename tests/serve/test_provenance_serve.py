"""Provenance minted at serve time, on both serving backends."""

import os

import pytest

from repro.obs.provenance import (
    ProvenanceRing,
    merge_provenance,
    reset_provenance_ring,
    set_provenance_ring,
)
from repro.obs.shm import PlaneSchemaError
from repro.serve import (
    ProcessRouter,
    QueryServer,
    ServerConfig,
    ServeStatus,
    SnapshotPublisher,
)


@pytest.fixture(autouse=True)
def fresh_ring():
    ring = ProvenanceRing(capacity=128)
    previous = set_provenance_ring(ring)
    try:
        yield ring
    finally:
        set_provenance_ring(previous)
        reset_provenance_ring()


class TestThreadBackendProvenance:
    def test_ok_answer_mints_a_record(self, served_world, fresh_ring):
        _, _, store = served_world
        with QueryServer(store, ServerConfig(n_workers=2)) as server:
            response = server.query("a1")
        assert response.status is ServeStatus.OK
        found = fresh_ring.find("a1")
        assert found, "no provenance minted for a served answer"
        record = found[0]
        assert record.status == "ok"
        assert record.lng == pytest.approx(response.result.location.lng)
        assert record.source == response.result.source.value
        assert record.snapshot_version == store.version

    def test_unknown_address_is_always_kept(self, served_world, fresh_ring):
        _, _, store = served_world
        with QueryServer(store, ServerConfig(n_workers=1)) as server:
            for i in range(50):
                server.query(f"a{i % 8}")
            response = server.query("missing-id")
        assert response.status is ServeStatus.UNKNOWN_ADDRESS
        found = fresh_ring.find("missing-id")
        assert found and found[0].status == "unknown_address"
        assert found[0].error

    def test_cache_hit_records_cache_tier(self, served_world, fresh_ring):
        _, _, store = served_world
        config = ServerConfig(n_workers=1, cache_capacity=64)
        with QueryServer(store, config) as server:
            server.query("a2")
            server.query("a2")
        states = [r.cache_state for r in fresh_ring.find("a2")]
        assert "hit" in states


class TestProcessBackendProvenance:
    @pytest.fixture()
    def snapshot_dir(self, served_world, tmp_path):
        _, _, store = served_world
        publisher = SnapshotPublisher(str(tmp_path))
        publisher.publish(store)
        yield str(tmp_path)
        publisher.close()

    def test_workers_persist_rings_on_shutdown(self, snapshot_dir):
        with ProcessRouter(snapshot_dir, n_workers=2) as router:
            for i in range(8):
                router.query(f"a{i}")
            router.query("missing-id")
        obs_dir = os.path.join(snapshot_dir, "obs")
        files = sorted(
            f for f in os.listdir(obs_dir)
            if f.startswith("provenance-worker-")
        )
        assert files, "workers persisted no provenance"
        records, stats = merge_provenance(
            [os.path.join(obs_dir, f) for f in files]
        )
        assert stats["n_torn_lines"] == 0
        by_address = {r.address_id for r in records}
        assert "missing-id" in by_address  # always-keep survived sampling
        ok = [r for r in records if r.status == "ok"]
        assert ok and all(r.key.startswith("w") for r in ok)
        assert all(r.snapshot_version is not None for r in ok)

    def test_fleet_verdict_refuses_empty_obs_dir(self, tmp_path):
        router = ProcessRouter(str(tmp_path), n_workers=1)
        router.obs_dir = str(tmp_path / "nothing-here")
        os.makedirs(router.obs_dir, exist_ok=True)
        with pytest.raises(PlaneSchemaError, match="no metrics planes"):
            router.fleet_verdict([])
