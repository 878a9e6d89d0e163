"""ShardedPoolMerger: two-phase stage/commit/rollback and snapping."""

import numpy as np
import pytest

from repro.core import CandidatePoolBuilder, project_stays
from repro.geo import LocalProjection, Point
from repro.stream import ShardedPoolMerger
from repro.trajectory import StayPoint

PROJ = LocalProjection(Point(116.0, 39.9))


def stay_at(x, y, courier="c0", duration=120.0, t0=0.0):
    lng, lat = PROJ.to_lnglat(x, y)
    return StayPoint(
        lng=float(lng), lat=float(lat),
        t_arrive=t0, t_leave=t0 + duration,
        courier_id=courier, n_points=10,
    )


def pool_state(merger):
    """Canonical snapshot of the merged cluster set."""
    return sorted(
        (round(c.x, 9), round(c.y, 9), c.weight)
        for c in merger.all_clusters()
    )


class TestStageCommit:
    def test_commit_makes_the_batch_permanent(self):
        merger = ShardedPoolMerger(PROJ)
        merger.stage([stay_at(0, 0), stay_at(5, 5), stay_at(2000, 0)])
        merger.commit()
        assert merger.n_committed_batches == 1
        assert merger.n_committed_stays == 3
        # 0/5 merge (40 m threshold); 2000 is its own candidate.
        assert merger.n_candidates() == 2
        assert merger.n_shards == 2  # 800 m cells

    def test_incremental_merge_accumulates_weight(self):
        merger = ShardedPoolMerger(PROJ)
        merger.stage([stay_at(0, 0)])
        merger.commit()
        merger.stage([stay_at(3, 3)])
        merger.commit()
        assert merger.n_candidates() == 1
        assert merger.all_clusters()[0].weight == pytest.approx(2.0)

    def test_single_staged_batch_at_a_time(self):
        merger = ShardedPoolMerger(PROJ)
        merger.stage([stay_at(0, 0)])
        with pytest.raises(RuntimeError):
            merger.stage([stay_at(9, 9)])
        merger.commit()
        with pytest.raises(RuntimeError):
            merger.commit()
        with pytest.raises(RuntimeError):
            merger.rollback()


class TestRollback:
    def test_rollback_restores_exact_prior_state(self):
        merger = ShardedPoolMerger(PROJ)
        merger.stage([stay_at(0, 0), stay_at(10, 0), stay_at(900, 900)])
        merger.commit()
        before = pool_state(merger)
        staged = [stay_at(1, 1), stay_at(905, 903), stay_at(-3000, 50)]
        merger.stage(staged)
        assert pool_state(merger) != before  # the stage really mutated
        quarantined = merger.rollback()
        assert quarantined == staged
        assert pool_state(merger) == before
        assert merger.n_committed_batches == 1

    def test_rollback_removes_shards_the_batch_created(self):
        merger = ShardedPoolMerger(PROJ)
        merger.stage([stay_at(0, 0)])
        merger.commit()
        assert merger.n_shards == 1
        merger.stage([stay_at(5000, 5000), stay_at(-5000, 0)])
        assert merger.n_shards == 3
        merger.rollback()
        assert merger.n_shards == 1

    def test_rollback_of_first_batch_leaves_empty_pool(self):
        merger = ShardedPoolMerger(PROJ)
        merger.stage([stay_at(0, 0), stay_at(700, 0)])
        merger.rollback()
        assert merger.n_candidates() == 0
        assert merger.n_shards == 0
        assert pool_state(merger) == []


class TestMaterialization:
    def test_build_pool_ids_run_west_to_east(self):
        merger = ShardedPoolMerger(PROJ)
        merger.stage([stay_at(500, 0), stay_at(-500, 0), stay_at(0, 0)])
        merger.commit()
        pool = merger.build_pool()
        xs = [c.x for c in sorted(pool.candidates, key=lambda c: c.candidate_id)]
        assert xs == sorted(xs)

    def test_snap_locations_picks_heaviest_nearby(self):
        merger = ShardedPoolMerger(PROJ)
        # Heavy cluster at (30, 0), light one at (-30, 0).
        merger.stage(
            [stay_at(30, 0, courier=f"a{i}") for i in range(5)]
            + [stay_at(-30, 0, courier="b0")]
        )
        merger.commit()
        lng, lat = PROJ.to_lnglat(0.0, 0.0)
        snapped = merger.snap_locations(
            {"addr": Point(float(lng), float(lat))},
            snap_radius_m=100.0, min_weight=2.0,
        )
        assert "addr" in snapped
        x, y = PROJ.to_xy(snapped["addr"].lng, snapped["addr"].lat)
        assert float(x) == pytest.approx(30.0, abs=1.0)

    def test_snap_omits_unsupported_addresses(self):
        merger = ShardedPoolMerger(PROJ)
        merger.stage([stay_at(0, 0)])  # weight 1 < min_weight
        merger.commit()
        lng, lat = PROJ.to_lnglat(0.0, 0.0)
        far_lng, far_lat = PROJ.to_lnglat(10_000.0, 0.0)
        snapped = merger.snap_locations(
            {"weak": Point(float(lng), float(lat)),
             "far": Point(float(far_lng), float(far_lat))},
            snap_radius_m=100.0, min_weight=2.0,
        )
        assert snapped == {}


class TestProjection:
    def test_each_staged_stay_projected_once(self, monkeypatch):
        projected = []
        to_xy = LocalProjection.to_xy

        def spy(self, lng, lat):
            projected.append(np.size(lng))
            return to_xy(self, lng, lat)

        monkeypatch.setattr(LocalProjection, "to_xy", spy)
        stays = [stay_at(float(x), 10.0) for x in range(0, 3000, 100)]
        merger = ShardedPoolMerger(PROJ)
        merger.stage(stays)
        assert merger.n_shards == 4
        assert sum(projected) == len(stays)


class TestBuilderParity:
    def test_one_cell_pool_equals_the_batch_builder(self):
        """One cell's stays, staged and committed, give the same pool as the
        batch builder fed the same stays."""
        rng = np.random.default_rng(4)
        stays = [
            stay_at(float(x), float(y), courier=f"c{i}")
            for i, (x, y) in enumerate(rng.uniform(10, 790, size=(300, 2)))
        ]
        merger = ShardedPoolMerger(PROJ)
        merger.stage(stays)
        merger.commit()
        assert merger.n_shards == 1
        builder = CandidatePoolBuilder(PROJ, 40.0)
        builder.add_batch(project_stays(stays, PROJ))

        def rows(pool):
            return [(c.candidate_id, c.x, c.y, c.lng, c.lat, c.weight)
                    for c in pool.candidates]

        assert rows(merger.build_pool()) == rows(builder.build())
