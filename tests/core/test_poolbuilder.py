from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import hierarchical_cluster, merge_weighted_clusters
from repro.core import CandidatePoolBuilder, build_candidate_pool, project_stays
from repro.core import candidates
from repro.core.candidates import BATCH_PERIOD_S
from repro.geo import LocalProjection
from repro.trajectory import StayPoint
from tests.core.helpers import PROJ


def sp(x, y, t=0.0):
    lng, lat = PROJ.to_lnglat(x, y)
    return StayPoint(float(lng), float(lat), t, t + 60.0, "c1", n_points=4)


def xy(stays):
    return project_stays(stays, PROJ)


class TestCandidatePoolBuilder:
    def test_empty_builder(self):
        builder = CandidatePoolBuilder(PROJ)
        pool = builder.build()
        assert len(pool) == 0
        assert builder.clusters == []

    def test_single_batch_matches_direct_clustering(self):
        stays = [sp(0, 0), sp(6, 2, 50), sp(400, 0, 100)]
        builder = CandidatePoolBuilder(PROJ, 40.0)
        builder.add_batch(xy(stays))
        streamed = builder.build()
        direct = build_candidate_pool(stays, PROJ, 40.0)
        assert len(streamed) == len(direct)
        for a, b in zip(streamed.candidates, direct.candidates):
            assert a.x == pytest.approx(b.x, abs=1e-9)
            assert a.weight == b.weight

    @pytest.mark.parametrize("threshold", [25.0, 40.0, 60.0])
    def test_incremental_validity_invariant(self, threshold):
        """After every batch, all centroids stay >= D apart."""
        rng = np.random.default_rng(0)
        builder = CandidatePoolBuilder(PROJ, threshold)
        for batch in range(4):
            stays = [
                sp(float(x), float(y), t=batch * 1e5 + i)
                for i, (x, y) in enumerate(rng.uniform(0, 600, size=(25, 2)))
            ]
            builder.add_batch(xy(stays))
            pool = builder.build()
            coords = np.array([[c.x, c.y] for c in pool.candidates])
            for i in range(len(coords)):
                for j in range(i + 1, len(coords)):
                    assert np.hypot(*(coords[i] - coords[j])) >= threshold - 1e-6
        assert sum(c.weight for c in builder.clusters) == pytest.approx(100.0)

    def test_incremental_vs_one_shot_counts_close(self):
        """Streaming the stays in batches finds about as many locations as
        clustering them all at once (merge order only shifts boundaries)."""
        rng = np.random.default_rng(7)
        stays = [
            sp(float(x), float(y), t=float(i))
            for i, (x, y) in enumerate(rng.uniform(0, 1000, size=(200, 2)))
        ]
        one_shot = build_candidate_pool(stays, PROJ, 40.0)
        builder = CandidatePoolBuilder(PROJ, 40.0)
        for start in range(0, len(stays), 40):
            builder.add_batch(xy(stays[start:start + 40]))
        streamed = builder.build()
        assert len(streamed) == pytest.approx(len(one_shot), rel=0.2)
        # Both cover the same total mass.
        assert sum(c.weight for c in streamed.candidates) == pytest.approx(
            sum(c.weight for c in one_shot.candidates)
        )

    def test_from_pool_resumes_merging(self):
        """A builder rehydrated from a built pool continues exactly where
        the original builder left off (the DLInfMA.update path)."""
        rng = np.random.default_rng(3)
        first = [
            sp(float(x), float(y), t=float(i))
            for i, (x, y) in enumerate(rng.uniform(0, 600, size=(40, 2)))
        ]
        second = [
            sp(float(x), float(y), t=1e5 + i)
            for i, (x, y) in enumerate(rng.uniform(0, 600, size=(40, 2)))
        ]
        continuous = CandidatePoolBuilder(PROJ, 40.0)
        continuous.add_batch(xy(first))
        checkpoint = continuous.build()

        resumed = CandidatePoolBuilder.from_pool(checkpoint, 40.0)
        assert len(resumed.build()) == len(checkpoint)

        continuous.add_batch(xy(second))
        resumed.add_batch(xy(second))
        ours = [(c.x, c.y, c.weight) for c in resumed.build().candidates]
        theirs = [(c.x, c.y, c.weight) for c in continuous.build().candidates]
        assert ours == pytest.approx(theirs)

    def test_weight_accumulates_across_batches(self):
        builder = CandidatePoolBuilder(PROJ, 40.0)
        builder.add_batch(xy([sp(0, 0), sp(3, 0, 10)]))
        builder.add_batch(xy([sp(1, 1, 20)]))
        pool = builder.build()
        assert len(pool) == 1
        assert pool.candidates[0].weight == pytest.approx(3.0)

    def test_empty_batch_is_harmless(self):
        builder = CandidatePoolBuilder(PROJ, 40.0)
        assert builder.add_batch([]) == 0
        assert builder.add_batch(xy([sp(0, 0)])) == 1
        before = builder.clusters
        assert builder.add_batch([]) == 1
        assert builder.clusters is before

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            CandidatePoolBuilder(PROJ, 0.0)


def reference_pool_rows(stays, projection, threshold=40.0):
    """Section III-B written out: bi-weekly periods, the first clustered,
    each later one merged, ids west to east, each centroid unprojected on
    its own."""
    period_s = 14 * 86_400.0
    t_min = min(s.t for s in stays)
    periods: dict[int, list] = {}
    for s in stays:
        periods.setdefault(int((s.t - t_min) // period_s), []).append(s)
    clusters = []
    for period in sorted(periods):
        batch = periods[period]
        x, y = projection.to_xy(np.array([s.lng for s in batch]),
                                np.array([s.lat for s in batch]))
        coords = np.column_stack([np.atleast_1d(x), np.atleast_1d(y)])
        if clusters:
            clusters = merge_weighted_clusters(clusters, coords, threshold)
        else:
            clusters = hierarchical_cluster(coords, threshold)
    rows = []
    for i, c in enumerate(sorted(clusters, key=lambda c: (c.x, c.y))):
        lng, lat = projection.to_lnglat(c.x, c.y)
        rows.append((i, c.x, c.y, float(lng), float(lat), c.weight))
    return rows


def pool_rows(pool):
    return [(c.candidate_id, c.x, c.y, c.lng, c.lat, c.weight) for c in pool.candidates]


class TestBiweeklyParity:
    """``build_candidate_pool`` equals the written-out Section III-B merge."""

    def test_tiny_preset_stays(self, tiny_artifacts, tiny_workload):
        stays = [s for trip in tiny_artifacts.stay_points_by_trip.values() for s in trip]
        pool = build_candidate_pool(stays, tiny_workload.projection, 40.0)
        assert len(pool) > 0
        assert pool_rows(pool) == reference_pool_rows(stays, tiny_workload.projection)

    def test_tiny_preset_stays_over_two_periods(self, tiny_artifacts, tiny_workload,
                                                monkeypatch):
        """The later half of the preset's stays, moved one period on in a
        copy, merge into the first half's pool and still equal the
        reference; each batch goes through one merge call."""
        stays = sorted(
            (s for trip in tiny_artifacts.stay_points_by_trip.values() for s in trip),
            key=lambda s: s.t,
        )
        half = len(stays) // 2
        shifted = stays[:half] + [
            replace(s, t_arrive=s.t_arrive + BATCH_PERIOD_S, t_leave=s.t_leave + BATCH_PERIOD_S)
            for s in stays[half:]
        ]
        t0 = shifted[0].t
        assert {int((s.t - t0) // BATCH_PERIOD_S) for s in shifted} == {0, 1}
        merges = []

        def spy(*args, **kwargs):
            merges.append(len(args[1]))
            return merge_weighted_clusters(*args, **kwargs)

        monkeypatch.setattr(candidates, "merge_weighted_clusters", spy)
        pool = build_candidate_pool(shifted, tiny_workload.projection, 40.0)
        assert merges == [half, len(stays) - half]
        assert pool_rows(pool) == reference_pool_rows(shifted, tiny_workload.projection)

    def test_each_stay_projected_once(self, monkeypatch):
        projected = []
        to_xy = LocalProjection.to_xy

        def spy(self, lng, lat):
            projected.append(np.size(lng))
            return to_xy(self, lng, lat)

        monkeypatch.setattr(LocalProjection, "to_xy", spy)
        stays = [sp(float(i), 0.0, t=i * 86_400.0) for i in range(40)]
        build_candidate_pool(stays, PROJ, 40.0)
        assert sum(projected) == len(stays)

    def test_stays_spanning_several_periods(self):
        rng = np.random.default_rng(26)
        spots = rng.uniform(0, 1500, size=(40, 2))
        stays = []
        for i in range(600):
            x, y = spots[rng.integers(len(spots))] + rng.normal(0, 12.0, size=2)
            stays.append(sp(float(x), float(y), t=float(rng.uniform(0, 50 * 86_400.0))))
        periods = {int((s.t - min(s.t for s in stays)) // (14 * 86_400.0)) for s in stays}
        assert len(periods) >= 3
        pool = build_candidate_pool(stays, PROJ, 40.0)
        assert pool_rows(pool) == reference_pool_rows(stays, PROJ)
