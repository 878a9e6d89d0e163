import tracemalloc

import numpy as np
import pytest

import repro.core.candidates as candidates_mod
from repro.core import (
    CandidatePool,
    DLInfMAConfig,
    build_artifacts,
    build_candidate_pool,
    extract_trip_stay_points,
    project_stays,
)
from repro.trajectory import StayPoint
from tests.core.helpers import PROJ, make_trip, pool_of, profiles_of


class TestExtractTripStayPoints:
    def test_finds_stays_at_stops(self):
        trip = make_trip(
            "t1", "c1",
            stops=[(0.0, 0.0, 40.0, 120.0), (300.0, 0.0, 220.0, 90.0)],
            waybills=[("a1", 170.0)],
        )
        stays = extract_trip_stay_points([trip])["t1"]
        assert len(stays) == 2
        xs = [PROJ.to_xy(sp.lng, sp.lat)[0] for sp in stays]
        assert xs[0] == pytest.approx(0.0, abs=3.0)
        assert xs[1] == pytest.approx(300.0, abs=3.0)

    def test_keyed_by_trip_id(self):
        t1 = make_trip("t1", "c1", [(0.0, 0.0, 40.0, 120.0)], [("a1", 100.0)])
        t2 = make_trip("t2", "c1", [(0.0, 0.0, 40.0, 120.0)], [("a1", 100.0)])
        out = extract_trip_stay_points([t1, t2])
        assert set(out) == {"t1", "t2"}

    def test_empty_trips(self):
        assert extract_trip_stay_points([]) == {}


def sp(x, y, t=0.0, dur=60.0, courier="c1"):
    lng, lat = PROJ.to_lnglat(x, y)
    return StayPoint(float(lng), float(lat), t - dur / 2, t + dur / 2, courier, n_points=4)


class TestBuildCandidatePool:
    def test_empty(self):
        pool = build_candidate_pool([], PROJ)
        assert len(pool) == 0
        assert pool.nearest(0.0, 0.0) is None

    def test_close_stays_merge(self):
        pool = build_candidate_pool([sp(0, 0), sp(10, 0), sp(500, 0)], PROJ, 40.0)
        assert len(pool) == 2

    def test_candidate_ids_are_dense(self):
        pool = build_candidate_pool([sp(0, 0), sp(500, 0), sp(1000, 0)], PROJ, 40.0)
        assert sorted(c.candidate_id for c in pool.candidates) == [0, 1, 2]

    def test_pairwise_separation_invariant(self):
        rng = np.random.default_rng(0)
        stays = [sp(float(x), float(y), t=float(i)) for i, (x, y) in enumerate(rng.uniform(0, 800, (120, 2)))]
        pool = build_candidate_pool(stays, PROJ, 40.0)
        coords = np.array([[c.x, c.y] for c in pool.candidates])
        for i in range(len(coords)):
            for j in range(i + 1, len(coords)):
                assert np.hypot(*(coords[i] - coords[j])) >= 40.0 - 1e-6

    def test_biweekly_batching_equivalent_coverage(self):
        """Stays spread over 6 weeks go through incremental merging and
        still yield one candidate per true location."""
        stays = []
        for week in range(6):
            t = week * 7 * 86_400.0
            stays += [sp(0, 0, t=t), sp(5, 5, t=t + 100), sp(500, 0, t=t + 200)]
        pool = build_candidate_pool(stays, PROJ, 40.0)
        assert len(pool) == 2

    def test_grid_method(self):
        pool = build_candidate_pool([sp(1, 1), sp(39, 1)], PROJ, 40.0, method="grid")
        assert len(pool) == 1
        pool2 = build_candidate_pool([sp(39, 1), sp(41, 1)], PROJ, 40.0, method="grid")
        assert len(pool2) == 2  # boundary split: the documented weakness

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            build_candidate_pool([sp(0, 0)], PROJ, 40.0, method="bogus")

    def test_nearest_and_within(self):
        pool = build_candidate_pool([sp(0, 0), sp(500, 0)], PROJ, 40.0)
        near = pool.nearest(10.0, 0.0)
        assert near.x == pytest.approx(0.0, abs=1.0)
        hits = pool.within(0.0, 0.0, 100.0)
        assert len(hits) == 1

    def test_within_matches_inclusive_bruteforce_in_id_order(self):
        rng = np.random.default_rng(9)
        coords = np.vstack([rng.uniform(-300, 300, size=(200, 2)),
                            [[30.0, 40.0], [-50.0, 0.0], [0.0, 50.0]]])  # |p| == 50
        ids = rng.permutation(len(coords))
        pool = pool_of(coords, ids)
        for qx, qy, r in [(0.0, 0.0, 50.0), (120.0, -80.0, 75.0), (0.0, 0.0, 0.0)]:
            expect = sorted(
                int(i) for i, (x, y) in zip(ids, coords)
                if (x - qx) ** 2 + (y - qy) ** 2 <= r * r
            )
            assert [c.candidate_id for c in pool.within(qx, qy, r)] == expect
        on_circle = {int(ids[-3]), int(ids[-2]), int(ids[-1])}
        assert on_circle <= {c.candidate_id for c in pool.within(0.0, 0.0, 50.0)}
        assert pool_of([]).within(0.0, 0.0, 100.0) == []

    def test_lnglat_consistent_with_xy(self):
        pool = build_candidate_pool([sp(123, 456)], PROJ, 40.0)
        c = pool.candidates[0]
        x, y = PROJ.to_xy(c.lng, c.lat)
        assert x == pytest.approx(c.x, abs=1e-6)
        assert y == pytest.approx(c.y, abs=1e-6)


class TestProfiles:
    def test_average_duration(self):
        stays = [sp(0, 0, t=100, dur=60), sp(2, 0, t=200, dur=120)]
        pool = build_candidate_pool(stays, PROJ, 40.0)
        profiles = profiles_of(stays, pool)
        assert profiles[0].avg_duration_s == pytest.approx(90.0)

    def test_courier_count(self):
        stays = [sp(0, 0, courier="c1"), sp(2, 0, t=100, courier="c2"), sp(3, 0, t=200, courier="c1")]
        pool = build_candidate_pool(stays, PROJ, 40.0)
        profiles = profiles_of(stays, pool)
        assert profiles[0].n_couriers == 2

    def test_time_histogram(self):
        # Visits at 08:30 and 14:30 (day seconds).
        stays = [sp(0, 0, t=8.5 * 3600), sp(2, 0, t=14.5 * 3600 + 86_400)]
        pool = build_candidate_pool(stays, PROJ, 40.0)
        hist = profiles_of(stays, pool)[0].time_hist
        assert hist.sum() == pytest.approx(1.0)
        assert hist[8] == pytest.approx(0.5)
        assert hist[14] == pytest.approx(0.5)

    def test_unvisited_candidate_zero_profile(self):
        # Profiles are defined for every pool candidate even when stay
        # assignment leaves one empty (cannot happen from build, so check
        # the all-candidates contract instead).
        stays = [sp(0, 0), sp(500, 0, t=100)]
        pool = build_candidate_pool(stays, PROJ, 40.0)
        profiles = profiles_of(stays, pool)
        assert set(profiles) == {0, 1}

    def test_profile_vector_layout(self):
        stays = [sp(0, 0, t=8.5 * 3600, dur=80)]
        pool = build_candidate_pool(stays, PROJ, 40.0)
        vec = profiles_of(stays, pool)[0].as_vector()
        assert vec.shape == (26,)
        assert vec[0] == pytest.approx(80.0)
        assert vec[1] == 1.0

    def test_assign_stay_points(self):
        stays = [sp(0, 0), sp(500, 0, t=100)]
        pool = build_candidate_pool(stays, PROJ, 40.0)
        assignment = assign([sp(3, 0), sp(497, 1)], pool)
        a0 = pool.by_id[assignment[0]]
        a1 = pool.by_id[assignment[1]]
        assert a0.x == pytest.approx(0.0, abs=1.0)
        assert a1.x == pytest.approx(500.0, abs=1.0)

    def test_assign_empty_pool(self):
        """With no candidate a stay is assigned nowhere: no profiles."""
        pool = build_candidate_pool([], PROJ)
        assert profiles_of([sp(0, 0)], pool) == {}


def assign(stay_points, pool):
    """Nearest candidate id per stay, as the feature extractor assigns them."""
    return pool.nearest_ids(project_stays(stay_points, pool.projection)).tolist()


def oracle_assign(stay_points, pool):
    """Pure-Python nearest candidate per stay (None for an empty pool)."""
    xy = [pool.projection.to_xy(stay.lng, stay.lat) for stay in stay_points]
    return oracle_nearest(xy, pool)


def oracle_nearest(xy, pool):
    """Pure-Python nearest candidate per (x, y): lowest id on an exact tie.

    ``dx * dx`` is the float64 product numpy's ``** 2`` computes; Python's
    ``float ** 2`` goes through libm ``pow``, which can be one ulp off.
    """
    ordered = sorted(pool.candidates, key=lambda c: c.candidate_id)
    out = []
    for x, y in xy:
        x, y = float(x), float(y)
        best, best_d2 = None, float("inf")
        for c in ordered:
            dx, dy = c.x - x, c.y - y
            d2 = dx * dx + dy * dy
            if d2 < best_d2:
                best, best_d2 = c.candidate_id, d2
        out.append(best)
    return out


class TestNearestIds:
    def test_nearest_ids_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            pool_of([]).nearest_ids(np.zeros((1, 2)))

    def test_nearest_ids_no_points(self):
        out = pool_of([(0.0, 0.0)]).nearest_ids(np.zeros((0, 2)))
        assert out.shape == (0,) and out.dtype == np.int64


def stays_at(coords):
    return [sp(float(x), float(y), t=float(i)) for i, (x, y) in enumerate(coords)]


class TestAssignmentParity:
    """The blocked kernel equals the pure-Python oracle, id for id."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_random_pools(self, seed):
        rng = np.random.default_rng(seed)
        pool = pool_of(rng.uniform(-2000, 2000, size=(int(rng.integers(2, 300)), 2)))
        stays = stays_at(rng.uniform(-2500, 2500, size=(400, 2)))
        assert assign(stays, pool) == oracle_assign(stays, pool)

    def test_more_points_than_one_block(self):
        rng = np.random.default_rng(9)
        pool = pool_of(rng.uniform(-2000, 2000, size=(1000, 2)))
        stays = stays_at(rng.uniform(-2000, 2000, size=(100, 2)))
        assert len(stays) * len(pool) > candidates_mod.NEAREST_BLOCK
        assert assign(stays, pool) == oracle_assign(stays, pool)

    def test_empty_pool(self):
        stays, pool = stays_at([(0.0, 0.0), (5.0, 5.0)]), pool_of([])
        assert oracle_assign(stays, pool) == [None, None]
        # The extractor asks an empty pool nothing (nearest_ids would raise).
        assert profiles_of(stays, pool) == {}

    def test_one_candidate(self):
        pool = pool_of([(40.0, -30.0)], ids=[7])
        stays = stays_at([(0.0, 0.0), (1e4, 1e4), (40.0, -30.0)])
        assert assign(stays, pool) == oracle_assign(stays, pool) == [7, 7, 7]

    def test_exact_tie_goes_to_lowest_id(self):
        # Listed highest id first: the winner is the lowest id, not the
        # first candidate in the list.
        pool = pool_of([(10.0, 0.0), (-10.0, 0.0), (0.0, 10.0)], ids=[5, 2, 3])
        stays = stays_at([(0.0, 0.0)])
        assert assign(stays, pool) == [2] == oracle_assign(stays, pool)

    def test_stays_far_outside_the_pool(self):
        rng = np.random.default_rng(4)
        pool = pool_of(rng.uniform(-300, 300, size=(50, 2)))
        far = [(1e5, 0.0), (-1e5, -1e5), (0.0, 3e5), (2e5, -7e4)]
        stays = stays_at(far)
        assert assign(stays, pool) == oracle_assign(stays, pool)

    def test_artifacts_equal_with_oracle_assignment(self, tiny_workload, monkeypatch):
        def build():
            return build_artifacts(tiny_workload.trips, tiny_workload.addresses,
                                   tiny_workload.projection, DLInfMAConfig())

        built = build()
        monkeypatch.setattr(
            CandidatePool, "nearest_ids",
            lambda pool, xy: np.array(oracle_nearest(xy, pool), dtype=np.int64),
        )
        oracle = build()

        def profile_bytes(artifacts):
            profiles = artifacts.extractor.profiles
            return {cid: p.as_vector().tobytes() for cid, p in profiles.items()}

        assert profile_bytes(built) == profile_bytes(oracle)
        assert built.examples.keys() == oracle.examples.keys()
        for address_id, example in built.examples.items():
            other = oracle.examples[address_id]
            assert example.candidate_ids == other.candidate_ids
            assert example.features.tobytes() == other.features.tobytes()


def test_nearest_ids_memory_is_blocked():
    """50k points x 1,000 candidates would be a 400 MB distance matrix."""
    rng = np.random.default_rng(0)
    pool = pool_of(rng.uniform(-5000, 5000, size=(1000, 2)))
    xy = rng.uniform(-5000, 5000, size=(50_000, 2))
    tracemalloc.start()
    try:
        pool.nearest_ids(xy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024, f"peak {peak / 1e6:.1f} MB"
