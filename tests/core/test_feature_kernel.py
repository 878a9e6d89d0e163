"""Edge cases of the grouped feature kernel against the loop reference, and
the one stay-to-candidate assignment per feature build."""

import numpy as np
import pytest

from repro.core import (
    CandidatePool,
    DLInfMA,
    DLInfMAConfig,
    build_artifacts,
    build_candidate_pool,
    extract_trip_stay_points,
)
from repro.core.features import FeatureExtractor
from repro.trajectory import DeliveryTrip, StayPoint, Trajectory, Waybill
from tests.core.feature_reference import (
    build_profiles,
    example_mismatches,
    profile_mismatches,
    reference_outputs,
)
from tests.core.helpers import PROJ, make_address, make_trip, pool_of, profiles_of

A, L, C = (0.0, 0.0), (300.0, 0.0), (600.0, 0.0)
#: t3 starts at 01:00 on the next day, so its stays fall in other hour bins.
T3 = 86_400.0 + 3_600.0


class ListedTrip(DeliveryTrip):
    """A trip whose address list names addresses it has no waybill for."""

    listed: tuple[str, ...] = ()

    @property
    def address_ids(self) -> set[str]:
        return super().address_ids | set(self.listed)


def listed(trip: DeliveryTrip, *address_ids: str) -> ListedTrip:
    out = ListedTrip(trip.trip_id, trip.courier_id, trip.t_start, trip.t_end,
                     trip.trajectory, trip.waybills)
    out.listed = address_ids
    return out


ADDRESSES = {
    "a1": make_address("a1", "b1", (10.0, 0.0), poi_category=2),
    "a2": make_address("a2", "b2", (590.0, 0.0), poi_category=5),
    "a3": make_address("a3", "b1", (20.0, 5.0), poi_category=3),
}


@pytest.fixture(scope="module")
def trips():
    return [
        # a3 is listed with no waybill: it counts toward a3's trips (TC,
        # n_deliveries) but bounds no retrieval.
        listed(make_trip("t1", "c1", [(*A, 100.0, 120.0), (*L, 400.0, 120.0),
                                      (*C, 700.0, 120.0)],
                         [("a1", 250.0), ("a2", 900.0)]), "a3"),
        # "ghost" is missing from the addresses.
        make_trip("t2", "c2", [(*A, 100.0, 120.0), (*L, 400.0, 120.0)],
                  [("a1", 999.0), ("ghost", 500.0)]),
        make_trip("t3", "c1", [(*L, T3 + 100.0, 120.0), (*C, T3 + 400.0, 120.0)],
                  [("a2", T3 + 999.0), ("a3", T3 + 300.0)], t_start=T3),
        # Stays that touch no known address still count toward LC.
        make_trip("t4", "c3", [(*C, 100.0, 120.0), (*L, 400.0, 120.0)],
                  [("ghost", 999.0)]),
    ]


def assert_matches_reference(trips, stays, pool, addresses):
    building_ids = sorted({a.building_id for a in addresses.values()}) + ["nope"]
    profiles, examples, buildings, _ = reference_outputs(
        trips, stays, pool, addresses, building_ids
    )
    extractor = FeatureExtractor(trips, stays, pool, addresses)
    ours = extractor.build_examples(sorted({a for t in trips for a in t.address_ids}))
    ours_buildings = {
        e.address_id: e for e in extractor.build_building_examples(building_ids).values()
    }
    assert profile_mismatches(profiles, extractor.profiles) == []
    assert example_mismatches(examples, ours) == []
    assert example_mismatches(buildings, ours_buildings) == []
    return examples, buildings


def test_edge_cases_match_reference(trips):
    stays = extract_trip_stay_points(trips)
    pool = build_candidate_pool([sp for v in stays.values() for sp in v], PROJ, 40.0)
    examples, buildings = assert_matches_reference(trips, stays, pool, ADDRESSES)
    assert set(examples) == {"a1", "a2", "a3"}
    assert examples["a3"].n_deliveries == 2  # t1 (listed) and t3
    assert set(buildings) == {"B::b1", "B::b2"}


def test_unsorted_sparse_pool_ids(trips):
    stays = extract_trip_stay_points(trips)
    dense = build_candidate_pool([sp for v in stays.values() for sp in v], PROJ, 40.0)
    coords = [(c.x, c.y) for c in dense.candidates]
    pool = pool_of(coords, ids=[907, 12, 400][: len(coords)])
    assert len(pool) == 3
    assert_matches_reference(trips, stays, pool, ADDRESSES)


def test_trips_without_stays_give_an_empty_pool():
    trips = [
        DeliveryTrip("e1", "c1", 0.0, 1.0, Trajectory("c1", []),
                     waybills=[Waybill("w1", "a1", 0.0, 1.0)]),
        DeliveryTrip("e2", "c1", 0.0, 1.0, Trajectory("c1", []),
                     waybills=[Waybill("w2", "a2", 0.0, 1.0)]),
    ]
    stays = extract_trip_stay_points(trips)
    pool = build_candidate_pool([], PROJ)
    examples, buildings = assert_matches_reference(trips, stays, pool, ADDRESSES)
    assert examples == {} and buildings == {}


def test_profiles_match_reference_on_mixed_durations():
    """Durations of mixed magnitudes, whose sums depend on the order: a
    mean summed in another order than ``np.mean``'s differs in the last
    bit on about half the candidates."""
    rng = np.random.default_rng(3)
    pool = pool_of(rng.uniform(-500, 500, size=(40, 2)), ids=rng.permutation(400)[:40])
    stays = []
    for x, y in rng.uniform(-600, 600, size=(3_000, 2)):
        lng, lat = PROJ.to_lnglat(x, y)
        t = float(rng.uniform(0, 7 * 86_400))
        scale = 3e7 if rng.random() < 0.2 else 30.0
        stays.append(StayPoint(lng, lat, t, t + float(rng.exponential(scale)),
                               f"c{rng.integers(30)}"))
    assert profile_mismatches(build_profiles(stays, pool), profiles_of(stays, pool)) == []


def test_one_nearest_call_per_feature_build(tiny_workload, monkeypatch):
    """Profiles and features share one stay-to-candidate assignment."""
    calls = []
    nearest_ids = CandidatePool.nearest_ids

    def counted(pool, xy):
        calls.append(len(xy))
        return nearest_ids(pool, xy)

    monkeypatch.setattr(CandidatePool, "nearest_ids", counted)
    w = tiny_workload
    trips = sorted(w.trips, key=lambda t: t.t_start)
    half = len(trips) // 2
    build_artifacts(trips, w.addresses, w.projection, DLInfMAConfig())
    assert len(calls) == 1

    model = DLInfMA(DLInfMAConfig(selector="maxtc-ilc")).fit(
        trips[:half], w.addresses, w.ground_truth, w.train_ids, projection=w.projection
    )
    calls.clear()
    model.update(trips[half:])
    assert len(calls) == 1
    assert calls[0] == sum(len(v) for v in model._stays_by_trip.values())
