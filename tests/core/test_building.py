import numpy as np
import pytest

from repro.core import (
    build_candidate_pool,
    extract_trip_stay_points,
    infer_building_locations,
)
from repro.core.features import BUILDING_PREFIX
from repro.core.selectors import HeuristicSelector
from repro.core.features import COL_DIST, COL_TC, FeatureExtractor
from tests.core.helpers import PROJ, make_address, make_trip

A = (0.0, 0.0)
L = (300.0, 0.0)


@pytest.fixture(scope="module")
def extractor():
    trips = [
        make_trip("t1", "c1", stops=[(*A, 100.0, 120.0), (*L, 400.0, 120.0)],
                  waybills=[("a1", 250.0)]),
        make_trip("t2", "c1", stops=[(*A, 100.0, 120.0), (*L, 400.0, 120.0)],
                  waybills=[("a2", 560.0)]),
        make_trip("t3", "c1", stops=[(*L, 100.0, 120.0)],
                  waybills=[("b1", 999.0)]),
    ]
    addresses = {
        "a1": make_address("a1", "bldA", (5.0, 0.0), poi_category=1),
        "a2": make_address("a2", "bldA", (15.0, 0.0), poi_category=1),
        "b1": make_address("b1", "bldB", (310.0, 0.0), poi_category=2),
    }
    stays = extract_trip_stay_points(trips)
    all_stays = [sp for v in stays.values() for sp in v]
    pool = build_candidate_pool(all_stays, PROJ, 40.0)
    return FeatureExtractor(trips, stays, pool, addresses)


def building_example(extractor, building_id):
    return extractor.build_building_examples([building_id]).get(building_id)


class TestBuildingMembers:
    def test_members_listed(self, extractor):
        """Distances are to the centroid of the delivered members' geocodes."""
        for building_id, (cx, cy) in (("bldA", (10.0, 0.0)), ("bldB", (310.0, 0.0))):
            example = building_example(extractor, building_id)
            pool = extractor.pool
            expected = [
                np.hypot(pool.by_id[cid].x - cx, pool.by_id[cid].y - cy)
                for cid in example.candidate_ids
            ]
            np.testing.assert_allclose(example.features[:, COL_DIST], expected, atol=1e-6)

    def test_unknown_building(self, extractor):
        assert extractor.build_building_examples(["nope"]) == {}


class TestBuildingRetrieval:
    def test_union_with_per_trip_bounds(self, extractor):
        """t1's bound (250) excludes the locker; t2's (560) includes it."""
        cids = building_example(extractor, "bldA").candidate_ids
        assert len(cids) == 2  # doorstep A from both trips + locker from t2

    def test_unknown_building_empty(self, extractor):
        assert building_example(extractor, "nope") is None


class TestBuildingExample:
    def test_example_structure(self, extractor):
        example = building_example(extractor, "bldA")
        assert example is not None
        assert example.address_id == f"{BUILDING_PREFIX}bldA"
        assert example.n_deliveries == 2  # two trips involve bldA
        assert example.poi_category == 1
        assert example.features.shape[0] == example.n_candidates

    def test_tc_computed_over_building_trips(self, extractor):
        example = building_example(extractor, "bldA")
        pool = extractor.pool
        door = pool.nearest(*A).candidate_id
        locker = pool.nearest(*L).candidate_id
        idx = {cid: i for i, cid in enumerate(example.candidate_ids)}
        tc = example.features[:, COL_TC]
        assert tc[idx[door]] == pytest.approx(1.0)   # both bldA trips stop at A
        assert tc[idx[locker]] == pytest.approx(1.0)  # both trips pass L too

    def test_none_for_unknown_building(self, extractor):
        assert building_example(extractor, "nope") is None


class TestInferBuildingLocations:
    def test_heuristic_inference(self, extractor):
        selector = HeuristicSelector("mindist")
        out = infer_building_locations(extractor, selector, ["bldA", "bldB", "nope"])
        assert set(out) == {"bldA", "bldB"}
        # bldA geocode centroid is at x=10 -> doorstep (x~0) is nearest.
        x, _ = PROJ.to_xy(out["bldA"].lng, out["bldA"].lat)
        assert x == pytest.approx(0.0, abs=10.0)

    def test_consistent_with_dataset_pipeline(self, tiny_artifacts):
        selector = HeuristicSelector("maxtc-ilc")
        buildings = sorted(
            {a.building_id for a in tiny_artifacts.extractor.addresses.values()}
        )
        out = infer_building_locations(tiny_artifacts.extractor, selector, buildings)
        assert len(out) >= len(buildings) // 2
        for point in out.values():
            x, y = tiny_artifacts.pool.projection.to_xy(point.lng, point.lat)
            assert -2_000 < x < 5_000 and -2_000 < y < 5_000
