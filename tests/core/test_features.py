"""Exact-semantics tests of candidate retrieval and feature extraction,
on a handcrafted three-trip scenario mirroring the paper's Figures 5-6."""

import numpy as np
import pytest

from repro.core import (
    FeatureConfig,
    build_candidate_pool,
    extract_trip_stay_points,
)
from repro.core.features import (
    COL_DIST,
    COL_LC_ADDRESS,
    COL_LC_BUILDING,
    COL_TC,
    COL_DURATION,
    COL_COURIERS,
    FeatureExtractor,
    HIST_START,
    N_FEATURES,
)
from tests.core.helpers import PROJ, make_address, make_trip, point_at, retrieved

# Spots: A = doorstep of building b1, L = shared locker, C = doorstep of b2.
A = (0.0, 0.0)
L = (300.0, 0.0)
C = (600.0, 0.0)


@pytest.fixture(scope="module")
def scenario():
    trips = [
        make_trip(
            "t1", "c1",
            stops=[(*A, 100.0, 120.0), (*L, 400.0, 120.0), (*C, 700.0, 120.0)],
            waybills=[("a1", 250.0), ("a2", 900.0)],
        ),
        make_trip(
            "t2", "c1",
            stops=[(*A, 100.0, 120.0), (*L, 400.0, 120.0)],
            waybills=[("a1", 999.0)],
        ),
        make_trip(
            "t3", "c1",
            stops=[(*L, 100.0, 120.0), (*C, 400.0, 120.0)],
            waybills=[("a2", 999.0)],
        ),
    ]
    addresses = {
        "a1": make_address("a1", "b1", (10.0, 0.0), poi_category=2),
        "a2": make_address("a2", "b2", (590.0, 0.0), poi_category=5),
    }
    stay_points = extract_trip_stay_points(trips)
    pool = build_candidate_pool(
        [sp for stays in stay_points.values() for sp in stays], PROJ, 40.0
    )
    extractor = FeatureExtractor(trips, stay_points, pool, addresses)
    return extractor, pool


def candidate_near(pool, xy):
    c = pool.nearest(*xy)
    assert np.hypot(c.x - xy[0], c.y - xy[1]) < 10.0
    return c.candidate_id


class TestRetrieval:
    def test_pool_has_three_locations(self, scenario):
        _, pool = scenario
        assert len(pool) == 3

    def test_temporal_bound_excludes_later_stays(self, scenario):
        """a1's t1 confirmation (250 s) excludes the locker stay (~460 s),
        but t2's late confirmation includes it."""
        extractor, pool = scenario
        cids = retrieved(extractor, "a1")
        expected = {candidate_near(pool, A), candidate_near(pool, L)}
        assert set(cids) == expected
        assert candidate_near(pool, C) not in cids

    def test_union_over_trips(self, scenario):
        extractor, pool = scenario
        cids = set(retrieved(extractor, "a2"))
        assert cids == {candidate_near(pool, A), candidate_near(pool, L), candidate_near(pool, C)}

    def test_unknown_address(self, scenario):
        extractor, _ = scenario
        assert retrieved(extractor, "nope") == []

    def test_multiple_waybills_use_latest_bound(self):
        """Two parcels to one address in the same trip: the later recorded
        time is the temporal bound (any earlier stay could be the drop)."""
        trip = make_trip(
            "t1", "c1",
            stops=[(*A, 100.0, 120.0), (*L, 400.0, 120.0)],
            waybills=[("a1", 250.0), ("a1", 560.0)],
        )
        # make_trip builds duplicate waybill ids; rebuild with distinct ids.
        from repro.trajectory import DeliveryTrip, Waybill

        trip = DeliveryTrip(
            "t1", "c1", trip.t_start, trip.t_end, trip.trajectory,
            waybills=[
                Waybill("w1", "a1", -100.0, 250.0),
                Waybill("w2", "a1", -100.0, 560.0),
            ],
        )
        stays = extract_trip_stay_points([trip])
        all_stays = [sp for v in stays.values() for sp in v]
        pool = build_candidate_pool(all_stays, PROJ, 40.0)
        extractor = FeatureExtractor(
            [trip], stays, pool, {"a1": make_address("a1", "b1", (5.0, 0.0))}
        )
        cids = retrieved(extractor, "a1")
        # Bound 560 includes the locker stay (~460); bound 250 alone wouldn't.
        assert len(cids) == 2


class TestMatchingFeatures:
    def test_trip_coverage_eq1(self, scenario):
        """TC per Eq. 1 on the handcrafted trips."""
        extractor, pool = scenario
        example = extractor.build_examples(["a2"])["a2"]
        idx = {cid: i for i, cid in enumerate(example.candidate_ids)}
        tc = example.features[:, COL_TC]
        assert tc[idx[candidate_near(pool, A)]] == pytest.approx(0.5)  # t1 only
        assert tc[idx[candidate_near(pool, L)]] == pytest.approx(1.0)
        assert tc[idx[candidate_near(pool, C)]] == pytest.approx(1.0)

    def test_location_commonality_eq2(self, scenario):
        """LC per Eq. 2: share of non-building trips passing the spot."""
        extractor, pool = scenario
        example = extractor.build_examples(["a1"])["a1"]
        idx = {cid: i for i, cid in enumerate(example.candidate_ids)}
        lc = example.features[:, COL_LC_BUILDING]
        # Trips not involving b1: only t3, which visits L and C.
        assert lc[idx[candidate_near(pool, A)]] == pytest.approx(0.0)
        assert lc[idx[candidate_near(pool, L)]] == pytest.approx(1.0)

    def test_lc_address_mode_differs(self, scenario):
        """Address-level LC uses trips not involving the address."""
        extractor, pool = scenario
        example = extractor.build_examples(["a1"])["a1"]
        idx = {cid: i for i, cid in enumerate(example.candidate_ids)}
        lca = example.features[:, COL_LC_ADDRESS]
        # Trips not involving a1: only t3 here, so matches building LC.
        assert lca[idx[candidate_near(pool, A)]] == pytest.approx(0.0)
        assert lca[idx[candidate_near(pool, L)]] == pytest.approx(1.0)

    def test_distance_feature(self, scenario):
        extractor, pool = scenario
        example = extractor.build_examples(["a1"])["a1"]
        idx = {cid: i for i, cid in enumerate(example.candidate_ids)}
        dist = example.features[:, COL_DIST]
        assert dist[idx[candidate_near(pool, A)]] == pytest.approx(10.0, abs=5.0)
        assert dist[idx[candidate_near(pool, L)]] == pytest.approx(290.0, abs=5.0)

    def test_profile_features_present(self, scenario):
        extractor, _ = scenario
        example = extractor.build_examples(["a1"])["a1"]
        assert (example.features[:, COL_DURATION] > 60.0).all()
        assert (example.features[:, COL_COURIERS] == 1).all()
        hist = example.features[:, HIST_START:]
        np.testing.assert_allclose(hist.sum(axis=1), 1.0)

    def test_address_features(self, scenario):
        extractor, _ = scenario
        e1 = extractor.build_examples(["a1"])["a1"]
        assert e1.n_deliveries == 2
        assert e1.poi_category == 2
        assert e1.features.shape == (2, N_FEATURES)

    def test_label_example_nearest_candidate(self, scenario):
        extractor, pool = scenario
        example = extractor.build_examples(["a1"])["a1"]
        extractor.label_example(example, point_at(*A))
        assert example.candidate_ids[example.label] == candidate_near(pool, A)
        extractor.label_example(example, point_at(290.0, 5.0))
        assert example.candidate_ids[example.label] == candidate_near(pool, L)

    def test_build_examples_skips_unknown(self, scenario):
        extractor, _ = scenario
        out = extractor.build_examples(["a1", "missing", "a2"])
        assert set(out) == {"a1", "a2"}

    def test_candidate_point_roundtrip(self, scenario):
        extractor, pool = scenario
        cid = candidate_near(pool, L)
        point = extractor.candidate_point(cid)
        x, y = PROJ.to_xy(point.lng, point.lat)
        assert x == pytest.approx(300.0, abs=5.0)


class TestFeatureConfig:
    def test_default_columns(self):
        cfg = FeatureConfig()
        assert cfg.scalar_columns() == [COL_TC, COL_LC_BUILDING, COL_DIST, COL_DURATION, COL_COURIERS]
        assert len(cfg.hist_columns()) == 24

    def test_ablation_columns(self):
        assert COL_TC not in FeatureConfig(use_tc=False).scalar_columns()
        assert COL_DIST not in FeatureConfig(use_dist=False).scalar_columns()
        assert FeatureConfig(use_profile=False).hist_columns() == []
        cfg = FeatureConfig(lc_mode="address")
        assert COL_LC_ADDRESS in cfg.scalar_columns()
        assert COL_LC_BUILDING not in cfg.scalar_columns()
        no_lc = FeatureConfig(use_lc=False).scalar_columns()
        assert COL_LC_BUILDING not in no_lc and COL_LC_ADDRESS not in no_lc

    def test_invalid_lc_mode(self):
        with pytest.raises(ValueError):
            FeatureConfig(lc_mode="bogus")
