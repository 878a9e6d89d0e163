import numpy as np
import pytest

from repro.core import (
    FeatureConfig,
    LocMatcherConfig,
    load_locations,
    save_locations,
    build_candidate_pool,
)
from repro.core.locmatcher import LocMatcherSelector
from repro.core.persistence import (
    load_candidate_pool,
    load_locmatcher_into,
    load_profiles,
    save_candidate_pool,
    save_locmatcher,
    save_profiles,
)
from repro.geo import Point
from repro.trajectory import StayPoint
from tests.core.helpers import PROJ, profiles_of
from tests.core.test_locmatcher import synthetic_examples


def make_stays():
    def sp(x, y, t=0.0):
        lng, lat = PROJ.to_lnglat(x, y)
        return StayPoint(float(lng), float(lat), t, t + 90.0, "c1", n_points=5)

    return [sp(0, 0), sp(4, 2, 100), sp(500, 0, 200)]


class TestPoolRoundtrip:
    def test_roundtrip(self, tmp_path):
        pool = build_candidate_pool(make_stays(), PROJ, 40.0)
        path = tmp_path / "pool.json"
        save_candidate_pool(pool, path)
        loaded = load_candidate_pool(path)
        assert len(loaded) == len(pool)
        for a, b in zip(pool.candidates, loaded.candidates):
            assert a == b
        assert loaded.projection.origin == pool.projection.origin
        assert loaded.nearest(0.0, 0.0).candidate_id == pool.nearest(0.0, 0.0).candidate_id


class TestProfilesRoundtrip:
    def test_roundtrip(self, tmp_path):
        stays = make_stays()
        pool = build_candidate_pool(stays, PROJ, 40.0)
        profiles = profiles_of(stays, pool)
        path = tmp_path / "profiles.npz"
        save_profiles(profiles, path)
        loaded = load_profiles(path)
        assert set(loaded) == set(profiles)
        for cid in profiles:
            assert loaded[cid].avg_duration_s == pytest.approx(profiles[cid].avg_duration_s)
            assert loaded[cid].n_couriers == profiles[cid].n_couriers
            np.testing.assert_allclose(loaded[cid].time_hist, profiles[cid].time_hist)

    def test_empty(self, tmp_path):
        path = tmp_path / "empty.npz"
        save_profiles({}, path)
        assert load_profiles(path) == {}


class TestLocMatcherRoundtrip:
    def test_serving_reproduces_scores(self, tmp_path):
        cfg = LocMatcherConfig(max_epochs=15, patience=5)
        train = synthetic_examples(30, seed=0)
        fitted = LocMatcherSelector(config=cfg).fit(train)
        path = tmp_path / "model.npz"
        save_locmatcher(fitted, path)

        fresh = LocMatcherSelector(FeatureConfig(), cfg)
        load_locmatcher_into(fresh, path)
        probe = synthetic_examples(5, seed=9)
        for example in probe:
            np.testing.assert_allclose(
                fresh.scores(example), fitted.scores(example), rtol=1e-10
            )

    def test_unfitted_save_rejected(self, tmp_path):
        with pytest.raises(RuntimeError):
            save_locmatcher(LocMatcherSelector(), tmp_path / "x.npz")


class TestLocationsRoundtrip:
    def test_roundtrip(self, tmp_path):
        locations = {"a1": Point(116.4, 39.9), "a2": Point(116.41, 39.91)}
        path = tmp_path / "loc.json"
        save_locations(locations, path)
        assert load_locations(path) == locations
