"""End-to-end serving path: fit -> persist everything -> reload -> serve.

Mirrors the deployed architecture (Figure 14): the offline side trains and
writes artifacts; the online side reconstructs the selector + pool from
disk (no training data) and must produce byte-identical predictions.
"""

import numpy as np
import pytest

from repro.core import (
    DLInfMA,
    DLInfMAConfig,
    FeatureConfig,
    LocMatcherConfig,
    load_locations,
    save_locations,
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

FAST = LocMatcherConfig(max_epochs=20, patience=6, lr_step=8)


class TestServingRoundtrip:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_workload, tiny_artifacts):
        model = DLInfMA(DLInfMAConfig(locmatcher=FAST))
        model.fit(
            tiny_workload.trips,
            tiny_workload.addresses,
            tiny_workload.ground_truth,
            tiny_workload.train_ids,
            tiny_workload.val_ids,
            projection=tiny_workload.projection,
            artifacts=tiny_artifacts,
        )
        return model

    def test_full_artifact_roundtrip(self, fitted, tiny_workload, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("serving")
        # Offline side: write everything a serving process needs.
        save_candidate_pool(fitted.pool, tmp_path / "pool.json")
        save_profiles(fitted.extractor.profiles, tmp_path / "profiles.npz")
        save_locmatcher(fitted.selector, tmp_path / "model.npz")
        offline_locations = fitted.predict(tiny_workload.test_ids)
        save_locations(offline_locations, tmp_path / "locations.json")

        # Online side: reload without any training data.
        pool = load_candidate_pool(tmp_path / "pool.json")
        profiles = load_profiles(tmp_path / "profiles.npz")
        selector = load_locmatcher_into(
            LocMatcherSelector(FeatureConfig(), FAST), tmp_path / "model.npz"
        )
        assert len(pool) == len(fitted.pool)
        assert set(profiles) == set(fitted.extractor.profiles)

        # Scoring the same candidate sets reproduces predictions exactly.
        for address_id in tiny_workload.test_ids:
            example = fitted.examples.get(address_id)
            if example is None:
                continue
            np.testing.assert_allclose(
                selector.scores(example), fitted.selector.scores(example), rtol=1e-12
            )
        # And the persisted location table round-trips.
        assert load_locations(tmp_path / "locations.json") == offline_locations

    def test_reloaded_pool_answers_nearest_queries(self, fitted, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("pool-queries")
        save_candidate_pool(fitted.pool, tmp_path / "pool.json")
        pool = load_candidate_pool(tmp_path / "pool.json")
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = rng.uniform(0, 900, size=2)
            a = fitted.pool.nearest(float(x), float(y))
            b = pool.nearest(float(x), float(y))
            assert a.candidate_id == b.candidate_id
