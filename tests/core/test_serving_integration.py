"""End-to-end serving path: fit -> persist the table -> reload -> serve.

Mirrors the deployed architecture (Figure 14): the offline side infers
the address->location table and writes it; the online side loads it into
the store without any training data and must answer exactly what the
fitted model predicted.
"""

import pytest

from repro.apps.store import QuerySource
from repro.core import (
    DLInfMA,
    DLInfMAConfig,
    LocMatcherConfig,
    load_locations,
    save_locations,
)
from repro.serve import ShardedLocationStore

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
        # Offline side: the table is the one artifact a serving process needs.
        offline_locations = fitted.predict(tiny_workload.test_ids)
        save_locations(offline_locations, tmp_path / "locations.json")

        # Online side: reload without any training data and serve.
        loaded = load_locations(tmp_path / "locations.json")
        assert loaded == offline_locations
        store = ShardedLocationStore(loaded, tiny_workload.addresses)
        for address_id, point in offline_locations.items():
            result = store.query_id(address_id)
            assert result.source == QuerySource.ADDRESS
            assert result.location == point
