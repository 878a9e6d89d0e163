"""Cross-stage property tests: dataset -> pipeline invariants."""

import pytest

from repro.core import DLInfMA, DLInfMAConfig
from repro.geo import haversine_m


class TestPipelineInvariants:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_workload, tiny_artifacts):
        model = DLInfMA(DLInfMAConfig(selector="maxtc-ilc"))
        model.fit(
            tiny_workload.trips,
            tiny_workload.addresses,
            tiny_workload.ground_truth,
            tiny_workload.train_ids,
            projection=tiny_workload.projection,
            artifacts=tiny_artifacts,
        )
        return model

    def test_predictions_are_candidate_points(self, fitted, tiny_workload):
        """Every prediction for an in-history address must be a pool
        candidate's location (never an interpolation)."""
        candidate_points = {
            (round(c.lng, 9), round(c.lat, 9)) for c in fitted.pool.candidates
        }
        preds = fitted.predict(tiny_workload.test_ids)
        for address_id, point in preds.items():
            if address_id in fitted.examples:
                assert (round(point.lng, 9), round(point.lat, 9)) in candidate_points

    def test_prediction_within_retrieved_set(self, fitted, tiny_workload):
        """The chosen location is one of the address's retrieved candidates."""
        for address_id in tiny_workload.test_ids:
            example = fitted.examples.get(address_id)
            if example is None:
                continue
            point = fitted.predict_one(address_id)
            distances = [
                haversine_m(point.lng, point.lat, fitted.pool.by_id[cid].lng, fitted.pool.by_id[cid].lat)
                for cid in example.candidate_ids
            ]
            assert min(distances) < 0.5  # exactly one of its candidates

    def test_pool_candidates_near_stay_activity(self, fitted, tiny_workload):
        """Candidates only exist where couriers actually stayed: every
        candidate is within the city's activity envelope."""
        width = 3 * 320.0  # tiny preset: 3 blocks x 320 m
        for candidate in fitted.pool.candidates:
            assert -500 < candidate.x < width + 500
            assert -500 < candidate.y < 320.0 + 500

    def test_examples_only_for_delivered_addresses(self, fitted, tiny_workload):
        delivered = {a for t in tiny_workload.trips for a in t.address_ids}
        assert set(fitted.examples) <= delivered

    def test_labels_are_valid_indices(self, fitted, tiny_workload):
        for address_id in tiny_workload.train_ids:
            example = fitted.examples.get(address_id)
            if example is None or example.label is None:
                continue
            assert 0 <= example.label < example.n_candidates
