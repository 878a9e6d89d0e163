import json

import pytest

from repro.eval import (
    candidate_recall,
    city_to_geojson,
    pool_to_geojson,
    predictions_to_geojson,
    write_geojson,
)
from repro.geo import Point


class TestCityGeojson:
    def test_features_cover_buildings_and_spots(self, tiny_dataset):
        payload = city_to_geojson(tiny_dataset.city)
        assert payload["type"] == "FeatureCollection"
        kinds = [f["properties"]["kind"] for f in payload["features"]]
        assert kinds.count("building") == len(tiny_dataset.city.buildings)
        assert "locker" in kinds and "reception" in kinds and "doorstep" in kinds

    def test_coordinates_are_lnglat(self, tiny_dataset):
        payload = city_to_geojson(tiny_dataset.city)
        for feature in payload["features"]:
            lng, lat = feature["geometry"]["coordinates"]
            assert 100 < lng < 130 and 30 < lat < 50  # Beijing-ish

    def test_json_serializable(self, tiny_dataset, tmp_path):
        payload = city_to_geojson(tiny_dataset.city)
        path = tmp_path / "city.geojson"
        write_geojson(payload, path)
        assert json.loads(path.read_text())["type"] == "FeatureCollection"


class TestPoolAndPredictionsGeojson:
    def test_pool_features(self, tiny_artifacts):
        payload = pool_to_geojson(tiny_artifacts.pool)
        assert len(payload["features"]) == len(tiny_artifacts.pool)
        assert all(f["properties"]["weight"] > 0 for f in payload["features"])

    def test_predictions_with_error_lines(self):
        preds = {"a": Point(116.4, 39.9)}
        truth = {"a": Point(116.4, 39.901)}
        payload = predictions_to_geojson(preds, truth)
        kinds = {f["properties"]["kind"] for f in payload["features"]}
        assert kinds == {"prediction", "error"}
        error_feature = next(f for f in payload["features"] if f["properties"]["kind"] == "error")
        assert error_feature["properties"]["error_m"] == pytest.approx(111.2, abs=1.0)

    def test_predictions_without_truth(self):
        payload = predictions_to_geojson({"a": Point(116.4, 39.9)})
        assert len(payload["features"]) == 1


class TestCandidateRecall:
    def test_full_recall_on_tiny(self, tiny_dataset, tiny_artifacts):
        recall = candidate_recall(
            tiny_artifacts.examples,
            tiny_dataset.ground_truth,
            tiny_artifacts.pool.projection,
            tiny_artifacts.pool,
            radius_m=50.0,
        )
        assert recall > 0.9  # candidate generation rarely loses an address

    def test_small_radius_drops_recall(self, tiny_dataset, tiny_artifacts):
        wide = candidate_recall(
            tiny_artifacts.examples, tiny_dataset.ground_truth,
            tiny_artifacts.pool.projection, tiny_artifacts.pool, radius_m=100.0,
        )
        narrow = candidate_recall(
            tiny_artifacts.examples, tiny_dataset.ground_truth,
            tiny_artifacts.pool.projection, tiny_artifacts.pool, radius_m=3.0,
        )
        assert narrow <= wide

    def test_validation(self, tiny_artifacts):
        with pytest.raises(ValueError):
            candidate_recall({}, {}, tiny_artifacts.pool.projection, tiny_artifacts.pool)
        with pytest.raises(ValueError):
            candidate_recall(
                tiny_artifacts.examples, {}, tiny_artifacts.pool.projection,
                tiny_artifacts.pool, radius_m=0.0,
            )
