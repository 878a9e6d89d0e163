import pytest

from repro.baselines import GeoRankBaseline, UNetBaseline
from repro.baselines.unet import GRID, _build_grid, _CellGrid, _rasterize
from repro.baselines.annotations import AnnotatedLocation
from repro.eval import evaluate
from tests.core.helpers import PROJ


class TestGeoRankOnDataset:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_workload):
        m = GeoRankBaseline(seed=0)
        m.fit(
            tiny_workload.trips,
            tiny_workload.addresses,
            tiny_workload.ground_truth,
            tiny_workload.train_ids,
            projection=tiny_workload.projection,
        )
        return m

    def test_predicts_all_test_addresses(self, fitted, tiny_workload):
        preds = fitted.predict(tiny_workload.test_ids)
        assert set(preds) == set(tiny_workload.test_ids)

    def test_beats_geocoding(self, fitted, tiny_workload):
        preds = fitted.predict(tiny_workload.test_ids)
        ours = evaluate(preds, tiny_workload.ground_truth)
        geo = evaluate(
            {a: tiny_workload.addresses[a].geocode for a in tiny_workload.test_ids},
            tiny_workload.ground_truth,
        )
        assert ours.mae <= geo.mae * 1.2

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GeoRankBaseline().predict(["a"])


class TestCellGrid:
    def test_cell_of_center(self):
        grid = _CellGrid(116.4, 39.9, 0.0004, 0.0002)
        assert grid.cell_of(116.4, 39.9) == (GRID // 2, GRID // 2)

    def test_cell_of_out_of_window(self):
        grid = _CellGrid(116.4, 39.9, 0.0004, 0.0002)
        assert grid.cell_of(116.5, 39.9) is None

    def test_center_of_roundtrip(self):
        grid = _CellGrid(116.4, 39.9, 0.0004, 0.0002)
        for row, col in [(0, 0), (4, 4), (8, 2)]:
            p = grid.center_of(row, col)
            assert grid.cell_of(p.lng, p.lat) == (row, col)

    def test_build_grid_centers_on_mode_cell(self):
        events = [AnnotatedLocation(x=0.0, y=0.0, t=0.0, trip_id="t")] * 5 + [
            AnnotatedLocation(x=400.0, y=0.0, t=0.0, trip_id="t")
        ]
        grid = _build_grid(events, PROJ)
        cx, _ = PROJ.to_xy(grid.center_lng, grid.center_lat)
        assert abs(cx) < 40.0  # near the 5-annotation cell, not the outlier

    def test_rasterize_counts_and_normalization(self):
        events = [AnnotatedLocation(x=0.0, y=0.0, t=0.0, trip_id="t")] * 3
        grid = _build_grid(events, PROJ)
        image = _rasterize(events, grid, PROJ)
        assert image.shape == (1, GRID, GRID)
        assert image.max() == pytest.approx(1.0)
        assert image.sum() == pytest.approx(1.0)  # single hot cell


class TestUNetOnDataset:
    @pytest.fixture(scope="class")
    def fitted(self, tiny_workload):
        m = UNetBaseline(epochs=6, seed=0)
        m.fit(
            tiny_workload.trips,
            tiny_workload.addresses,
            tiny_workload.ground_truth,
            tiny_workload.train_ids,
            projection=tiny_workload.projection,
        )
        return m

    def test_predicts_all_test_addresses(self, fitted, tiny_workload):
        preds = fitted.predict(tiny_workload.test_ids)
        assert set(preds) == set(tiny_workload.test_ids)

    def test_predictions_inside_city(self, fitted, tiny_workload):
        for point in fitted.predict(tiny_workload.test_ids).values():
            x, y = tiny_workload.projection.to_xy(point.lng, point.lat)
            assert -2_000 < x < 5_000
            assert -2_000 < y < 5_000

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            UNetBaseline().predict(["a"])
