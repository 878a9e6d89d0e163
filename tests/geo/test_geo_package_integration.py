"""Cross-structure agreement tests for the geo package's spatial indexes."""

import numpy as np
import pytest

from repro.geo import GridIndex, RTree, convex_hull, point_in_polygon


class TestIndexAgreement:
    """GridIndex and RTree agree on radius queries; RTree's nearest is exact."""

    @pytest.fixture(scope="class")
    def indexes(self):
        rng = np.random.default_rng(42)
        coords = np.vstack([
            rng.normal([0, 0], 30, size=(150, 2)),      # dense core
            rng.uniform(-800, 800, size=(100, 2)),      # scattered
        ])
        grid = GridIndex(50.0)
        for i, (x, y) in enumerate(coords):
            grid.insert(i, float(x), float(y))
        tree = RTree(list(range(len(coords))), coords, leaf_size=8)
        return grid, tree, coords

    def test_radius_queries_agree(self, indexes):
        grid, tree, _ = indexes
        rng = np.random.default_rng(1)
        for qx, qy in rng.uniform(-900, 900, size=(25, 2)):
            for radius in (10.0, 75.0, 300.0):
                a = set(grid.query_radius(float(qx), float(qy), radius))
                b = set(tree.query_radius(float(qx), float(qy), radius))
                assert a == b

    def test_nearest_agree(self, indexes):
        _, tree, coords = indexes
        rng = np.random.default_rng(2)
        for qx, qy in rng.uniform(-900, 900, size=(25, 2)):
            t = tree.nearest(float(qx), float(qy))
            d2 = ((coords - [qx, qy]) ** 2).sum(axis=1)
            assert d2[t] == pytest.approx(d2.min())

    def test_hull_contains_all_radius_hits(self, indexes):
        """Composing structures: hull of a radius query contains its points."""
        grid, _, coords = indexes
        hits = grid.query_radius(0.0, 0.0, 100.0)
        if len(hits) < 3:
            pytest.skip("not enough points in query")
        hull = convex_hull(coords[hits])
        for i in hits:
            assert point_in_polygon(float(coords[i, 0]), float(coords[i, 1]), hull)
