import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geo import GridIndex
from tests.core.helpers import pool_of


class TestGridIndexBasics:
    def test_insert_then_query(self):
        g = GridIndex(10.0)
        g.insert("a", 0.0, 0.0)
        g.insert("b", 5.0, 5.0)
        assert sorted(g.query_radius(0.0, 0.0, 10.0)) == ["a", "b"]

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            GridIndex(0.0)


class TestQueryRadius:
    def test_exact_boundary_inclusive(self):
        g = GridIndex(10.0)
        g.insert("a", 10.0, 0.0)
        assert g.query_radius(0.0, 0.0, 10.0) == ["a"]
        assert g.query_radius(0.0, 0.0, 9.999) == []

    def test_negative_radius_rejected(self):
        g = GridIndex(10.0)
        with pytest.raises(ValueError):
            g.query_radius(0.0, 0.0, -1.0)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-200, 200, size=(300, 2))
        g = GridIndex(25.0)
        for i, (x, y) in enumerate(pts):
            g.insert(i, float(x), float(y))
        for qx, qy, r in [(0, 0, 50), (100, -100, 80), (-180, 180, 10)]:
            expect = {
                i
                for i, (x, y) in enumerate(pts)
                if (x - qx) ** 2 + (y - qy) ** 2 <= r * r
            }
            assert set(g.query_radius(qx, qy, r)) == expect

    def test_negative_coordinates(self):
        g = GridIndex(10.0)
        g.insert("a", -15.0, -15.0)
        assert g.query_radius(-14.0, -14.0, 5.0) == ["a"]


class TestNearest:
    """Nearest lookups go to ``CandidatePool.nearest``; the grid serves radius queries."""

    def test_empty(self):
        assert pool_of([]).nearest(0.0, 0.0) is None

    def test_single(self):
        assert pool_of([(500.0, 500.0)]).nearest(0.0, 0.0).candidate_id == 0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-500, 500, size=(200, 2))
        pool = pool_of(pts)
        for qx, qy in rng.uniform(-600, 600, size=(20, 2)):
            d2 = ((pts - [qx, qy]) ** 2).sum(axis=1)
            assert pool.nearest(float(qx), float(qy)).candidate_id == int(d2.argmin())

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(min_value=-1000, max_value=1000),
        st.floats(min_value=-1000, max_value=1000),
    ), min_size=1, max_size=40))
    def test_nearest_property(self, coords):
        # Exact: the first index of the minimum, i.e. the lowest id on a tie.
        winner = pool_of(coords).nearest(3.0, 4.0).candidate_id
        d2 = [(x - 3.0) * (x - 3.0) + (y - 4.0) * (y - 4.0) for x, y in coords]
        assert winner == d2.index(min(d2))
