import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geo.grid import cell_rows, pairs_within
from tests.core.helpers import pool_of


def found_pairs(coords, radius):
    """Every pair ``pairs_within`` yields, each checked to come once with ``a < b``."""
    found = [pair for a, b in pairs_within(coords, radius) for pair in zip(a.tolist(), b.tolist())]
    assert len(found) == len(set(found))
    assert all(a < b for a, b in found)
    return set(found)


def brute_pairs(coords, radius):
    """Pairs with float64 ``dx * dx + dy * dy <= radius * radius``, by brute force."""
    pts = [(float(x), float(y)) for x, y in coords]
    return {
        (a, b)
        for a, (xa, ya) in enumerate(pts)
        for b, (xb, yb) in enumerate(pts[a + 1:], a + 1)
        if (xb - xa) * (xb - xa) + (yb - ya) * (yb - ya) <= radius * radius
    }


def partners(coords, query, radius):
    """Rows within ``radius`` of ``query``: the pairs of a last, added row."""
    pts = np.vstack([coords, [query]])
    last = len(pts) - 1
    return {a for a, b in found_pairs(pts, radius) if b == last}


class TestCellGridBasics:
    def test_cells_then_pairs(self):
        pts = np.array([[0.0, 0.0], [5.0, 5.0]])
        assert [rows.tolist() for rows in cell_rows(pts, 10.0)] == [[0, 1]]
        assert found_pairs(pts, 10.0) == {(0, 1)}

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            cell_rows(np.zeros((2, 2)), 0.0)

    def test_cells_in_first_row_order_with_ascending_rows(self):
        pts = np.array([[15.0, 0.0], [-1.0, -1.0], [12.0, 9.0], [-9.0, -0.5], [0.0, 0.0]])
        assert [rows.tolist() for rows in cell_rows(pts, 10.0)] == [[0, 2], [1, 3], [4]]
        assert cell_rows(np.empty((0, 2)), 10.0) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_coordinates_must_be_finite(self, bad):
        pts = np.array([[0.0, 0.0], [1.0, bad]])
        with pytest.raises(ValueError):
            cell_rows(pts, 10.0)
        with pytest.raises(ValueError):
            list(pairs_within(pts, 10.0))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-400, 400), st.integers(-400, 400)), max_size=60),
        st.sampled_from([1.0, 7.5, 40.0]),
    )
    def test_cells_match_dict_binning(self, lattice, cell_m):
        # Lattice points sit on cell edges, and repeat.
        pts = np.array(lattice, dtype=float).reshape(-1, 2) * 2.5
        cells: dict[tuple[int, int], list[int]] = {}
        for i, (x, y) in enumerate(pts.tolist()):
            cells.setdefault((math.floor(x / cell_m), math.floor(y / cell_m)), []).append(i)
        assert [rows.tolist() for rows in cell_rows(pts, cell_m)] == list(cells.values())


class TestQueryRadius:
    def test_exact_boundary_inclusive(self):
        pts = np.array([[10.0, 0.0]])
        assert partners(pts, (0.0, 0.0), 10.0) == {0}
        assert partners(pts, (0.0, 0.0), 9.999) == set()

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            list(pairs_within(np.zeros((2, 2)), -1.0))

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-200, 200, size=(300, 2))
        for qx, qy, r in [(0, 0, 50), (100, -100, 80), (-180, 180, 10)]:
            expect = {
                i
                for i, (x, y) in enumerate(pts)
                if (x - qx) ** 2 + (y - qy) ** 2 <= r * r
            }
            assert partners(pts, (qx, qy), r) == expect
        assert found_pairs(pts, 25.0) == brute_pairs(pts, 25.0)

    def test_negative_coordinates(self):
        pts = np.array([[-15.0, -15.0]])
        assert partners(pts, (-14.0, -14.0), 5.0) == {0}

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([1e-3, 1.0, 2.5, 40.0]),
        st.sampled_from([0.0, -1e6, 1e6]),
        st.lists(st.tuples(st.integers(-10, 10), st.integers(-10, 10)), max_size=40),
        st.lists(
            st.tuples(
                st.integers(-2, 2),
                st.integers(-2, 2),
                st.floats(0.0, 1.0),
                st.floats(0.0, 2.0 * math.pi),
            ),
            max_size=6,
        ),
    )
    def test_pairs_match_bruteforce_property(self, radius, offset, lattice, straddlers):
        # Lattice steps of radius / 5 give repeats and pairs exactly one
        # radius apart (5 steps, or a 3-4-5 triangle), around 0 or +-1e6.
        step = radius / 5.0
        pts = [(offset + i * step, offset + j * step) for i, j in lattice]
        # Pairs radius * (1 - 1e-15) apart that straddle a cell edge on
        # either axis.  (At radius 1e-3 around +-1e6 the grid widens its
        # cells, so there they are merely close pairs.)
        cell = radius * (1.0 + 2e-9)
        edge = math.floor(offset / cell) * cell
        d = radius * (1.0 - 1e-15)
        for kx, ky, u, theta in straddlers:
            dx, dy = d * math.cos(theta), d * math.sin(theta)
            ax, ay = edge + kx * cell - u * dx, edge + ky * cell - u * dy
            pts += [(ax, ay), (ax + dx, ay + dy)]
        pts = np.array(pts, dtype=float).reshape(-1, 2)
        assert found_pairs(pts, radius) == brute_pairs(pts, radius)


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
