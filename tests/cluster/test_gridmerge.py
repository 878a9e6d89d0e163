import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import grid_merge
from tests.cluster.oracles import dict_grid_merge


def as_rows(clusters):
    return [(c.x, c.y, c.weight, c.members) for c in clusters]


class TestGridMerge:
    def test_empty(self):
        assert grid_merge(np.empty((0, 2)), 40.0) == []

    def test_single_cell(self):
        pts = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        out = grid_merge(pts, 40.0)
        assert len(out) == 1
        assert out[0].x == pytest.approx(2.0)
        assert out[0].size == 3

    def test_boundary_splits_nearby_points(self):
        # The documented weakness: 2 m apart but straddling a cell border.
        pts = np.array([[39.0, 0.0], [41.0, 0.0]])
        out = grid_merge(pts, 40.0)
        assert len(out) == 2

    def test_negative_coordinates(self):
        pts = np.array([[-1.0, -1.0], [-39.0, -39.0]])
        out = grid_merge(pts, 40.0)
        assert len(out) == 1  # both fall in cell (-1, -1)

    def test_members_partition_input(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-500, 500, size=(120, 2))
        out = grid_merge(pts, 50.0)
        members = sorted(m for c in out for m in c.members)
        assert members == list(range(120))

    def test_produces_more_locations_than_hierarchical(self):
        """The paper's observation motivating DLInfMA-Grid's weakness."""
        from repro.cluster import hierarchical_cluster

        rng = np.random.default_rng(1)
        # Dense stay points around scattered true locations.
        centers = rng.uniform(0, 2000, size=(30, 2))
        pts = np.vstack([c + rng.normal(0, 8, size=(12, 2)) for c in centers])
        n_grid = len(grid_merge(pts, 40.0))
        n_hier = len(hierarchical_cluster(pts, 40.0))
        assert n_grid >= n_hier

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            grid_merge(np.zeros((2, 3)), 40.0)
        with pytest.raises(ValueError):
            grid_merge(np.zeros((2, 2)), 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-60, 60), st.integers(-60, 60)), max_size=40),
        st.lists(st.tuples(st.floats(-500.0, 500.0), st.floats(-500.0, 500.0)), max_size=40),
    )
    def test_matches_dict_binning_property(self, lattice, floats):
        # 10 m lattice points sit on 40 m cell edges, and repeat.
        pts = np.array([(i * 10.0, j * 10.0) for i, j in lattice] + floats).reshape(-1, 2)
        assert as_rows(grid_merge(pts, 40.0)) == as_rows(dict_grid_merge(pts, 40.0))
