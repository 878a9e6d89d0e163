import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import dbscan
from repro.cluster.dbscan import NOISE
from tests.cluster.oracles import dbscan_oracle


class TestDBSCAN:
    def test_empty(self):
        labels = dbscan(np.empty((0, 2)), eps_m=10.0, min_pts=2)
        assert labels.shape == (0,)

    def test_single_point_noise_with_minpts2(self):
        labels = dbscan(np.array([[0.0, 0.0]]), eps_m=10.0, min_pts=2)
        assert labels[0] == NOISE

    def test_single_point_cluster_with_minpts1(self):
        labels = dbscan(np.array([[0.0, 0.0]]), eps_m=10.0, min_pts=1)
        assert labels[0] == 0

    def test_two_blobs(self):
        rng = np.random.default_rng(2)
        a = rng.normal([0, 0], 2, size=(30, 2))
        b = rng.normal([200, 0], 2, size=(30, 2))
        labels = dbscan(np.vstack([a, b]), eps_m=15.0, min_pts=3)
        assert len(set(labels[:30])) == 1
        assert len(set(labels[30:])) == 1
        assert labels[0] != labels[30]
        assert NOISE not in labels

    def test_noise_detection(self):
        rng = np.random.default_rng(3)
        blob = rng.normal([0, 0], 1.5, size=(20, 2))
        outlier = np.array([[500.0, 500.0]])
        labels = dbscan(np.vstack([blob, outlier]), eps_m=10.0, min_pts=3)
        assert labels[-1] == NOISE
        assert all(lb != NOISE for lb in labels[:-1])

    def test_border_point_joins_cluster(self):
        # Chain where ends are border points of the dense middle.
        pts = np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0]])
        labels = dbscan(pts, eps_m=6.0, min_pts=3)
        # Middle point has 3 neighbours (incl. itself) -> core; ends join.
        assert set(labels) == {0}

    def test_minpts1_all_points_clustered(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 100, size=(50, 2))
        labels = dbscan(pts, eps_m=5.0, min_pts=1)
        assert NOISE not in labels

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            dbscan(np.zeros((2, 2)), eps_m=0.0, min_pts=1)
        with pytest.raises(ValueError):
            dbscan(np.zeros((2, 2)), eps_m=1.0, min_pts=0)
        with pytest.raises(ValueError):
            dbscan(np.zeros((2, 3)), eps_m=1.0, min_pts=1)

    def test_labels_contiguous_from_zero(self):
        rng = np.random.default_rng(5)
        blobs = [rng.normal([c, 0], 1, size=(10, 2)) for c in (0, 100, 200)]
        labels = dbscan(np.vstack(blobs), eps_m=10.0, min_pts=2)
        clusters = sorted(set(labels) - {NOISE})
        assert clusters == list(range(len(clusters)))
        assert len(clusters) == 3

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), max_size=50),
        st.lists(st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0)), max_size=20),
        st.sampled_from([2.5, 5.0, 10.0]),
        st.integers(1, 4),
    )
    def test_labels_match_bruteforce_oracle_property(self, lattice, floats, eps, min_pts):
        # Lattice steps of eps / 5 repeat points and put pairs exactly eps
        # apart (5 steps, or a 3-4-5 triangle).
        step = eps / 5.0
        pts = np.array([(i * step, j * step) for i, j in lattice] + floats).reshape(-1, 2)
        expect = dbscan_oracle(pts, eps, min_pts)
        assert dbscan(pts, eps_m=eps, min_pts=min_pts).tolist() == expect.tolist()
