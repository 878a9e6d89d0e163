import heapq
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.cluster.hierarchical as hierarchical_mod
import repro.core.candidates as candidates_mod
from repro.cluster import Cluster, hierarchical_cluster, merge_weighted_clusters
from repro.cluster.hierarchical import close_pairs
from repro.core import DLInfMAConfig, build_artifacts
from repro.geo import GridIndex


class TestHierarchicalCluster:
    def test_empty(self):
        assert hierarchical_cluster(np.empty((0, 2)), 40.0) == []

    def test_single_point(self):
        out = hierarchical_cluster(np.array([[1.0, 2.0]]), 40.0)
        assert len(out) == 1
        assert out[0].x == 1.0 and out[0].y == 2.0
        assert out[0].members == [0]
        assert out[0].weight == 1.0

    def test_two_close_points_merge(self):
        out = hierarchical_cluster(np.array([[0.0, 0.0], [10.0, 0.0]]), 40.0)
        assert len(out) == 1
        assert out[0].x == pytest.approx(5.0)
        assert sorted(out[0].members) == [0, 1]

    def test_two_far_points_stay_separate(self):
        out = hierarchical_cluster(np.array([[0.0, 0.0], [100.0, 0.0]]), 40.0)
        assert len(out) == 2

    def test_threshold_is_strict(self):
        # Exactly at the threshold: "smaller than D" means no merge.
        out = hierarchical_cluster(np.array([[0.0, 0.0], [40.0, 0.0]]), 40.0)
        assert len(out) == 2

    def test_three_groups(self):
        rng = np.random.default_rng(0)
        groups = [np.array([0.0, 0.0]), np.array([500.0, 0.0]), np.array([0.0, 500.0])]
        pts = np.vstack([g + rng.normal(0, 3, size=(10, 2)) for g in groups])
        out = hierarchical_cluster(pts, 40.0)
        assert len(out) == 3
        sizes = sorted(c.size for c in out)
        assert sizes == [10, 10, 10]

    def test_closest_pair_merges_first_chain(self):
        # Chain 0 -- 30 -- 60: 0 and 30 merge to centroid 15; centroid is 45
        # away from 60 which is >= 40, so 60 stays separate.
        out = hierarchical_cluster(np.array([[0.0, 0.0], [30.0, 0.0], [60.0, 0.0]]), 40.0)
        assert len(out) == 2
        big = max(out, key=lambda c: c.size)
        assert sorted(big.members) == [0, 1]
        assert big.x == pytest.approx(15.0)

    def test_weighted_centroid(self):
        out = hierarchical_cluster(
            np.array([[0.0, 0.0], [30.0, 0.0]]), 40.0, weights=[3.0, 1.0]
        )
        assert len(out) == 1
        assert out[0].x == pytest.approx(7.5)
        assert out[0].weight == 4.0

    def test_members_partition_input(self):
        rng = np.random.default_rng(42)
        pts = rng.uniform(0, 1000, size=(200, 2))
        out = hierarchical_cluster(pts, 50.0)
        all_members = sorted(m for c in out for m in c.members)
        assert all_members == list(range(200))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            hierarchical_cluster(np.zeros((3, 3)), 40.0)
        with pytest.raises(ValueError):
            hierarchical_cluster(np.zeros((3, 2)), 0.0)
        with pytest.raises(ValueError):
            hierarchical_cluster(np.zeros((3, 2)), 40.0, weights=[1.0])
        with pytest.raises(ValueError):
            hierarchical_cluster(np.zeros((2, 2)), 40.0, weights=[1.0, -1.0])

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=500),
                st.floats(min_value=0, max_value=500),
            ),
            min_size=1,
            max_size=60,
        ),
        st.sampled_from([20.0, 40.0, 80.0]),
    )
    def test_final_centroids_separated_property(self, coords, threshold):
        """The paper's stopping criterion: no two centroids within D."""
        pts = np.array(coords, dtype=float)
        out = hierarchical_cluster(pts, threshold)
        centers = np.array([[c.x, c.y] for c in out])
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                d = float(np.hypot(*(centers[i] - centers[j])))
                assert d >= threshold - 1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=300),
                st.floats(min_value=0, max_value=300),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_weight_conservation_property(self, coords):
        pts = np.array(coords, dtype=float)
        out = hierarchical_cluster(pts, 40.0)
        assert sum(c.weight for c in out) == pytest.approx(len(pts))


class TestMergeWeightedClusters:
    def test_merge_with_empty_pool(self):
        out = merge_weighted_clusters([], np.array([[0.0, 0.0], [5.0, 0.0]]), 40.0)
        assert len(out) == 1

    def test_existing_weight_dominates(self):
        existing = [Cluster(x=0.0, y=0.0, weight=9.0, members=[])]
        out = merge_weighted_clusters(existing, np.array([[10.0, 0.0]]), 40.0)
        assert len(out) == 1
        assert out[0].x == pytest.approx(1.0)  # (9*0 + 1*10) / 10
        assert out[0].weight == 10.0

    def test_far_new_points_create_new_candidates(self):
        existing = [Cluster(x=0.0, y=0.0, weight=5.0, members=[])]
        out = merge_weighted_clusters(existing, np.array([[500.0, 0.0]]), 40.0)
        assert len(out) == 2

    def test_bi_weekly_incremental_stability(self):
        """Merging in two batches lands near a single-shot clustering."""
        rng = np.random.default_rng(1)
        batch1 = rng.normal([100, 100], 5, size=(20, 2))
        batch2 = rng.normal([100, 100], 5, size=(20, 2))
        pool = hierarchical_cluster(batch1, 40.0)
        merged = merge_weighted_clusters(pool, batch2, 40.0)
        single = hierarchical_cluster(np.vstack([batch1, batch2]), 40.0)
        assert len(merged) == len(single) == 1
        assert merged[0].x == pytest.approx(single[0].x, abs=1.0)
        assert merged[0].y == pytest.approx(single[0].y, abs=1.0)


# ----------------------------------------------------------------------
# Parity with the lazy-heap implementation the pair sweep replaced
# ----------------------------------------------------------------------
def oracle_cluster(
    coords: np.ndarray,
    distance_threshold: float,
    weights=None,
) -> list[Cluster]:
    """The grid-seeded lazy-heap clustering, kept verbatim as the oracle."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or (coords.size and coords.shape[1] != 2):
        raise ValueError(f"coords must be (n, 2), got shape {coords.shape}")
    n = len(coords)
    if weights is None:
        w = np.ones(n, dtype=float)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,):
            raise ValueError("weights must align with coords")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
    if distance_threshold <= 0:
        raise ValueError("distance_threshold must be positive")
    if n == 0:
        return []

    # Live clusters: id -> (x, y, weight, member indices).
    live: dict[int, tuple[float, float, float, list[int]]] = {
        i: (float(coords[i, 0]), float(coords[i, 1]), float(w[i]), [i]) for i in range(n)
    }
    next_id = n
    grid = GridIndex(cell_size_m=distance_threshold)
    for cid, (x, y, _, _) in live.items():
        grid.insert(cid, x, y)

    heap: list[tuple[float, int, int]] = []

    def push_pairs(cid: int) -> None:
        x, y, _, _ = live[cid]
        for other in grid.query_radius(x, y, distance_threshold):
            if other == cid or other not in live:  # merged away
                continue
            ox, oy, _, _ = live[other]
            d = math.hypot(ox - x, oy - y)
            if d < distance_threshold:
                a, b = (cid, other) if cid < other else (other, cid)
                heapq.heappush(heap, (d, a, b))

    for cid in range(n):
        push_pairs(cid)

    while heap:
        d, a, b = heapq.heappop(heap)
        if a not in live or b not in live:
            continue
        xa, ya, wa, ma = live.pop(a)
        xb, yb, wb, mb = live.pop(b)
        wt = wa + wb
        nx = (xa * wa + xb * wb) / wt
        ny = (ya * wa + yb * wb) / wt
        cid = next_id
        next_id += 1
        live[cid] = (nx, ny, wt, ma + mb)
        grid.insert(cid, nx, ny)
        push_pairs(cid)

    return [
        Cluster(x=x, y=y, weight=wt, members=sorted(members))
        for x, y, wt, members in live.values()
    ]


def as_rows(clusters):
    """Clusters as exact tuples, in output order."""
    return [(c.x, c.y, c.weight, c.members) for c in clusters]


def hotspot_cloud(rng, n, extent=2000.0, spread=15.0):
    """Stay-like points: tight clumps around random delivery spots."""
    spots = rng.uniform(0, extent, size=(max(1, n // 15), 2))
    return spots[rng.integers(0, len(spots), n)] + rng.normal(0, spread, size=(n, 2))


class TestClusteringParity:
    """The pair-seeded heap merges exactly like the grid-seeded oracle."""

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_float_clouds(self, seed):
        rng = np.random.default_rng(seed)
        pts = hotspot_cloud(rng, int(rng.integers(50, 600)))
        for threshold in (20.0, 40.0):
            assert as_rows(hierarchical_cluster(pts, threshold)) == as_rows(
                oracle_cluster(pts, threshold)
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_integer_lattice_ties(self, seed):
        # Lattice points give many exactly equal distances, so pop order
        # falls through to the (a, b) ids.
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, 25, size=(300, 2)).astype(float) * 10.0
        for threshold in (10.5, 25.0, 40.0):
            assert as_rows(hierarchical_cluster(pts, threshold)) == as_rows(
                oracle_cluster(pts, threshold)
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_weighted_inputs(self, seed):
        rng = np.random.default_rng(seed)
        pts = hotspot_cloud(rng, 400)
        weights = rng.uniform(0.5, 30.0, size=len(pts))
        assert as_rows(hierarchical_cluster(pts, 40.0, weights)) == as_rows(
            oracle_cluster(pts, 40.0, weights)
        )

    def test_merge_weighted_clusters(self, monkeypatch):
        rng = np.random.default_rng(5)
        pool = hierarchical_cluster(hotspot_cloud(rng, 300), 40.0)
        batch = hotspot_cloud(rng, 250)
        built = merge_weighted_clusters(pool, batch, 40.0)
        monkeypatch.setattr(hierarchical_mod, "hierarchical_cluster", oracle_cluster)
        assert as_rows(built) == as_rows(merge_weighted_clusters(pool, batch, 40.0))

    def test_pair_exactly_at_threshold(self):
        # 3-4-5 triangles: hypot is exactly 40, which does not merge, while
        # the 39.0 pair beside it does.
        pts = np.array([[0.0, 0.0], [24.0, 32.0], [500.0, 0.0], [539.0, 0.0]])
        out = hierarchical_cluster(pts, 40.0)
        assert as_rows(out) == as_rows(oracle_cluster(pts, 40.0))
        assert sorted(c.members for c in out) == [[0], [1], [2, 3]]

    @pytest.mark.parametrize("block", [1, 97, 1000])
    def test_more_than_one_sweep_block(self, block, monkeypatch):
        # A block smaller than one row's candidates still takes that row.
        monkeypatch.setattr(hierarchical_mod, "PAIR_BLOCK", block)
        pts = hotspot_cloud(np.random.default_rng(7), 800)
        assert as_rows(hierarchical_cluster(pts, 40.0)) == as_rows(oracle_cluster(pts, 40.0))

    def test_tall_layout_sweeps_the_wider_axis(self):
        rng = np.random.default_rng(8)
        pts = np.column_stack([rng.uniform(0, 30, 500), rng.uniform(0, 5000, 500)])
        assert as_rows(hierarchical_cluster(pts, 40.0)) == as_rows(oracle_cluster(pts, 40.0))

    @pytest.mark.parametrize("pts", [np.empty((0, 2)), np.array([[3.0, -4.0]])])
    def test_zero_and_one_point(self, pts):
        assert as_rows(hierarchical_cluster(pts, 40.0)) == as_rows(oracle_cluster(pts, 40.0))

    def test_close_pairs_are_exactly_the_pairs_below_the_cutoff(self):
        rng = np.random.default_rng(11)
        pts = hotspot_cloud(rng, 500)
        found = {(a, b) for block in close_pairs(pts, 40.0) for a, b in zip(*block)
                 if math.hypot(*(pts[b] - pts[a])) < 40.0}
        brute = {(a, b) for a in range(len(pts)) for b in range(a + 1, len(pts))
                 if math.hypot(*(pts[b] - pts[a])) < 40.0}
        assert found == brute

    def test_artifacts_equal_with_oracle_clustering(self, tiny_workload, monkeypatch):
        def build():
            return build_artifacts(tiny_workload.trips, tiny_workload.addresses,
                                   tiny_workload.projection, DLInfMAConfig())

        built = build()
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return oracle_cluster(*args, **kwargs)

        # build_candidate_pool reads the candidates module's name,
        # merge_weighted_clusters its own module's.
        monkeypatch.setattr(candidates_mod, "hierarchical_cluster", counted)
        monkeypatch.setattr(hierarchical_mod, "hierarchical_cluster", counted)
        oracle = build()
        assert calls

        def pool_rows(artifacts):
            return [(c.candidate_id, c.x, c.y, c.lng, c.lat, c.weight)
                    for c in artifacts.pool.candidates]

        def profile_bytes(artifacts):
            profiles = artifacts.extractor.profiles
            return {cid: p.as_vector().tobytes() for cid, p in profiles.items()}

        assert pool_rows(built) == pool_rows(oracle)
        assert profile_bytes(built) == profile_bytes(oracle)
        assert built.examples.keys() == oracle.examples.keys()
        for address_id, example in built.examples.items():
            other = oracle.examples[address_id]
            assert example.candidate_ids == other.candidate_ids
            assert example.features.tobytes() == other.features.tobytes()


def test_close_pairs_memory_is_blocked():
    """50k points along a 10 km line, about ten neighbours within the cutoff
    each: an unblocked sweep would hold all 500k candidate pairs at once."""
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(0, 10_000, 50_000), rng.uniform(0, 1.0, 50_000)])
    tracemalloc.start()
    try:
        n_pairs = sum(len(a) for a, _ in close_pairs(pts, 2.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n_pairs > 10 * hierarchical_mod.PAIR_BLOCK
    assert peak < 4 * 1024 * 1024, f"peak {peak / 1e6:.1f} MB"
