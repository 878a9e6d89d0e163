import heapq
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.cluster.hierarchical as hierarchical_mod
import repro.geo.grid as grid_mod
from repro.cluster import Cluster, hierarchical_cluster, merge_weighted_clusters
from repro.core import DLInfMAConfig, build_artifacts
from repro.geo.grid import pairs_within
from tests.cluster import hierarchical_reference as reference


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

    def test_pair_one_ulp_below_threshold_merges(self):
        # The seed pair search must reach D itself, not stop short of it.
        below = math.nextafter(40.0, 0.0)
        for pts in ([[0.0, 0.0], [below, 0.0]], [[-7.0, 3.0], [-7.0, 3.0 - below]]):
            assert len(hierarchical_cluster(np.array(pts), 40.0)) == 1

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
class DictGrid:
    """The oracle's dynamic grid: a dict of lists of ids, cells ``cell_m`` wide."""

    def __init__(self, cell_m: float) -> None:
        self.cell_m = cell_m
        self.cells: dict[tuple[int, int], list[int]] = {}
        self.coords: dict[int, tuple[float, float]] = {}

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (math.floor(x / self.cell_m), math.floor(y / self.cell_m))

    def insert(self, item: int, x: float, y: float) -> None:
        self.coords[item] = (x, y)
        self.cells.setdefault(self.cell_of(x, y), []).append(item)

    def query_radius(self, x: float, y: float, radius: float) -> list[int]:
        """All items within ``radius`` (inclusive) of (x, y)."""
        ring = math.ceil(radius / self.cell_m)
        cx, cy = self.cell_of(x, y)
        found = []
        for gx in range(cx - ring, cx + ring + 1):
            for gy in range(cy - ring, cy + ring + 1):
                for item in self.cells.get((gx, gy), ()):
                    px, py = self.coords[item]
                    if (px - x) ** 2 + (py - y) ** 2 <= radius * radius:
                        found.append(item)
        return found


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
    grid = DictGrid(distance_threshold)
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
        monkeypatch.setattr(grid_mod, "CANDIDATE_BLOCK", block)
        pts = hotspot_cloud(np.random.default_rng(7), 800)
        assert as_rows(hierarchical_cluster(pts, 40.0)) == as_rows(oracle_cluster(pts, 40.0))

    def test_tall_layout_sweeps_the_wider_axis(self):
        rng = np.random.default_rng(8)
        pts = np.column_stack([rng.uniform(0, 30, 500), rng.uniform(0, 5000, 500)])
        assert as_rows(hierarchical_cluster(pts, 40.0)) == as_rows(oracle_cluster(pts, 40.0))

    @pytest.mark.parametrize("pts", [np.empty((0, 2)), np.array([[3.0, -4.0]])])
    def test_zero_and_one_point(self, pts):
        assert as_rows(hierarchical_cluster(pts, 40.0)) == as_rows(oracle_cluster(pts, 40.0))

    def test_grid_pairs_are_the_pairs_below_cutoff(self):
        # The radius hierarchical_cluster seeds with.
        rng = np.random.default_rng(11)
        pts = hotspot_cloud(rng, 500)
        found = {(a, b) for block in pairs_within(pts, 40.0 * (1.0 + 1e-9))
                 for a, b in zip(*block) if math.hypot(*(pts[b] - pts[a])) < 40.0}
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

        # Every pool batch goes through merge_weighted_clusters, which
        # reads its own module's name.
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



# ----------------------------------------------------------------------
# Owner lists against the one-heap loop they replaced
# ----------------------------------------------------------------------
def assert_matches_reference(pts, threshold, weights=None):
    out = hierarchical_cluster(pts, threshold, weights)
    assert as_rows(out) == as_rows(reference.hierarchical_cluster(pts, threshold, weights))
    return out


class TestOwnerListsMatchReference:
    """Edge cases of the one-head-per-cluster loop, each against the reference."""

    def test_duplicate_points_give_zero_distances(self):
        # Exact duplicates tie at distance 0, so the ids alone order them.
        rng = np.random.default_rng(3)
        spots = rng.uniform(0, 300, size=(12, 2))
        pts = np.vstack([np.repeat(spots, 4, axis=0), spots[::-1]])
        out = assert_matches_reference(pts, 40.0)
        assert sum(c.size for c in out) == len(pts)
        assert_matches_reference(pts, 40.0, rng.uniform(0.5, 5.0, size=len(pts)))
        assert_matches_reference(np.zeros((7, 2)), 40.0)

    def test_heads_whose_partners_merged_first(self):
        # The centre point comes last, so it owns its pairs with all four
        # spokes (10 to 13 m out).  Three spokes have a twin 1 m further out
        # and merge with it first, so the head of the centre's list names a
        # dead partner, several times in a row, while the centre lives.
        angles = np.deg2rad([0.0, 90.0, 180.0, 270.0])
        radii = np.array([10.0, 11.0, 12.0, 13.0])
        spokes = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        twins = spokes[:3] * (1.0 + 1.0 / radii[:3, None])
        pts = np.vstack([spokes, twins, [[0.0, 0.0]]])
        out = assert_matches_reference(pts, 40.0)
        assert len(out) == 1
        # At 40 m the walk stops at a live partner; at 13.5 m, and at 12.5 m
        # without the fourth spoke, it runs off the end of the list.
        assert_matches_reference(pts, 13.5)
        assert_matches_reference(pts[[0, 1, 2, 4, 5, 6, 7]], 12.5)

    def test_owners_without_partners(self):
        # Seeds 0 and 1 own nothing; the cluster of 0 and 2 finds no one
        # within the cutoff, so no head replaces the one it merged from.
        pts = np.array([[0.0, 0.0], [1000.0, 0.0], [5.0, 0.0], [1500.0, 9.0]])
        out = assert_matches_reference(pts, 40.0)
        assert [c.members for c in out] == [[1], [3], [0, 2]]

    def test_three_chained_weighted_batches(self):
        rng = np.random.default_rng(12)
        first = hotspot_cloud(rng, 200)
        ours = assert_matches_reference(first, 40.0)
        pool = reference.hierarchical_cluster(first, 40.0)
        for size in (150, 90, 240):
            batch = hotspot_cloud(rng, size)
            pool = reference.merge_weighted_clusters(pool, batch, 40.0)
            ours = merge_weighted_clusters(ours, batch, 40.0)
            assert as_rows(ours) == as_rows(pool)
        assert len({c.weight for c in ours}) > 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=200, allow_subnormal=False),
                st.floats(min_value=0, max_value=200, allow_subnormal=False),
                st.floats(min_value=0.25, max_value=50.0),
            ),
            min_size=1,
            max_size=50,
        ),
        st.sampled_from([15.0, 40.0]),
    )
    def test_weighted_clouds_property(self, rows, threshold):
        pts = np.array([(x, y) for x, y, _ in rows], dtype=float)
        weights = np.array([w for _, _, w in rows], dtype=float)
        assert_matches_reference(pts, threshold, weights)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=80
        ),
        st.sampled_from([7.5, 10.0, 15.0, 25.0]),
        st.booleans(),
    )
    def test_integer_lattice_property(self, cells, threshold, weighted):
        # Lattice points tie often, at 0 too when a cell repeats.
        pts = np.array(cells, dtype=float) * 5.0
        weights = (np.arange(len(pts)) % 3 + 1.0) if weighted else None
        assert_matches_reference(pts, threshold, weights)


def test_pair_search_memory_is_blocked():
    """50k points along a 10 km line, about ten neighbours within the cutoff
    each: an unblocked search would hold all 500k candidate pairs at once."""
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(0, 10_000, 50_000), rng.uniform(0, 1.0, 50_000)])
    tracemalloc.start()
    try:
        n_pairs = sum(len(a) for a, _ in pairs_within(pts, 2.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n_pairs > 10 * grid_mod.CANDIDATE_BLOCK
    assert peak < 4 * 1024 * 1024, f"peak {peak / 1e6:.1f} MB"
