"""Reference stay clustering: the one-heap merge loop, kept verbatim.

This module keeps the threshold centroid-linkage clustering that seeded
one global min-heap with every close pair and skipped a popped pair whose
cluster had already merged (``repro.cluster.hierarchical`` before owner
lists).  ``repro.cluster.hierarchical`` merges in the same order with one
heap entry per cluster; the tests and the script below assert both give
bit-equal clusters (x, y, weight, members and order).

Run as a script for the large-corpus check (not part of tier 1)::

    PYTHONPATH=src:. python -m tests.cluster.hierarchical_reference --scale 3

On a DowBJ-like and a SubBJ-like corpus it checks the three callers of the
static cell grid (``repro.geo.grid``) against references, and prints each
side's seconds:

* every bi-weekly batch clustered through both loops, the way
  ``build_candidate_pool`` does (also each side's heap operations);
* DLInfMA-Grid's pool of all stays: ``grid_merge`` against the dict
  binning of ``tests/cluster/oracles.py``;
* GeoCloud's DBSCAN labels for every address's annotations against the
  brute-force oracle of ``tests/cluster/oracles.py``.
"""

from __future__ import annotations

import argparse
import heapq
import math
import time
from functools import partial
from typing import Iterator, Sequence

import numpy as np

from repro.cluster.types import Cluster

#: Candidate pairs examined per block of the seeding sweep: its scratch
#: arrays stay near 400 KB however many points are clustered.
PAIR_BLOCK = 1 << 12

_EMPTY_CELL: dict[int, tuple[float, float]] = {}


def close_pairs(
    coords: np.ndarray, distance_threshold: float
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks of row pairs ``(a, b)``, ``a < b``, that may be closer than the cutoff.

    A superset of the pairs ``math.hypot`` puts below ``distance_threshold``,
    each pair once: points sorted along the axis of larger extent pair with
    the later points within the threshold along it, and a float64
    squared-distance check with a relative slack of 1e-9 drops the far
    ones.  Each block covers about ``PAIR_BLOCK`` such candidates.
    """
    n = len(coords)
    if n < 2:
        return
    axis = 0 if np.ptp(coords[:, 0]) >= np.ptp(coords[:, 1]) else 1
    order = np.argsort(coords[:, axis], kind="stable")
    u = coords[order, axis]
    v = coords[order, 1 - axis]
    counts = np.searchsorted(u, u + distance_threshold, side="right") - np.arange(1, n + 1)
    ends = np.cumsum(counts)
    limit = distance_threshold * distance_threshold * (1.0 + 1e-9)
    lo = 0
    while lo < n:
        done = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + PAIR_BLOCK, side="right")))
        c = counts[lo:hi]
        rows = np.repeat(np.arange(lo, hi), c)
        cols = rows + 1 + np.arange(len(rows)) - np.repeat(ends[lo:hi] - done - c, c)
        du = u[cols] - u[rows]
        dv = v[cols] - v[rows]
        near = du * du + dv * dv <= limit
        a = order[rows[near]]
        b = order[cols[near]]
        yield np.minimum(a, b), np.maximum(a, b)
        lo = hi


def hierarchical_cluster(
    coords: np.ndarray,
    distance_threshold: float,
    weights: Sequence[float] | None = None,
) -> list[Cluster]:
    """Cluster ``(n, 2)`` meter coordinates with a centroid-distance cutoff.

    Returns clusters whose pairwise centroid distances are all at least
    ``distance_threshold``.  ``weights`` (default all-ones) make centroids
    weighted means — used when merging an existing candidate pool (where a
    candidate stands for many stay points) with fresh stay points.
    """
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

    xs = coords[:, 0].tolist()
    ys = coords[:, 1].tolist()
    # Live clusters: id -> (x, y, weight, member indices).
    live: dict[int, tuple[float, float, float, list[int]]] = {
        i: (xs[i], ys[i], wi, [i]) for i, wi in enumerate(w.tolist())
    }
    # Threshold-sized grid cells: cell -> {live id: (x, y)}.
    cell_m = float(distance_threshold)
    cells: dict[tuple[int, int], dict[int, tuple[float, float]]] = {}
    for i, (x, y) in enumerate(zip(xs, ys)):
        cells.setdefault((math.floor(x / cell_m), math.floor(y / cell_m)), {})[i] = (x, y)

    heap: list[tuple[float, int, int]] = []
    for block_a, block_b in close_pairs(coords, distance_threshold):
        for a, b in zip(block_a.tolist(), block_b.tolist()):
            d = math.hypot(xs[b] - xs[a], ys[b] - ys[a])
            if d < distance_threshold:
                heap.append((d, a, b))
    heapq.heapify(heap)

    next_id = n
    while heap:
        d, a, b = heapq.heappop(heap)
        if a not in live or b not in live:
            continue
        xa, ya, wa, ma = live.pop(a)
        xb, yb, wb, mb = live.pop(b)
        for cid, x, y in ((a, xa, ya), (b, xb, yb)):
            key = (math.floor(x / cell_m), math.floor(y / cell_m))
            bucket = cells[key]
            del bucket[cid]
            if not bucket:
                del cells[key]
        wt = wa + wb
        nx = (xa * wa + xb * wb) / wt
        ny = (ya * wa + yb * wb) / wt
        cid = next_id
        next_id += 1
        gx, gy = math.floor(nx / cell_m), math.floor(ny / cell_m)
        for ox in (gx - 1, gx, gx + 1):
            for oy in (gy - 1, gy, gy + 1):
                for other, (px, py) in cells.get((ox, oy), _EMPTY_CELL).items():
                    d = math.hypot(px - nx, py - ny)
                    if d < distance_threshold:
                        heapq.heappush(heap, (d, other, cid))
        live[cid] = (nx, ny, wt, ma + mb)
        cells.setdefault((gx, gy), {})[cid] = (nx, ny)

    return [
        Cluster(x=x, y=y, weight=wt, members=sorted(members))
        for x, y, wt, members in live.values()
    ]


def merge_weighted_clusters(
    existing: Sequence[Cluster],
    new_coords: np.ndarray,
    distance_threshold: float,
) -> list[Cluster]:
    """Merge an existing candidate pool with new points (bi-weekly update).

    Existing clusters enter as weighted points (their centroids, weighted by
    ``weight``); member index bookkeeping is reset because the two batches
    index different arrays — callers interested in provenance should track it
    themselves via weights.
    """
    new_coords = np.asarray(new_coords, dtype=float).reshape(-1, 2)
    ex_coords = np.array([[c.x, c.y] for c in existing], dtype=float).reshape(-1, 2)
    coords = np.vstack([ex_coords, new_coords]) if len(existing) else new_coords
    weights = np.concatenate(
        [
            np.array([c.weight for c in existing], dtype=float),
            np.ones(len(new_coords), dtype=float),
        ]
    )
    return hierarchical_cluster(coords, distance_threshold, weights=weights)


# ----------------------------------------------------------------------
# Both sides on one corpus
# ----------------------------------------------------------------------
class CountingHeapq:
    """``heapq`` with a tally: entries seeded by ``heapify``, pops and pushes.

    ``heapreplace`` counts as one pop and one push.
    """

    def __init__(self):
        self.heapq = heapq  # the module, before a namespace's name is swapped
        self.seeded = self.pops = self.pushes = 0

    def heapify(self, heap):
        self.seeded += len(heap)
        self.heapq.heapify(heap)

    def heappush(self, heap, item):
        self.pushes += 1
        self.heapq.heappush(heap, item)

    def heappop(self, heap):
        self.pops += 1
        return self.heapq.heappop(heap)

    def heapreplace(self, heap, item):
        self.pops += 1
        self.pushes += 1
        return self.heapq.heapreplace(heap, item)


def batch_coords(stay_points, projection):
    """Each bi-weekly batch's projected stays, in period order.

    The same split as ``repro.core.candidates.build_candidate_pool``.
    """
    from repro.core.candidates import BATCH_PERIOD_S, project_stays

    xy = project_stays(stay_points, projection)
    t = np.array([sp.t for sp in stay_points])
    periods = ((t - t.min()) // BATCH_PERIOD_S).astype(np.int64)
    return [xy[periods == period] for period in np.unique(periods)]


def build_pools(batches, distance_threshold, cluster, merge):
    """The clusters after each batch: the first clustered, later ones merged."""
    pools = []
    clusters: list[Cluster] = []
    for xy in batches:
        clusters = merge(clusters, xy, distance_threshold) if clusters else cluster(
            xy, distance_threshold
        )
        pools.append(clusters)
    return pools


def as_rows(clusters):
    """Clusters as exact tuples, in output order."""
    return [(c.x, c.y, c.weight, c.members) for c in clusters]


def timed_sides(sides, repeats=3):
    """Each side's result and best seconds over ``repeats`` runs, alternating."""
    results, seconds = {}, {}
    for _ in range(repeats):
        for side, run in sides.items():
            t0 = time.perf_counter()
            results[side] = run()
            elapsed = time.perf_counter() - t0
            seconds[side] = min(seconds.get(side, elapsed), elapsed)
    return results, seconds


def compare_batches(batches, distance_threshold, repeats=3):
    """Both sides over the same batches.

    Returns the batches whose clusters differ, each side's best seconds
    over ``repeats`` builds, and each side's heap tally from one more,
    counted build.
    """
    import repro.cluster.hierarchical as library

    # Side -> (cluster, merge, the namespace whose ``heapq`` they call).
    sides = {
        "reference": (hierarchical_cluster, merge_weighted_clusters, globals()),
        "library": (library.hierarchical_cluster, library.merge_weighted_clusters, vars(library)),
    }
    pools, seconds = timed_sides({
        side: partial(build_pools, batches, distance_threshold, cluster, merge)
        for side, (cluster, merge, _) in sides.items()
    }, repeats)
    tallies = {}
    for side, (cluster, merge, module) in sides.items():
        tally = module["heapq"] = CountingHeapq()
        try:
            build_pools(batches, distance_threshold, cluster, merge)
        finally:
            module["heapq"] = heapq
        tallies[side] = tally
    mismatches = [
        i for i, (ref, ours) in enumerate(zip(pools["reference"], pools["library"]))
        if as_rows(ref) != as_rows(ours)
    ]
    return mismatches, seconds, tallies


def compare_grid_pool(xy, cell_m):
    """DLInfMA-Grid's binning of all stays: whether both sides' clusters are
    equal (x, y, weight, members, order), and each side's seconds."""
    from repro.cluster import grid_merge
    from tests.cluster.oracles import dict_grid_merge

    results, seconds = timed_sides({
        "reference": lambda: dict_grid_merge(xy, cell_m),
        "library": lambda: grid_merge(xy, cell_m),
    })
    return as_rows(results["reference"]) == as_rows(results["library"]), seconds


def compare_geocloud(workload):
    """GeoCloud's DBSCAN labels for every address's annotations: the
    addresses whose labels differ from the oracle's, the number compared,
    and each side's seconds."""
    from repro.baselines import GeoCloudBaseline, annotated_locations
    from repro.cluster import dbscan
    from tests.cluster.oracles import dbscan_oracle

    geocloud = GeoCloudBaseline()
    annotations = annotated_locations(workload.trips, workload.projection)
    coords = {
        address_id: np.array([[e.x, e.y] for e in events])
        for address_id, events in annotations.items() if events
    }

    def labels(fn):
        return {a: fn(xy, geocloud.eps_m, geocloud.min_pts).tolist() for a, xy in coords.items()}

    results, seconds = timed_sides({
        "reference": lambda: labels(dbscan_oracle),
        "library": lambda: labels(dbscan),
    })
    mismatches = [a for a in coords if results["reference"][a] != results["library"][a]]
    return mismatches, len(coords), seconds


def main(argv=None) -> int:
    from repro.core import DLInfMAConfig, extract_trip_stay_points
    from repro.core.candidates import project_stays
    from repro.eval import Workload
    from repro.synth import downbj_config, generate_dataset, subbj_config

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=3.0)
    args = parser.parse_args(argv)
    distance_threshold = DLInfMAConfig().cluster_distance_m
    failed = False
    for name, make in (("DowBJ-like", downbj_config), ("SubBJ-like", subbj_config)):
        workload = Workload.from_dataset(generate_dataset(make(scale=args.scale)))
        stays = extract_trip_stay_points(workload.trips)
        all_stays = [sp for trip_stays in stays.values() for sp in trip_stays]
        batches = batch_coords(all_stays, workload.projection)
        mismatches, seconds, tallies = compare_batches(batches, distance_threshold)
        label = f"{name} scale {args.scale:g}"
        for side in ("reference", "library"):
            tally = tallies[side]
            print(f"{label} {side}: {seconds[side]:.3f} s, heap seeded {tally.seeded:,}, "
                  f"pops {tally.pops:,}, pushes {tally.pushes:,}")
        status = "bit-equal" if not mismatches else f"MISMATCH in batches {mismatches}"
        print(f"{label}: {len(batches)} batches of {sum(len(b) for b in batches):,} stays, "
              f"library / reference {seconds['library'] / seconds['reference']:.2f}x, "
              f"clusters {status}")
        failed |= bool(mismatches)

        equal, seconds = compare_grid_pool(
            project_stays(all_stays, workload.projection), distance_threshold
        )
        print(f"{label} grid pool of {len(all_stays):,} stays: reference "
              f"{seconds['reference']:.3f} s, library {seconds['library']:.3f} s, "
              f"clusters {'bit-equal' if equal else 'MISMATCH'}")
        failed |= not equal

        mismatches, n_addresses, seconds = compare_geocloud(workload)
        status = "equal" if not mismatches else f"MISMATCH at {len(mismatches)} addresses"
        print(f"{label} GeoCloud DBSCAN of {n_addresses:,} addresses: reference "
              f"{seconds['reference']:.3f} s, library {seconds['library']:.3f} s, labels {status}")
        failed |= bool(mismatches)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
