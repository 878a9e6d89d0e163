"""Threshold centroid-linkage agglomerative clustering.

The paper's candidate-pool construction (Section III-B): start with every
stay point as a singleton cluster and repeatedly merge the closest pair of
centroids until no two centroids are within ``distance_threshold``.  The
centroid of each final cluster becomes a location candidate.

The implementation is exact but avoids the O(n^2) distance matrix.  A pair
farther apart than the threshold can never be merged, so only the close
pairs enter a global min-heap of ``(distance, a, b)`` keys:

* **Seeding.**  Every initial pair closer than the threshold is found once
  (``a < b``) by a blocked numpy sweep over points sorted along their wider
  axis, then keyed with ``math.hypot`` and heapified in one call.
* **Merging.**  The closest live pair merges into a fresh id, whose pairs
  come from the 3 x 3 block of threshold-sized grid cells around its
  centroid.  Ids are never reused, so a heap entry is stale exactly when
  either endpoint is no longer alive, and is skipped when popped.
"""

from __future__ import annotations

import heapq
import math
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
