"""Threshold centroid-linkage agglomerative clustering.

The paper's candidate-pool construction (Section III-B): start with every
stay point as a singleton cluster and repeatedly merge the closest pair of
centroids until no two centroids are within ``distance_threshold``.  The
centroid of each final cluster becomes a location candidate.

The implementation is exact but avoids the O(n^2) distance matrix.  A pair
farther apart than the threshold can never be merged, so only close pairs
are kept, and merges follow the total order on ``(distance, lower id,
higher id)``.  Ids are never reused: a merge retires both ids and makes a
fresh, higher one.

* **Owner lists.**  Each close pair belongs to its younger cluster, the
  one with the higher id, which keeps its partners in a list sorted by
  ``(distance, partner id)``.  The seed points' pairs come from the static
  cell grid (:func:`repro.geo.grid.pairs_within`) keyed with
  ``math.hypot``; a merged cluster's come from the 3 x 3 block of
  threshold-sized cells around its centroid in a dict that changes on
  every merge and holds only live clusters, all older.
* **One heap entry per cluster.**  The heap holds only the head
  ``(distance, partner, owner)`` of each live owner's list.  A popped head
  whose owner has merged is dropped; one whose partner has merged makes
  the owner walk its list past dead partners and offer its next head;
  otherwise the pair merges.
* **Why the order is exact.**  Every live pair sits at or after its
  owner's head, so the heap's minimum is never above any live pair's key,
  and a head whose ends are both live is the smallest live pair.

Clusters live in flat per-id lists; the output lists the live ids in
increasing order.
"""

from __future__ import annotations

import heapq
import math
from itertools import compress
from typing import Sequence

import numpy as np

from repro.cluster.types import Cluster
from repro.geo.grid import pairs_within


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
        ws = [1.0] * n
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,):
            raise ValueError("weights must align with coords")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        ws = w.tolist()
    if distance_threshold <= 0:
        raise ValueError("distance_threshold must be positive")
    if n == 0:
        return []

    # Per id: centroid, weight, member indices, whether it is live, the
    # grid cell it sits in, and its owner list, kept in descending order so
    # that its head is the last entry.
    xs = coords[:, 0].tolist()
    ys = coords[:, 1].tolist()
    members = [[i] for i in range(n)]
    alive = bytearray(b"\x01") * n
    cell_m = float(distance_threshold)
    cells: dict[tuple[int, int], dict[int, tuple[float, float]]] = {}
    home: list[dict[int, tuple[float, float]]] = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        bucket = cells.setdefault((math.floor(x / cell_m), math.floor(y / cell_m)), {})
        bucket[i] = (x, y)
        home.append(bucket)
    owned: list[list[tuple[float, int]] | None] = [[] for _ in range(n)]
    # A radius of D (1 + 1e-9) squares to at least D^2 (1 + 1e-9), so the
    # grid's pairs include every pair ``math.hypot`` puts below D.
    for block_a, block_b in pairs_within(coords, distance_threshold * (1.0 + 1e-9)):
        for a, b in zip(block_a.tolist(), block_b.tolist()):
            d = math.hypot(xs[b] - xs[a], ys[b] - ys[a])
            if d < distance_threshold:
                owned[b].append((d, a))
    heap: list[tuple[float, int, int]] = []
    for b, pairs in enumerate(owned):
        if pairs:
            pairs.sort(reverse=True)
            d, a = pairs[-1]
            heap.append((d, a, b))
    heapq.heapify(heap)

    heappop, heapreplace = heapq.heappop, heapq.heapreplace
    while heap:
        d, a, b = heap[0]
        if not alive[b]:
            heappop(heap)
            continue
        if not alive[a]:
            pairs = owned[b]
            pairs.pop()
            while pairs and not alive[pairs[-1][1]]:
                pairs.pop()
            if pairs:
                d, a = pairs[-1]
                heapreplace(heap, (d, a, b))
            else:
                heappop(heap)
            continue

        alive[a] = alive[b] = 0
        owned[a] = owned[b] = None
        del home[a][a]
        del home[b][b]
        wa, wb = ws[a], ws[b]
        wt = wa + wb
        nx = (xs[a] * wa + xs[b] * wb) / wt
        ny = (ys[a] * wa + ys[b] * wb) / wt
        merged, smaller = members[a], members[b]
        if len(merged) < len(smaller):
            merged, smaller = smaller, merged
        merged.extend(smaller)
        cid = len(xs)
        gx, gy = math.floor(nx / cell_m), math.floor(ny / cell_m)
        pairs = []
        for ox in (gx - 1, gx, gx + 1):
            for oy in (gy - 1, gy, gy + 1):
                bucket = cells.get((ox, oy))
                if bucket:
                    for other, (px, py) in bucket.items():
                        d = math.hypot(px - nx, py - ny)
                        if d < distance_threshold:
                            pairs.append((d, other))
        xs.append(nx)
        ys.append(ny)
        ws.append(wt)
        members.append(merged)
        alive.append(1)
        bucket = cells.setdefault((gx, gy), {})
        bucket[cid] = (nx, ny)
        home.append(bucket)
        owned.append(pairs)
        if pairs:
            pairs.sort(reverse=True)
            d, a = pairs[-1]
            heapreplace(heap, (d, a, cid))
        else:
            heappop(heap)

    return [
        Cluster(xs[i], ys[i], ws[i], sorted(members[i]))
        for i in compress(range(len(alive)), alive)
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
