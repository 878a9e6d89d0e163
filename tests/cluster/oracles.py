"""Reference DBSCAN and grid binning for the cell-grid callers.

* :func:`dbscan_oracle` finds each point's neighbours by brute force
  (float64 ``dx * dx + dy * dy <= eps * eps``, the point itself included)
  and then runs the seed-order BFS of :func:`repro.cluster.dbscan.dbscan`.
* :func:`dict_grid_merge` is DLInfMA-Grid's binning as a dict of D-sized
  cells in first-point order, each cell's centroid the mean of its points.

The unit tests and ``python -m tests.cluster.hierarchical_reference`` hold
``dbscan`` and ``grid_merge`` equal to these.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.cluster import Cluster
from repro.cluster.dbscan import NOISE


def dbscan_oracle(coords: np.ndarray, eps_m: float, min_pts: int) -> np.ndarray:
    """DBSCAN labels, with each point's neighbourhood found by brute force."""
    coords = np.asarray(coords, dtype=float).reshape(-1, 2)
    x, y = coords[:, 0], coords[:, 1]
    neighbors = []
    for i in range(len(coords)):
        dx = x - x[i]
        dy = y - y[i]
        neighbors.append(np.flatnonzero(dx * dx + dy * dy <= eps_m * eps_m).tolist())

    n = len(coords)
    labels = np.full(n, NOISE, dtype=int)
    cluster_id = 0
    visited = np.zeros(n, dtype=bool)
    for seed in range(n):
        if visited[seed]:
            continue
        visited[seed] = True
        if len(neighbors[seed]) < min_pts:
            continue
        labels[seed] = cluster_id
        queue = deque(neighbors[seed])
        while queue:
            j = queue.popleft()
            if labels[j] == NOISE:
                labels[j] = cluster_id
            if visited[j]:
                continue
            visited[j] = True
            if len(neighbors[j]) >= min_pts:
                queue.extend(neighbors[j])
        cluster_id += 1
    return labels


def dict_grid_merge(coords: np.ndarray, cell_m: float) -> list[Cluster]:
    """One cluster per occupied ``cell_m`` cell, keyed in a dict of lists."""
    coords = np.asarray(coords, dtype=float).reshape(-1, 2)
    cells: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(coords):
        cells.setdefault((math.floor(x / cell_m), math.floor(y / cell_m)), []).append(i)
    clusters = []
    for members in cells.values():
        pts = coords[members]
        clusters.append(
            Cluster(
                x=float(pts[:, 0].mean()),
                y=float(pts[:, 1].mean()),
                weight=float(len(members)),
                members=sorted(members),
            )
        )
    return clusters
