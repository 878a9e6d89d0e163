"""DBSCAN over 2-D meter coordinates (used by the GeoCloud baseline).

Neighbourhoods (inclusive, each point its own neighbour) come from one
:func:`repro.geo.grid.pairs_within` query, held as CSR offsets.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.geo.grid import pairs_within

NOISE = -1


def dbscan(coords: np.ndarray, eps_m: float, min_pts: int) -> np.ndarray:
    """Label ``(n, 2)`` points; returns an int array, ``-1`` marks noise.

    Standard density-based clustering: a core point has at least ``min_pts``
    neighbours (itself included) within ``eps_m``; clusters are the
    connected components of core points plus their border points.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or (coords.size and coords.shape[1] != 2):
        raise ValueError(f"coords must be (n, 2), got shape {coords.shape}")
    if eps_m <= 0:
        raise ValueError("eps_m must be positive")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    n = len(coords)
    # Point i's neighbours are neighbours[offsets[i]:offsets[i + 1]].
    near = [np.arange(n)] * 2
    for a, b in pairs_within(coords, eps_m):
        near += [a, b, b, a]
    src = np.concatenate(near[0::2])
    offsets = [0, *np.cumsum(np.bincount(src, minlength=n)).tolist()]
    neighbours = np.concatenate(near[1::2])[np.argsort(src, kind="stable")].tolist()

    labels = [NOISE] * n
    visited = bytearray(n)
    cluster_id = 0
    for seed in range(n):
        if visited[seed]:
            continue
        visited[seed] = 1
        lo, hi = offsets[seed], offsets[seed + 1]
        if hi - lo < min_pts:
            continue  # stays noise unless claimed as a border point later
        labels[seed] = cluster_id
        queue = deque(neighbours[lo:hi])
        while queue:
            j = queue.popleft()
            if labels[j] == NOISE:
                labels[j] = cluster_id  # border or core of this cluster
            if visited[j]:
                continue
            visited[j] = 1
            lo, hi = offsets[j], offsets[j + 1]
            if hi - lo >= min_pts:
                queue.extend(neighbours[lo:hi])
        cluster_id += 1
    return np.array(labels, dtype=int)
