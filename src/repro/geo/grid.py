"""A uniform spatial grid index over projected (meter) coordinates.

DBSCAN (:func:`repro.cluster.dbscan.dbscan`) is its one user: all points
within ``r`` of a query are found by scanning the ``ceil(r / cell)``-ring
of neighbouring cells.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Hashable


class GridIndex:
    """Buckets (x, y) meter coordinates into square cells.

    Items are arbitrary hashable ids; coordinates are remembered so radius
    queries can do exact distance checks.
    """

    def __init__(self, cell_size_m: float) -> None:
        if cell_size_m <= 0:
            raise ValueError("cell_size_m must be positive")
        self.cell_size_m = float(cell_size_m)
        self._cells: dict[tuple[int, int], list[Hashable]] = defaultdict(list)
        self._coords: dict[Hashable, tuple[float, float]] = {}

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (int(math.floor(x / self.cell_size_m)), int(math.floor(y / self.cell_size_m)))

    def insert(self, item: Hashable, x: float, y: float) -> None:
        """Add a new ``item`` at (x, y)."""
        self._coords[item] = (x, y)
        self._cells[self._cell_of(x, y)].append(item)

    def query_radius(self, x: float, y: float, radius_m: float) -> list[Hashable]:
        """All items within ``radius_m`` (inclusive) of (x, y)."""
        if radius_m < 0:
            raise ValueError("radius_m must be non-negative")
        ring = int(math.ceil(radius_m / self.cell_size_m))
        cx, cy = self._cell_of(x, y)
        r2 = radius_m * radius_m
        found = []
        for gx in range(cx - ring, cx + ring + 1):
            for gy in range(cy - ring, cy + ring + 1):
                for item in self._cells.get((gx, gy), ()):
                    px, py = self._coords[item]
                    if (px - x) ** 2 + (py - y) ** 2 <= r2:
                        found.append(item)
        return found
