"""A uniform spatial grid index over projected (meter) coordinates.

The grid serves radius queries only (clustering and
``CandidatePool.within``): all points within ``r`` of a query are found by
scanning the ``ceil(r / cell)``-ring of neighbouring cells.  Nearest-candidate
assignment is a blocked numpy argmin, ``CandidatePool.nearest_ids``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Hashable, Iterator

import numpy as np


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

    def __len__(self) -> int:
        return len(self._coords)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._coords

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (int(math.floor(x / self.cell_size_m)), int(math.floor(y / self.cell_size_m)))

    def insert(self, item: Hashable, x: float, y: float) -> None:
        """Add ``item`` at (x, y); re-inserting an existing id moves it."""
        if item in self._coords:
            self.remove(item)
        self._coords[item] = (x, y)
        self._cells[self._cell_of(x, y)].append(item)

    def remove(self, item: Hashable) -> None:
        """Remove ``item``; raises ``KeyError`` if absent."""
        x, y = self._coords.pop(item)
        cell = self._cell_of(x, y)
        bucket = self._cells[cell]
        bucket.remove(item)
        if not bucket:
            del self._cells[cell]

    def position(self, item: Hashable) -> tuple[float, float]:
        """The stored coordinates of ``item``."""
        return self._coords[item]

    def items(self) -> Iterator[tuple[Hashable, tuple[float, float]]]:
        """Iterate over ``(item, (x, y))`` pairs."""
        return iter(self._coords.items())

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

    def to_arrays(self) -> tuple[list[Hashable], np.ndarray]:
        """All items and an ``(n, 2)`` coordinate array, aligned by index."""
        ids = list(self._coords)
        coords = np.array([self._coords[i] for i in ids], dtype=float).reshape(-1, 2)
        return ids, coords
