"""Application 1: route planning over inferred delivery locations.

Section VI-B: routes for new couriers were planned with TSP over geocoded
locations; DLInfMA's inferred locations make the planned tours match where
deliveries actually happen.  The solver is nearest-neighbour construction
plus 2-opt improvement — standard and deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.geo import LocalProjection
from repro.serve.shard import ShardedLocationStore
from repro.trajectory import Address


def route_length(points: np.ndarray, order: list[int], start: tuple[float, float]) -> float:
    """Total tour length: start -> points[order[0]] -> ... -> last stop."""
    if len(order) == 0:
        return 0.0
    length = float(np.hypot(points[order[0], 0] - start[0], points[order[0], 1] - start[1]))
    for a, b in zip(order, order[1:]):
        length += float(np.hypot(*(points[a] - points[b])))
    return length


def nearest_neighbor_order(points: np.ndarray, start: tuple[float, float]) -> list[int]:
    """Greedy construction: always visit the closest unvisited stop."""
    n = len(points)
    remaining = set(range(n))
    order: list[int] = []
    x, y = start
    while remaining:
        nxt = min(remaining, key=lambda i: (points[i, 0] - x) ** 2 + (points[i, 1] - y) ** 2)
        remaining.remove(nxt)
        order.append(nxt)
        x, y = points[nxt]
    return order


def two_opt(points: np.ndarray, order: list[int], start: tuple[float, float], max_rounds: int = 20) -> list[int]:
    """2-opt: reverse segments while doing so shortens the tour."""
    best = list(order)
    best_len = route_length(points, best, start)
    n = len(best)
    for _ in range(max_rounds):
        improved = False
        for i in range(n - 1):
            for j in range(i + 2, n):
                candidate = best[: i + 1] + best[i + 1 : j + 1][::-1] + best[j + 1 :]
                cand_len = route_length(points, candidate, start)
                if cand_len < best_len - 1e-9:
                    best, best_len = candidate, cand_len
                    improved = True
        if not improved:
            break
    return best


def plan_route(points: np.ndarray, start: tuple[float, float]) -> list[int]:
    """Nearest-neighbour + 2-opt tour over ``(n, 2)`` meter coordinates."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(points) == 0:
        return []
    return two_opt(points, nearest_neighbor_order(points, start), start)


class RoutePlanner:
    """Plans delivery tours for a batch of addresses using the store."""

    def __init__(self, store: ShardedLocationStore, projection: LocalProjection) -> None:
        self.store = store
        self.projection = projection

    def plan(
        self, addresses: list[Address], start_xy: tuple[float, float]
    ) -> tuple[list[Address], float]:
        """Visit order and tour length (meters) for a batch of addresses."""
        if not addresses:
            return [], 0.0
        coords = []
        for address in addresses:
            point = self.store.query(address).location
            coords.append(self.projection.to_xy(point.lng, point.lat))
        points = np.array(coords, dtype=float)
        order = plan_route(points, start_xy)
        return [addresses[i] for i in order], route_length(points, order, start_xy)
