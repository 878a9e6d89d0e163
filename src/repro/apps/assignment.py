"""Parcel allocation over inferred delivery locations.

The paper's introduction names parcel allocation as a downstream
application (and notes under the P95 metric that "occasional large
inference errors can cause huge business loss" there).  This allocator
splits a batch of waybills among couriers by balancing estimated tour
workload: greedy seeding by geographic spread, then local moves while they
reduce the maximum courier tour length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.routing import plan_route, route_length
from repro.geo import LocalProjection
from repro.serve.shard import ShardedLocationStore
from repro.trajectory import Address


@dataclass
class AssignmentResult:
    """Waybill split across couriers plus the resulting tour lengths."""

    assignment: dict[str, list[Address]]  # courier -> addresses
    tour_length_m: dict[str, float] = field(default_factory=dict)

    @property
    def makespan_m(self) -> float:
        """Longest courier tour (the balancing objective)."""
        return max(self.tour_length_m.values()) if self.tour_length_m else 0.0

    @property
    def total_m(self) -> float:
        """Sum of tour lengths."""
        return float(sum(self.tour_length_m.values()))


class ParcelAllocator:
    """Balances a waybill batch across couriers by tour length."""

    def __init__(
        self,
        store: ShardedLocationStore,
        projection: LocalProjection,
        max_rounds: int = 30,
    ) -> None:
        self.store = store
        self.projection = projection
        self.max_rounds = max_rounds

    def _coords(self, addresses: list[Address]) -> np.ndarray:
        out = []
        for address in addresses:
            point = self.store.query(address).location
            out.append(self.projection.to_xy(point.lng, point.lat))
        return np.array(out, dtype=float).reshape(-1, 2)

    @staticmethod
    def _tour_length(coords: np.ndarray, start_xy: tuple[float, float]) -> float:
        if len(coords) == 0:
            return 0.0
        order = plan_route(coords, start_xy)
        return route_length(coords, order, start_xy)

    def allocate(
        self,
        addresses: list[Address],
        courier_ids: list[str],
        start_xy: tuple[float, float],
    ) -> AssignmentResult:
        """Assign each address to one courier, minimizing the makespan."""
        if not courier_ids:
            raise ValueError("need at least one courier")
        coords = self._coords(addresses)
        k = len(courier_ids)
        if len(addresses) == 0:
            return AssignmentResult(
                {c: [] for c in courier_ids}, {c: 0.0 for c in courier_ids}
            )

        # Seed: k-means-style geographic split keeps zones compact.
        from repro.cluster import kmeans

        n_groups = min(k, len(addresses))
        labels, _ = kmeans(coords, n_groups, rng=np.random.default_rng(0))
        groups: dict[int, list[int]] = {g: [] for g in range(k)}
        for i, label in enumerate(labels):
            groups[int(label)].append(i)

        def length_of(idx_list: list[int]) -> float:
            return self._tour_length(coords[idx_list], start_xy)

        lengths = {g: length_of(ids) for g, ids in groups.items()}

        # Local search: move one address from the longest tour to another
        # courier while the makespan improves.
        for _ in range(self.max_rounds):
            worst = max(lengths, key=lengths.get)
            improved = False
            for i in list(groups[worst]):
                for other in groups:
                    if other == worst:
                        continue
                    new_worst = length_of([j for j in groups[worst] if j != i])
                    new_other = length_of(groups[other] + [i])
                    if max(new_worst, new_other) < max(lengths[worst], lengths[other]) - 1e-6:
                        groups[worst].remove(i)
                        groups[other].append(i)
                        lengths[worst] = new_worst
                        lengths[other] = new_other
                        improved = True
                        break
                if improved:
                    break
            if not improved:
                break

        assignment = {
            courier_ids[g]: [addresses[i] for i in sorted(ids)]
            for g, ids in groups.items()
        }
        tour_length = {courier_ids[g]: lengths[g] for g in groups}
        return AssignmentResult(assignment, tour_length)
