"""Per-shard incremental candidate-pool merge with staged commit.

The batch pipeline rebuilds its candidate pool from all stays at once;
the streaming tier cannot.  :class:`ShardedPoolMerger` keeps one
:class:`~repro.core.candidates.CandidatePoolBuilder` per spatial cell
(``SHARD_CELL_M`` on a side), so each drained batch of stays touches
only the handful of shards its stays fall into — merge cost tracks the
batch's spatial footprint, not the city's candidate count.

Because a drained batch must survive the scheduler's promotion gates
*before* it may become servable, mutation is two-phase:

* :meth:`stage` applies the batch and returns a :class:`StagedBatch`
  holding enough state to undo it — a builder replaces its ``clusters``
  list on every batch and never mutates it, so each touched shard's
  list reference (``None`` for a shard the batch created) is a complete
  rollback token.
* :meth:`commit` discards the token; :meth:`rollback` restores it,
  leaving the pool exactly as before the batch (gate-rejected stays are
  quarantined, never merged).

Shards partition space hard: two stays of one physical location that
straddle a cell boundary keep separate candidates.  With 800 m cells
and the 40 m merge threshold the affected boundary band is ~5 % of
area; the parity target of the streaming tier is the *stays* (exact),
not the pool (approximate by design, as is the paper's own bi-weekly
incremental merge).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster import Cluster
from repro.core.candidates import CandidatePool, CandidatePoolBuilder, project_stays
from repro.geo import LocalProjection, Point
from repro.trajectory import StayPoint

#: Side of one shard's square cell, in meters.
SHARD_CELL_M = 800.0


@dataclass
class StagedBatch:
    """Rollback token for one staged (not yet committed) stay batch."""

    stays: list[StayPoint]
    tokens: dict[tuple[int, int], list[Cluster] | None]
    committed: bool = False

    @property
    def n_stays(self) -> int:
        return len(self.stays)


class ShardedPoolMerger:
    """Spatially sharded, gate-aware incremental pool maintenance."""

    def __init__(
        self, projection: LocalProjection, distance_threshold_m: float = 40.0
    ) -> None:
        self.projection = projection
        self.distance_threshold_m = distance_threshold_m
        self._shards: dict[tuple[int, int], CandidatePoolBuilder] = {}
        self._staged: StagedBatch | None = None
        self.n_committed_batches = 0
        self.n_committed_stays = 0

    # -- introspection ---------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def n_candidates(self) -> int:
        return sum(len(b.clusters) for b in self._shards.values())

    # -- two-phase mutation ---------------------------------------------
    def stage(self, stays: list[StayPoint]) -> StagedBatch:
        """Merge a batch into the touched shards, revocably.

        Only one batch may be in flight: the scheduler drains, stages,
        gates, then commits or rolls back before the next tick.
        """
        if self._staged is not None:
            raise RuntimeError("a staged batch is already pending")
        xy = project_stays(stays, self.projection)
        by_cell: dict[tuple[int, int], list[int]] = {}
        for i, cell in enumerate(np.floor(xy / SHARD_CELL_M).astype(np.int64).tolist()):
            by_cell.setdefault(tuple(cell), []).append(i)
        tokens: dict[tuple[int, int], list[Cluster] | None] = {}
        for cell, rows in by_cell.items():
            shard = self._shards.get(cell)
            if shard is None:
                tokens[cell] = None
                shard = self._shards[cell] = CandidatePoolBuilder(
                    self.projection, self.distance_threshold_m
                )
            else:
                tokens[cell] = shard.clusters
            shard.add_batch(xy[rows])
        self._staged = StagedBatch(stays=list(stays), tokens=tokens)
        return self._staged

    def commit(self) -> None:
        """Make the staged batch permanent."""
        if self._staged is None:
            raise RuntimeError("no staged batch to commit")
        self._staged.committed = True
        self.n_committed_batches += 1
        self.n_committed_stays += len(self._staged.stays)
        self._staged = None

    def rollback(self) -> list[StayPoint]:
        """Undo the staged batch; returns the quarantined stays."""
        if self._staged is None:
            raise RuntimeError("no staged batch to roll back")
        for cell, clusters in self._staged.tokens.items():
            if clusters is None:
                del self._shards[cell]
            else:
                self._shards[cell].clusters = clusters
        quarantined = self._staged.stays
        self._staged = None
        return quarantined

    # -- materialization -------------------------------------------------
    def all_clusters(self) -> list[Cluster]:
        out: list[Cluster] = []
        for shard in self._shards.values():
            out.extend(shard.clusters)
        return out

    def build_pool(self) -> CandidatePool:
        """Materialize the merged pool across all shards.

        Same id convention as :meth:`CandidatePoolBuilder.build`:
        west-to-east, so equal cluster sets produce equal pools.
        """
        return CandidatePool.from_clusters(self.all_clusters(), self.projection)

    def snap_locations(
        self,
        addresses: dict[str, Point],
        snap_radius_m: float = 100.0,
        min_weight: float = 2.0,
    ) -> dict[str, Point]:
        """Snap each address to its strongest nearby candidate.

        This is the streaming stand-in for full LocMatcher inference: an
        address moves to the heaviest candidate within ``snap_radius_m``
        of its reported position (the paper's observation that the
        actual delivery location is near, but not at, the annotation).
        Addresses with no candidate of weight >= ``min_weight`` nearby
        are left out — the refresh only moves what the pool supports, and
        the store's ``update`` path keeps prior locations for the rest.
        """
        pool = self.build_pool()
        out: dict[str, Point] = {}
        for address_id, point in addresses.items():
            x, y = self.projection.to_xy(point.lng, point.lat)
            near = [
                c for c in pool.within(float(x), float(y), snap_radius_m)
                if c.weight >= min_weight
            ]
            if not near:
                continue
            best = max(
                near,
                key=lambda c: (c.weight,
                               -((c.x - x) ** 2 + (c.y - y) ** 2)),
            )
            out[address_id] = Point(best.lng, best.lat)
        return out


__all__ = ["ShardedPoolMerger", "StagedBatch"]
