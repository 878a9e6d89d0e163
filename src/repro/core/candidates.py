"""Stage 2 of DLInfMA: candidate-pool construction and location profiles.

Stay points are clustered with threshold centroid-linkage hierarchical
clustering (``D = 40 m`` by default); each cluster centroid becomes a
*location candidate*.  For efficiency the pool is built in bi-weekly
batches and merged incrementally, exactly as Section III-B describes.

Each candidate also gets a *profile* (:class:`LocationProfile`) from the
stay points assigned to it: average stay duration, number of distinct
couriers, and a 24-bin hour-of-day visit distribution (Section III-B's
three profiles).  :class:`~repro.core.features.FeatureExtractor` assigns
the stays and computes the profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster import Cluster, grid_merge, merge_weighted_clusters
from repro.geo import LocalProjection
from repro.trajectory import StayPoint

#: Number of hour-of-day bins in the visit-time distribution profile.
TIME_BINS = 24

#: Section III-B's batch: stays are clustered per bi-weekly period.
BATCH_PERIOD_S = 14 * 86_400.0


@dataclass(frozen=True)
class LocationCandidate:
    """One entry of the candidate pool (projected meters + lng/lat)."""

    candidate_id: int
    x: float
    y: float
    lng: float
    lat: float
    weight: float


@dataclass(frozen=True)
class LocationProfile:
    """Aggregate behaviour of couriers at a candidate location."""

    avg_duration_s: float
    n_couriers: int
    time_hist: np.ndarray  # shape (TIME_BINS,), sums to 1 when any visits

    def as_vector(self) -> np.ndarray:
        """``[avg_duration_s, n_couriers, *time_hist]``."""
        return np.concatenate([[self.avg_duration_s, float(self.n_couriers)], self.time_hist])


#: Distances computed per block by :meth:`CandidatePool.nearest_ids`: the
#: block's scratch matrices stay near 256 KB however many points are asked.
NEAREST_BLOCK = 1 << 15


class CandidatePool:
    """The pool of location candidates with nearest and radius lookups."""

    def __init__(self, candidates: list[LocationCandidate], projection: LocalProjection) -> None:
        self.candidates = list(candidates)
        self.projection = projection
        self.by_id = {c.candidate_id: c for c in self.candidates}
        # Columns sorted by id, so argmin's first minimum is the lowest id
        # on a tie; an index into them is a candidate's row position.
        ordered = sorted(self.candidates, key=lambda c: c.candidate_id)
        self.ids = np.array([c.candidate_id for c in ordered], dtype=np.int64)
        self.x = np.array([c.x for c in ordered], dtype=float)
        self.y = np.array([c.y for c in ordered], dtype=float)

    @classmethod
    def from_clusters(
        cls, clusters: list[Cluster], projection: LocalProjection
    ) -> "CandidatePool":
        """Materialize clusters as a pool, ids assigned west to east by (x, y)."""
        ordered = sorted(clusters, key=lambda c: (c.x, c.y))
        lng, lat = projection.to_lnglat(
            np.array([c.x for c in ordered], dtype=float),
            np.array([c.y for c in ordered], dtype=float),
        )
        candidates = [
            LocationCandidate(
                candidate_id=i, x=c.x, y=c.y,
                lng=float(lng[i]), lat=float(lat[i]), weight=c.weight,
            )
            for i, c in enumerate(ordered)
        ]
        return cls(candidates, projection)

    def __len__(self) -> int:
        return len(self.candidates)

    def nearest_ids(self, xy: np.ndarray) -> np.ndarray:
        """Nearest candidate id per row of an ``(n, 2)`` meter array.

        Exact: squared distances in float64, ties to the lowest id.  Rows
        go in blocks of about ``NEAREST_BLOCK`` distances (one row each
        when the pool is larger), so memory stays flat in the number of
        points.
        """
        if not self.candidates:
            raise ValueError("an empty pool has no nearest candidate")
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        out = np.empty(len(xy), dtype=np.int64)
        step = max(1, NEAREST_BLOCK // len(self.ids))
        for lo in range(0, len(xy), step):
            px = xy[lo:lo + step, 0:1]
            py = xy[lo:lo + step, 1:2]
            d2 = (self.x - px) ** 2 + (self.y - py) ** 2
            out[lo:lo + step] = self.ids[d2.argmin(axis=1)]
        return out

    def nearest(self, x: float, y: float) -> LocationCandidate | None:
        """The candidate closest to meter coordinates (x, y)."""
        if not self.candidates:
            return None
        return self.by_id[int(self.nearest_ids(np.array([x, y]))[0])]

    def within(self, x: float, y: float, radius_m: float) -> list[LocationCandidate]:
        """Candidates within ``radius_m`` (inclusive) of (x, y), by id."""
        inside = (self.x - x) ** 2 + (self.y - y) ** 2 <= radius_m * radius_m
        return [self.by_id[int(cid)] for cid in self.ids[inside]]


class CandidatePoolBuilder:
    """Accumulates stay-point batches into a continuously valid pool.

    The first batch is clustered; each later one is merged into the
    clusters so far, so all centroids stay >= ``distance_threshold_m``
    apart after every batch.
    """

    def __init__(
        self, projection: LocalProjection, distance_threshold_m: float = 40.0
    ) -> None:
        if distance_threshold_m <= 0:
            raise ValueError("distance_threshold_m must be positive")
        self.projection = projection
        self.distance_threshold_m = distance_threshold_m
        # Replaced, never mutated, by each batch: a saved reference is a
        # complete snapshot (the stream tier's rollback relies on this).
        self.clusters: list[Cluster] = []

    @classmethod
    def from_pool(
        cls, pool: CandidatePool, distance_threshold_m: float = 40.0
    ) -> "CandidatePoolBuilder":
        """Resume incremental building from a materialized pool.

        Merging only ever consults centroids and weights, so a pool
        produced by a previous builder seeds a builder that behaves
        exactly like the one that created it.
        """
        builder = cls(pool.projection, distance_threshold_m)
        builder.clusters = [
            Cluster(x=c.x, y=c.y, weight=c.weight, members=[]) for c in pool.candidates
        ]
        return builder

    def add_batch(self, xy: np.ndarray) -> int:
        """Cluster one batch of stays and merge it into the pool.

        ``xy`` holds the stays' projected meters, one ``(x, y)`` row each
        (:func:`project_stays`).  Returns the current number of
        candidates; an empty batch changes nothing.
        """
        if len(xy):
            self.clusters = merge_weighted_clusters(self.clusters, xy, self.distance_threshold_m)
        return len(self.clusters)

    def build(self) -> CandidatePool:
        """Materialize the current pool (ids assigned west-to-east)."""
        return CandidatePool.from_clusters(self.clusters, self.projection)


def build_candidate_pool(
    stay_points: list[StayPoint],
    projection: LocalProjection,
    distance_threshold_m: float = 40.0,
    method: str = "hierarchical",
) -> CandidatePool:
    """Cluster stay points into a candidate pool.

    ``method`` selects the clustering: ``"hierarchical"`` (ours: each
    ``BATCH_PERIOD_S`` period's stays, in period order, go through one
    :class:`CandidatePoolBuilder`) or ``"grid"`` (the DLInfMA-Grid variant,
    plain D x D binning).
    """
    if method not in ("hierarchical", "grid"):
        raise ValueError(f"unknown pool construction method: {method!r}")
    if not stay_points:
        return CandidatePool([], projection)
    xy = project_stays(stay_points, projection)
    if method == "grid":
        return CandidatePool.from_clusters(grid_merge(xy, distance_threshold_m), projection)
    t = np.array([sp.t for sp in stay_points])
    periods = ((t - t.min()) // BATCH_PERIOD_S).astype(np.int64)
    builder = CandidatePoolBuilder(projection, distance_threshold_m)
    for period in np.unique(periods):
        builder.add_batch(xy[periods == period])
    return builder.build()


def project_stays(stay_points: list[StayPoint], projection: LocalProjection) -> np.ndarray:
    """The stays' projected meters, one ``(x, y)`` row each."""
    lng = np.array([sp.lng for sp in stay_points])
    lat = np.array([sp.lat for sp in stay_points])
    x, y = projection.to_xy(lng, lat)
    return np.column_stack([np.atleast_1d(x), np.atleast_1d(y)])
