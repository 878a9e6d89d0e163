"""Stage 2 of DLInfMA: candidate-pool construction and location profiles.

Stay points are clustered with threshold centroid-linkage hierarchical
clustering (``D = 40 m`` by default); each cluster centroid becomes a
*location candidate*.  For efficiency the pool is built in bi-weekly
batches and merged incrementally, exactly as Section III-B describes.

Each candidate also gets a *profile* from the stay points assigned to it:
average stay duration, number of distinct couriers, and a 24-bin
hour-of-day visit distribution (Section III-B's three profiles).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.cluster import Cluster, grid_merge, hierarchical_cluster, merge_weighted_clusters
from repro.geo import GridIndex, LocalProjection
from repro.trajectory import StayPoint

#: Number of hour-of-day bins in the visit-time distribution profile.
TIME_BINS = 24


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
        # Sorted by id, so argmin's first minimum is the lowest id on a tie.
        ordered = sorted(self.candidates, key=lambda c: c.candidate_id)
        self._ids = np.array([c.candidate_id for c in ordered], dtype=np.int64)
        self._x = np.array([c.x for c in ordered], dtype=float)
        self._y = np.array([c.y for c in ordered], dtype=float)
        self._index = GridIndex(cell_size_m=60.0)
        for c in self.candidates:
            self._index.insert(c.candidate_id, c.x, c.y)

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
        step = max(1, NEAREST_BLOCK // len(self._ids))
        for lo in range(0, len(xy), step):
            px = xy[lo:lo + step, 0:1]
            py = xy[lo:lo + step, 1:2]
            d2 = (self._x - px) ** 2 + (self._y - py) ** 2
            out[lo:lo + step] = self._ids[d2.argmin(axis=1)]
        return out

    def nearest(self, x: float, y: float) -> LocationCandidate | None:
        """The candidate closest to meter coordinates (x, y)."""
        if not self.candidates:
            return None
        return self.by_id[int(self.nearest_ids(np.array([x, y]))[0])]

    def within(self, x: float, y: float, radius_m: float) -> list[LocationCandidate]:
        """Candidates within ``radius_m`` of (x, y)."""
        return [self.by_id[cid] for cid in self._index.query_radius(x, y, radius_m)]


def build_candidate_pool(
    stay_points: list[StayPoint],
    projection: LocalProjection,
    distance_threshold_m: float = 40.0,
    batch_period_s: float = 14 * 86_400.0,
    method: str = "hierarchical",
) -> CandidatePool:
    """Cluster stay points into a candidate pool.

    ``method`` selects the clustering: ``"hierarchical"`` (ours, built in
    bi-weekly batches then merged) or ``"grid"`` (the DLInfMA-Grid variant,
    plain D x D binning).
    """
    if method not in ("hierarchical", "grid"):
        raise ValueError(f"unknown pool construction method: {method!r}")
    if not stay_points:
        return CandidatePool([], projection)

    coords = _project(stay_points, projection)
    if method == "grid":
        clusters = grid_merge(coords, distance_threshold_m)
    else:
        clusters = _biweekly_hierarchical(
            stay_points, coords, distance_threshold_m, batch_period_s
        )
    candidates = []
    for i, cluster in enumerate(sorted(clusters, key=lambda c: (c.x, c.y))):
        lng, lat = projection.to_lnglat(cluster.x, cluster.y)
        candidates.append(
            LocationCandidate(
                candidate_id=i,
                x=cluster.x,
                y=cluster.y,
                lng=float(lng),
                lat=float(lat),
                weight=cluster.weight,
            )
        )
    return CandidatePool(candidates, projection)


def _project(stay_points: list[StayPoint], projection: LocalProjection) -> np.ndarray:
    lng = np.array([sp.lng for sp in stay_points])
    lat = np.array([sp.lat for sp in stay_points])
    x, y = projection.to_xy(lng, lat)
    return np.column_stack([np.atleast_1d(x), np.atleast_1d(y)])


def _biweekly_hierarchical(
    stay_points: list[StayPoint],
    coords: np.ndarray,
    threshold: float,
    period_s: float,
) -> list[Cluster]:
    """Cluster per bi-weekly batch, merging each batch into the pool."""
    t0 = min(sp.t for sp in stay_points)
    batches: dict[int, list[int]] = defaultdict(list)
    for i, sp in enumerate(stay_points):
        batches[int((sp.t - t0) // period_s)].append(i)
    pool: list[Cluster] = []
    for period in sorted(batches):
        batch_coords = coords[batches[period]]
        if pool:
            pool = merge_weighted_clusters(pool, batch_coords, threshold)
        else:
            pool = hierarchical_cluster(batch_coords, threshold)
    return pool


def candidate_id_map(old_pool: CandidatePool, new_pool: CandidatePool) -> dict[int, int]:
    """Old-id -> new-id for candidates whose centroid did not move.

    Ids are reassigned west-to-east on every pool build, so incremental
    merges invalidate raw ids even for untouched clusters; coordinates are
    the stable identity (a merge recomputes a centroid, so any absorbed
    cluster drops out of this map — exactly the candidates whose features
    must be rebuilt rather than remapped).
    """
    by_coord = {
        (round(c.x, 6), round(c.y, 6)): c.candidate_id for c in new_pool.candidates
    }
    out: dict[int, int] = {}
    for c in old_pool.candidates:
        new_id = by_coord.get((round(c.x, 6), round(c.y, 6)))
        if new_id is not None:
            out[c.candidate_id] = new_id
    return out


def assign_stay_points(
    stay_points: list[StayPoint], pool: CandidatePool
) -> list[int | None]:
    """Nearest candidate id per stay point (None when the pool is empty)."""
    if len(pool) == 0:
        return [None] * len(stay_points)
    return pool.nearest_ids(_project(stay_points, pool.projection)).tolist()


def build_profiles(
    stay_points: list[StayPoint], pool: CandidatePool
) -> dict[int, LocationProfile]:
    """Compute the three location profiles per candidate (Section III-B)."""
    durations: dict[int, list[float]] = defaultdict(list)
    couriers: dict[int, set[str]] = defaultdict(set)
    hists: dict[int, np.ndarray] = defaultdict(lambda: np.zeros(TIME_BINS))
    for sp, cid in zip(stay_points, assign_stay_points(stay_points, pool)):
        if cid is None:
            continue
        durations[cid].append(sp.duration_s)
        couriers[cid].add(sp.courier_id)
        hour = int((sp.t % 86_400.0) // 3_600.0) % TIME_BINS
        hists[cid][hour] += 1.0
    profiles: dict[int, LocationProfile] = {}
    for candidate in pool.candidates:
        cid = candidate.candidate_id
        ds = durations.get(cid, [])
        hist = hists[cid] if cid in hists else np.zeros(TIME_BINS)
        total = hist.sum()
        profiles[cid] = LocationProfile(
            avg_duration_s=float(np.mean(ds)) if ds else 0.0,
            n_couriers=len(couriers.get(cid, ())),
            time_hist=hist / total if total > 0 else hist,
        )
    return profiles
