"""Stage 3+4 of DLInfMA: profiles, candidate retrieval and features.

Everything here follows from one relation: which trip visited which
candidate, and when.  :class:`FeatureExtractor` assigns each stay to its
nearest candidate once; the location profiles (Section III-B) and the
address and building examples are all read off that one candidate column.

Retrieval (Section III-C): within each trip involving an address, only
candidates whose stay time is no later than the recorded delivery time can
be the delivery location; the address's candidate set is the union over its
trips.

Features (Section IV-A):

- matching: trip coverage ``TC`` (Eq. 1), location commonality ``LC``
  (Eq. 2, building-level; the address-level variant is kept for the
  DLInfMA-LC_addr ablation), distance to the geocoded location;
- profile: average stay duration, number of couriers, 24-bin visit-time
  distribution;
- address: number of deliveries, POI category.

Addresses and buildings (the paper's building-level adaptation) are both
groups of (trip, time bound) rows, and go through one kernel,
:meth:`FeatureExtractor._visited`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.candidates import CandidatePool, LocationProfile, TIME_BINS, project_stays
from repro.geo import Point
from repro.trajectory import Address, DeliveryTrip, StayPoint

# Full feature-matrix layout (per candidate row).
COL_TC = 0
COL_LC_BUILDING = 1
COL_LC_ADDRESS = 2
COL_DIST = 3
COL_DURATION = 4
COL_COURIERS = 5
HIST_START = 6
N_FEATURES = HIST_START + TIME_BINS


@dataclass(frozen=True)
class FeatureConfig:
    """Which feature families feed the selector (for ablations)."""

    use_tc: bool = True
    use_lc: bool = True
    use_dist: bool = True
    use_profile: bool = True
    use_address: bool = True
    lc_mode: str = "building"

    def __post_init__(self) -> None:
        if self.lc_mode not in ("building", "address"):
            raise ValueError("lc_mode must be 'building' or 'address'")

    def scalar_columns(self) -> list[int]:
        """Indices of the scalar candidate features to use."""
        cols: list[int] = []
        if self.use_tc:
            cols.append(COL_TC)
        if self.use_lc:
            cols.append(COL_LC_BUILDING if self.lc_mode == "building" else COL_LC_ADDRESS)
        if self.use_dist:
            cols.append(COL_DIST)
        if self.use_profile:
            cols.extend([COL_DURATION, COL_COURIERS])
        return cols

    def hist_columns(self) -> list[int]:
        """Indices of the time-distribution bins (empty when unused)."""
        if not self.use_profile:
            return []
        return list(range(HIST_START, HIST_START + TIME_BINS))


@dataclass
class AddressExample:
    """One address with its retrieved candidates and features."""

    address_id: str
    candidate_ids: list[int]
    features: np.ndarray  # (n_candidates, N_FEATURES)
    n_deliveries: int
    poi_category: int
    label: int | None = None  # index into candidate_ids (set for train/val)

    @property
    def n_candidates(self) -> int:
        return len(self.candidate_ids)


#: Prefix distinguishing building pseudo-examples from address examples.
BUILDING_PREFIX = "B::"


@dataclass(frozen=True)
class _Groups:
    """Addresses or buildings as ``(group, trip, time bound)`` rows.

    One row per (group, trip) pair; ``bound`` is the latest recorded
    delivery time of the group in that trip (``-inf`` without a waybill).
    """

    names: list[str]
    group: np.ndarray
    trip: np.ndarray
    bound: np.ndarray
    #: Each group's building, as a code into the building groups.
    building: np.ndarray

    @property
    def n_trips(self) -> np.ndarray:
        """Trips per group (distinct, as trip ids are)."""
        return np.bincount(self.group, minlength=len(self.names))


class FeatureExtractor:
    """Profiles and examples of one pool, from one stay assignment.

    Work happens in pool row positions (the sorted-id order of
    :attr:`CandidatePool.ids`); ids are read back only for the examples.
    Trip ids are taken to be unique.
    """

    def __init__(
        self,
        trips: list[DeliveryTrip],
        stay_points_by_trip: dict[str, list[StayPoint]],
        pool: CandidatePool,
        addresses: dict[str, Address],
    ) -> None:
        self.trips = {t.trip_id: t for t in trips}
        self.pool = pool
        self.addresses = addresses
        self.n_trips = len(trips)
        # Trip codes: the trips, then stay-only keys (which still count
        # toward the trips passing a candidate).
        codes = {trip_id: i for i, trip_id in enumerate(self.trips)}
        for trip_id in stay_points_by_trip:
            codes.setdefault(trip_id, len(codes))
        visits = stay_points_by_trip if len(pool) else {}
        stays = [sp for v in visits.values() for sp in v]
        stay_trip = np.repeat(
            np.array([codes[t] for t in visits], dtype=np.int64),
            [len(v) for v in visits.values()],
        )
        # The one stay-to-candidate assignment.
        position = np.zeros(0, dtype=np.int64)
        if stays:
            nearest = pool.nearest_ids(project_stays(stays, pool.projection))
            position = np.searchsorted(pool.ids, nearest)
        t = np.array([sp.t for sp in stays], dtype=float)
        self._width = max(len(pool), 1)
        self._profile_rows, self.profiles = _profiles(stays, position, t, pool)

        # (trip, candidate) pairs, each with its earliest visit, by trip.
        order = np.lexsort((t, position, stay_trip))
        trip, position, t = stay_trip[order], position[order], t[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (trip[1:] != trip[:-1]) | (position[1:] != position[:-1])
        self._pair_trip = trip[first]
        self._pair_position = position[first]
        self._pair_t = t[first]
        self._through = np.bincount(self._pair_position, minlength=len(pool))

        self.delivered = sorted({a for trip in trips for a in trip.address_ids})
        self._address_groups, self._building_groups = self._groups(trips, codes)
        geocodes = [self.addresses[a].geocode for a in self._address_groups.names]
        x, y = pool.projection.to_xy(
            np.array([g.lng for g in geocodes], dtype=float),
            np.array([g.lat for g in geocodes], dtype=float),
        )
        self._geocode_xy = np.column_stack([x, y])

    def _groups(self, trips: list[DeliveryTrip], codes: dict[str, int]) -> tuple[_Groups, _Groups]:
        known = [a for a in self.delivered if a in self.addresses]
        index = {a: i for i, a in enumerate(known)}
        rows = []
        for trip in trips:
            bound: dict[str, float] = {}
            for w in trip.waybills:
                bound[w.address_id] = max(w.t_delivered, bound.get(w.address_id, -np.inf))
            code = codes[trip.trip_id]
            rows.extend(
                (index[a], code, bound.get(a, -np.inf)) for a in trip.address_ids if a in index
            )
        table = np.array(rows, dtype=float).reshape(-1, 3)
        group, trip, bound = table[:, 0].astype(np.int64), table[:, 1].astype(np.int64), table[:, 2]
        buildings = sorted({self.addresses[a].building_id for a in known})
        building_index = {b: i for i, b in enumerate(buildings)}
        building = np.array(
            [building_index[self.addresses[a].building_id] for a in known], dtype=np.int64
        )
        # A building's row per trip is bounded by its latest member waybill.
        width = max(len(codes), 1)
        keys, inverse = np.unique(building[group] * width + trip, return_inverse=True)
        building_bound = np.full(len(keys), -np.inf)
        np.maximum.at(building_bound, inverse, bound)
        return (
            _Groups(known, group, trip, bound, building),
            _Groups(buildings, keys // width, keys % width, building_bound,
                    np.arange(len(buildings))),
        )

    # ------------------------------------------------------------------
    def _visited(self, groups: _Groups) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The candidates each group's trips visit.

        Returns sorted ``group * width + position`` keys, how many of the
        group's trips visit each candidate, and whether any of those visits
        falls within its row's time bound (retrieval, Section III-C).
        """
        lo = np.searchsorted(self._pair_trip, groups.trip, "left")
        n = np.searchsorted(self._pair_trip, groups.trip, "right") - lo
        row = np.repeat(np.arange(len(n)), n)
        pair = np.arange(len(row)) + np.repeat(lo - np.cumsum(n) + n, n)
        keys, inverse, counts = np.unique(
            groups.group[row] * self._width + self._pair_position[pair],
            return_inverse=True, return_counts=True,
        )
        retrieved = np.zeros(len(keys), dtype=bool)
        retrieved[inverse[self._pair_t[pair] <= groups.bound[row]]] = True
        return keys, counts, retrieved

    def _examples(
        self,
        names: list[str],
        groups: _Groups,
        xy: np.ndarray,
        poi: list[int],
        prefix: str = "",
    ) -> dict[str, AddressExample]:
        """Examples of the named groups that retrieve any candidate."""
        keys, in_group, retrieved = self._visited(groups)
        building_keys, in_building, _ = (
            (keys, in_group, retrieved) if groups is self._building_groups
            else self._visited(self._building_groups)
        )
        keys, in_group = keys[retrieved], in_group[retrieved]
        group, position = np.divmod(keys, self._width)
        building = groups.building[group]
        in_building = in_building[
            np.searchsorted(building_keys, building * self._width + position)
        ]
        through = self._through[position]
        n_trips = groups.n_trips
        n_group = n_trips[group]
        n_building = self._building_groups.n_trips[building]

        # The profile columns come with the rows; the matching ones go in.
        features = self._profile_rows[position]
        features[:, COL_TC] = in_group / n_group
        features[:, COL_LC_BUILDING] = _share(through - in_building, self.n_trips - n_building)
        features[:, COL_LC_ADDRESS] = _share(through - in_group, self.n_trips - n_group)
        features[:, COL_DIST] = np.hypot(
            self.pool.x[position] - xy[group, 0], self.pool.y[position] - xy[group, 1]
        )

        ids = self.pool.ids[position].tolist()
        bounds = np.searchsorted(group, np.arange(len(groups.names) + 1)).tolist()
        n_trips = n_trips.tolist()
        index = {name: i for i, name in enumerate(groups.names)}
        out: dict[str, AddressExample] = {}
        for name in names:
            code = index.get(name)
            if code is None or bounds[code] == bounds[code + 1]:
                continue
            lo, hi = bounds[code], bounds[code + 1]
            out[name] = AddressExample(
                address_id=prefix + name,
                candidate_ids=ids[lo:hi],
                features=features[lo:hi],
                n_deliveries=n_trips[code],
                poi_category=poi[code],
            )
        return out

    def build_examples(self, address_ids: list[str]) -> dict[str, AddressExample]:
        """Examples for many addresses (skipping ones with no candidates)."""
        poi = [self.addresses[a].poi_category for a in self._address_groups.names]
        return self._examples(address_ids, self._address_groups, self._geocode_xy, poi)

    def build_building_examples(self, building_ids: list[str]) -> dict[str, AddressExample]:
        """Building-level pseudo-examples, keyed by building id.

        A building's distance feature is to the centroid of its delivered
        members' geocodes, its POI category their most common one.
        """
        members_of = self._address_groups
        order = np.argsort(members_of.building, kind="stable")
        bounds = np.searchsorted(
            members_of.building[order], np.arange(len(self._building_groups.names) + 1)
        )
        xy = np.empty((len(bounds) - 1, 2))
        poi = []
        for b in range(len(bounds) - 1):
            members = order[bounds[b]:bounds[b + 1]]
            xy[b] = self._geocode_xy[members].mean(axis=0)
            categories = (self.addresses[members_of.names[m]].poi_category for m in members)
            poi.append(Counter(categories).most_common(1)[0][0])
        return self._examples(
            building_ids, self._building_groups, xy, poi, prefix=BUILDING_PREFIX
        )

    # ------------------------------------------------------------------
    def label_example(self, example: AddressExample, true_location: Point) -> None:
        """Set the positive label as the candidate nearest the ground truth
        (how the paper derives supervised labels, Section V-A)."""
        tx, ty = self.pool.projection.to_xy(true_location.lng, true_location.lat)
        dists = [
            np.hypot(self.pool.by_id[cid].x - tx, self.pool.by_id[cid].y - ty)
            for cid in example.candidate_ids
        ]
        example.label = int(np.argmin(dists))

    def candidate_point(self, candidate_id: int) -> Point:
        """The lng/lat of a candidate."""
        candidate = self.pool.by_id[candidate_id]
        return Point(candidate.lng, candidate.lat)


def _share(part: np.ndarray, whole: np.ndarray) -> np.ndarray:
    """``part / whole`` where ``whole > 0``, else 0."""
    return np.divide(part, whole, out=np.zeros(part.shape), where=whole > 0)


def _profiles(
    stays: list[StayPoint], position: np.ndarray, t: np.ndarray, pool: CandidatePool
) -> tuple[np.ndarray, dict[int, LocationProfile]]:
    """The three location profiles per candidate (Section III-B).

    Returns one feature row per pool row position, its profile columns
    filled and the rest zero, and the same as :class:`LocationProfile` by id.
    """
    n = len(pool)
    order = np.argsort(position, kind="stable")
    durations = np.array([sp.duration_s for sp in stays], dtype=float)[order]
    bounds = np.searchsorted(position[order], np.arange(n + 1))
    rows = np.zeros((n, N_FEATURES))
    # np.mean per candidate, over its stays in stay order: a grouped sum
    # would add in another order and can differ in the last bit.
    for p in np.flatnonzero(np.diff(bounds)):
        rows[p, COL_DURATION] = np.mean(durations[bounds[p]:bounds[p + 1]])
    courier_codes: dict[str, int] = {}
    couriers = np.array(
        [courier_codes.setdefault(sp.courier_id, len(courier_codes)) for sp in stays],
        dtype=np.int64,
    )
    width = max(len(courier_codes), 1)
    pairs = np.unique(position * width + couriers)
    rows[:, COL_COURIERS] = np.bincount(pairs // width, minlength=n)
    hour = ((t % 86_400.0) // 3_600.0).astype(np.int64) % TIME_BINS
    hist = np.bincount(position * TIME_BINS + hour, minlength=n * TIME_BINS).reshape(n, TIME_BINS)
    total = hist.sum(axis=1, keepdims=True)
    rows[:, HIST_START:] = np.divide(hist, total, out=np.zeros(hist.shape), where=total > 0)
    ids = [c.candidate_id for c in pool.candidates]
    profiles = {
        cid: LocationProfile(
            avg_duration_s=float(rows[p, COL_DURATION]),
            n_couriers=int(rows[p, COL_COURIERS]),
            time_hist=rows[p, HIST_START:],
        )
        for cid, p in zip(ids, np.searchsorted(pool.ids, ids).tolist())
    }
    return rows, profiles
