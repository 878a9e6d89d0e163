"""Stage 3+4 of DLInfMA: candidate retrieval and feature extraction.

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
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.core.candidates import (
    CandidatePool,
    LocationProfile,
    TIME_BINS,
    assign_stay_points,
)
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


@dataclass
class TripVisit:
    """One candidate visit inside a trip."""

    candidate_id: int
    t: float
    duration_s: float


class FeatureExtractor:
    """Computes per-address candidate sets and features from a pool."""

    def __init__(
        self,
        trips: list[DeliveryTrip],
        stay_points_by_trip: dict[str, list[StayPoint]],
        pool: CandidatePool,
        profiles: dict[int, LocationProfile],
        addresses: dict[str, Address],
    ) -> None:
        self.trips = {t.trip_id: t for t in trips}
        self.pool = pool
        self.profiles = profiles
        self.addresses = addresses
        self.visits_by_trip = self._map_visits(stay_points_by_trip)
        self.candidates_by_trip = {
            trip_id: {v.candidate_id for v in visits}
            for trip_id, visits in self.visits_by_trip.items()
        }
        self.trips_by_address: dict[str, list[str]] = defaultdict(list)
        self.trips_by_building: dict[str, set[str]] = defaultdict(set)
        for trip in trips:
            for address_id in sorted(trip.address_ids):
                self.trips_by_address[address_id].append(trip.trip_id)
                address = addresses.get(address_id)
                if address is not None:
                    self.trips_by_building[address.building_id].add(trip.trip_id)
        # Reverse index: candidate -> trips passing through it.
        self.trips_by_candidate: dict[int, set[str]] = defaultdict(set)
        for trip_id, cids in self.candidates_by_trip.items():
            for cid in cids:
                self.trips_by_candidate[cid].add(trip_id)
        self.n_trips = len(trips)
        self._geo_xy: dict[str, tuple[float, float]] = {}

    def _map_visits(
        self, stay_points_by_trip: dict[str, list[StayPoint]]
    ) -> dict[str, list[TripVisit]]:
        # One assignment over every trip's stays; zip takes each trip's
        # share of the ids in order.
        flat = [sp for stays in stay_points_by_trip.values() for sp in stays]
        cids = iter(assign_stay_points(flat, self.pool))
        out: dict[str, list[TripVisit]] = {}
        for trip_id, stays in stay_points_by_trip.items():
            out[trip_id] = [
                TripVisit(candidate_id=cid, t=sp.t, duration_s=sp.duration_s)
                for sp, cid in zip(stays, cids)
                if cid is not None
            ]
        return out

    # ------------------------------------------------------------------
    def retrieve_candidates(self, address_id: str) -> list[int]:
        """Union over trips of time-bounded candidate visits (Sec III-C)."""
        found: set[int] = set()
        for trip_id in self.trips_by_address.get(address_id, ()):
            trip = self.trips[trip_id]
            bound = max(
                (w.t_delivered for w in trip.waybills if w.address_id == address_id),
                default=None,
            )
            if bound is None:
                continue
            for visit in self.visits_by_trip.get(trip_id, ()):
                if visit.t <= bound:
                    found.add(visit.candidate_id)
        return sorted(found)

    def _geocode_xy(self, address_id: str) -> tuple[float, float]:
        if address_id not in self._geo_xy:
            geocode = self.addresses[address_id].geocode
            self._geo_xy[address_id] = self.pool.projection.to_xy(geocode.lng, geocode.lat)
        return self._geo_xy[address_id]

    def build_example(self, address_id: str) -> AddressExample | None:
        """Features for one address; None when it has no candidates."""
        if address_id not in self.addresses:
            return None
        candidate_ids = self.retrieve_candidates(address_id)
        if not candidate_ids:
            return None
        address = self.addresses[address_id]
        involved = self.trips_by_address[address_id]
        involved_set = set(involved)
        building_trips = self.trips_by_building.get(address.building_id, set())
        n_other_building = self.n_trips - len(building_trips)
        n_other_address = self.n_trips - len(involved_set)
        gx, gy = self._geocode_xy(address_id)

        features = np.zeros((len(candidate_ids), N_FEATURES))
        for row, cid in enumerate(candidate_ids):
            trips_through = self.trips_by_candidate.get(cid, set())
            tc = len(trips_through & involved_set) / len(involved_set)
            lc_building = (
                len(trips_through - building_trips) / n_other_building
                if n_other_building > 0
                else 0.0
            )
            lc_address = (
                len(trips_through - involved_set) / n_other_address
                if n_other_address > 0
                else 0.0
            )
            candidate = self.pool.by_id[cid]
            dist = float(np.hypot(candidate.x - gx, candidate.y - gy))
            profile = self.profiles[cid]
            features[row, COL_TC] = tc
            features[row, COL_LC_BUILDING] = lc_building
            features[row, COL_LC_ADDRESS] = lc_address
            features[row, COL_DIST] = dist
            features[row, COL_DURATION] = profile.avg_duration_s
            features[row, COL_COURIERS] = profile.n_couriers
            features[row, HIST_START:] = profile.time_hist
        return AddressExample(
            address_id=address_id,
            candidate_ids=candidate_ids,
            features=features,
            n_deliveries=len(involved),
            poi_category=address.poi_category,
        )

    def build_examples(self, address_ids: list[str]) -> dict[str, AddressExample]:
        """Examples for many addresses (skipping ones with no candidates)."""
        out: dict[str, AddressExample] = {}
        for address_id in address_ids:
            example = self.build_example(address_id)
            if example is not None:
                out[address_id] = example
        return out

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
