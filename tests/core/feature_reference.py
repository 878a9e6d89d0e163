"""Reference profiles and examples: the per-candidate loops, written out.

This module keeps the original loop-and-set implementation of location
profiles (Section III-B), time-bounded retrieval (Section III-C) and the
TC / LC / distance features (Section IV-A, Eq. 1-2), for addresses and
for buildings.  ``repro.core`` computes the same things from one
stay-to-candidate assignment with array code; the parity tests and the
scale-3 parity script below assert both give bit-equal results.

Run as a script for the large-corpus check (not part of tier 1)::

    PYTHONPATH=src:. python -m tests.core.feature_reference --scale 3
"""

from __future__ import annotations

import argparse
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from repro.core.building import infer_building_locations
from repro.core.candidates import TIME_BINS, LocationProfile, project_stays
from repro.core.features import (
    AddressExample,
    COL_COURIERS,
    COL_DIST,
    COL_DURATION,
    COL_LC_ADDRESS,
    COL_LC_BUILDING,
    COL_TC,
    HIST_START,
    N_FEATURES,
)
from repro.core.pipeline import DLInfMAConfig, build_artifacts

BUILDING_PREFIX = "B::"


# ----------------------------------------------------------------------
# Profiles
# ----------------------------------------------------------------------
def assign_stay_points(stay_points, pool):
    """Nearest candidate id per stay point (None when the pool is empty)."""
    if len(pool) == 0:
        return [None] * len(stay_points)
    return pool.nearest_ids(project_stays(stay_points, pool.projection)).tolist()


def build_profiles(stay_points, pool):
    """The three location profiles per candidate (Section III-B)."""
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


# ----------------------------------------------------------------------
# Address examples
# ----------------------------------------------------------------------
@dataclass
class TripVisit:
    """One candidate visit inside a trip."""

    candidate_id: int
    t: float
    duration_s: float


class ReferenceExtractor:
    """Per-address candidate sets and features over dict-of-set indexes."""

    def __init__(self, trips, stay_points_by_trip, pool, profiles, addresses):
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
        self.trips_by_candidate: dict[int, set[str]] = defaultdict(set)
        for trip_id, cids in self.candidates_by_trip.items():
            for cid in cids:
                self.trips_by_candidate[cid].add(trip_id)
        self.n_trips = len(trips)
        self._geo_xy: dict[str, tuple[float, float]] = {}

    def _map_visits(self, stay_points_by_trip):
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

    def retrieve_candidates(self, address_id):
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

    def _geocode_xy(self, address_id):
        if address_id not in self._geo_xy:
            geocode = self.addresses[address_id].geocode
            self._geo_xy[address_id] = self.pool.projection.to_xy(geocode.lng, geocode.lat)
        return self._geo_xy[address_id]

    def build_example(self, address_id):
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

    def build_examples(self, address_ids):
        out = {}
        for address_id in address_ids:
            example = self.build_example(address_id)
            if example is not None:
                out[address_id] = example
        return out


# ----------------------------------------------------------------------
# Building examples
# ----------------------------------------------------------------------
def building_members(extractor, building_id):
    """Delivered addresses belonging to ``building_id``."""
    return sorted(
        address_id
        for address_id, address in extractor.addresses.items()
        if address.building_id == building_id
        and address_id in extractor.trips_by_address
    )


def retrieve_building_candidates(extractor, building_id):
    """Union of time-bounded candidate visits over the building's trips."""
    members = set(building_members(extractor, building_id))
    if not members:
        return []
    found: set[int] = set()
    for trip_id in sorted(extractor.trips_by_building.get(building_id, ())):
        trip = extractor.trips[trip_id]
        bound = max(
            (w.t_delivered for w in trip.waybills if w.address_id in members),
            default=None,
        )
        if bound is None:
            continue
        for visit in extractor.visits_by_trip.get(trip_id, ()):
            if visit.t <= bound:
                found.add(visit.candidate_id)
    return sorted(found)


def build_building_example(extractor, building_id):
    """A building-level pseudo-example compatible with any selector."""
    members = building_members(extractor, building_id)
    if not members:
        return None
    candidate_ids = retrieve_building_candidates(extractor, building_id)
    if not candidate_ids:
        return None
    building_trips = extractor.trips_by_building.get(building_id, set())
    n_other = extractor.n_trips - len(building_trips)

    geo_xy = np.array([extractor._geocode_xy(a) for a in members])
    gx, gy = geo_xy.mean(axis=0)
    poi = Counter(extractor.addresses[a].poi_category for a in members).most_common(1)[0][0]

    features = np.zeros((len(candidate_ids), N_FEATURES))
    for row, cid in enumerate(candidate_ids):
        trips_through = extractor.trips_by_candidate.get(cid, set())
        tc = len(trips_through & building_trips) / len(building_trips)
        lc = len(trips_through - building_trips) / n_other if n_other > 0 else 0.0
        candidate = extractor.pool.by_id[cid]
        profile = extractor.profiles[cid]
        features[row, COL_TC] = tc
        features[row, COL_LC_BUILDING] = lc
        features[row, COL_LC_ADDRESS] = lc
        features[row, COL_DIST] = float(np.hypot(candidate.x - gx, candidate.y - gy))
        features[row, COL_DURATION] = profile.avg_duration_s
        features[row, COL_COURIERS] = profile.n_couriers
        features[row, HIST_START:] = profile.time_hist
    return AddressExample(
        address_id=f"{BUILDING_PREFIX}{building_id}",
        candidate_ids=candidate_ids,
        features=features,
        n_deliveries=len(building_trips),
        poi_category=poi,
    )


# ----------------------------------------------------------------------
# Both sides on one corpus
# ----------------------------------------------------------------------
class RecordingSelector:
    """Picks the first candidate and keeps every example it was shown."""

    def __init__(self):
        self.examples: dict[str, AddressExample] = {}

    def predict_index(self, example):
        self.examples[example.address_id] = example
        return 0


def reference_outputs(trips, stay_points_by_trip, pool, addresses, building_ids):
    """(profiles, address examples, building examples, stage seconds)."""
    t0 = time.perf_counter()
    profiles = build_profiles(
        [sp for stays in stay_points_by_trip.values() for sp in stays], pool
    )
    t1 = time.perf_counter()
    extractor = ReferenceExtractor(trips, stay_points_by_trip, pool, profiles, addresses)
    delivered = sorted({a for trip in trips for a in trip.address_ids})
    examples = extractor.build_examples(delivered)
    t2 = time.perf_counter()
    buildings = {}
    for building_id in building_ids:
        example = build_building_example(extractor, building_id)
        if example is not None:
            buildings[example.address_id] = example
    seconds = {"profile_build": t1 - t0, "feature_extraction": t2 - t1}
    return profiles, examples, buildings, seconds


def corpus_building_ids(addresses):
    """Every building of the corpus plus one that does not exist."""
    return sorted({a.building_id for a in addresses.values()}) + ["no-such-building"]


def compare_corpus(trips, addresses, projection):
    """Build both sides on one corpus.

    Returns the mismatches, each side's stage seconds, and the numbers of
    address and building examples compared.
    """
    artifacts = build_artifacts(
        trips, addresses, projection, DLInfMAConfig(selector="maxtc-ilc")
    )
    building_ids = corpus_building_ids(addresses)
    recorder = RecordingSelector()
    infer_building_locations(artifacts.extractor, recorder, building_ids)
    ref = reference_outputs(
        trips, artifacts.stay_points_by_trip, artifacts.pool, addresses, building_ids
    )
    mismatches = (
        profile_mismatches(ref[0], artifacts.extractor.profiles)
        + example_mismatches(ref[1], artifacts.examples)
        + example_mismatches(ref[2], recorder.examples)
    )
    timings = artifacts.context.timings
    ours = {stage: timings[f"{stage}_s"] for stage in ("profile_build", "feature_extraction")}
    return mismatches, {"reference": ref[3], "kernel": ours}, len(ref[1]), len(ref[2])


def profile_mismatches(reference, ours):
    if reference.keys() != ours.keys():
        return ["profile ids differ"]
    out = []
    for cid, profile in reference.items():
        other = ours[cid]
        if (
            profile.n_couriers != other.n_couriers
            or profile.as_vector().tobytes() != other.as_vector().tobytes()
        ):
            out.append(f"profile {cid}")
    return out


def example_mismatches(reference, ours):
    if reference.keys() != ours.keys():
        return [f"example keys differ: {sorted(reference.keys() ^ ours.keys())[:5]}"]
    out = []
    for key, example in reference.items():
        other = ours[key]
        same = (
            example.address_id == other.address_id
            and example.candidate_ids == other.candidate_ids
            and example.features.shape == other.features.shape
            and np.array_equal(example.features, other.features)
            and example.features.tobytes() == other.features.tobytes()
            and example.n_deliveries == other.n_deliveries
            and example.poi_category == other.poi_category
        )
        if not same:
            out.append(f"example {key}")
    return out


def main(argv=None) -> int:
    from repro.eval import Workload
    from repro.synth import downbj_config, generate_dataset, subbj_config

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=3.0)
    args = parser.parse_args(argv)
    failed = False
    for name, make in (("DowBJ-like", downbj_config), ("SubBJ-like", subbj_config)):
        workload = Workload.from_dataset(generate_dataset(make(scale=args.scale)))
        mismatches, seconds, n_addr, n_bldg = compare_corpus(
            workload.trips, workload.addresses, workload.projection
        )
        for side in ("reference", "kernel"):
            stages = ", ".join(f"{k} {v:.3f} s" for k, v in seconds[side].items())
            print(f"{name} scale {args.scale:g} {side}: {stages}")
        status = "bit-equal" if not mismatches else f"{len(mismatches)} MISMATCHES"
        print(f"{name} scale {args.scale:g}: profiles, {n_addr} address and "
              f"{n_bldg} building examples {status}")
        for line in mismatches[:10]:
            print("  ", line)
        failed |= bool(mismatches)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
