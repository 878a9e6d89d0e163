"""Handcrafted deterministic trip construction for exact-semantics tests."""

from __future__ import annotations

import numpy as np

from repro.core import CandidatePool
from repro.core.candidates import LocationCandidate
from repro.core.features import FeatureExtractor
from repro.geo import LocalProjection, Point
from repro.trajectory import Address, DeliveryTrip, Trajectory, Waybill

ORIGIN = Point(116.40, 39.90)
PROJ = LocalProjection(ORIGIN)


def make_trip(
    trip_id: str,
    courier_id: str,
    stops: list[tuple[float, float, float, float]],
    waybills: list[tuple[str, float]],
    t_start: float = 0.0,
    station: tuple[float, float] = (-200.0, 0.0),
    speed: float = 5.0,
    fix_interval: float = 10.0,
) -> DeliveryTrip:
    """Build a noise-free trip.

    ``stops``: (x_m, y_m, t_arrive, dwell_s) — dwells must be consistent
    with travel times.  ``waybills``: (address_id, t_delivered_recorded).
    """
    anchors_t = [t_start]
    anchors_x = [station[0]]
    anchors_y = [station[1]]
    for x, y, t_arrive, dwell in stops:
        anchors_t.extend([t_arrive, t_arrive + dwell])
        anchors_x.extend([x, x])
        anchors_y.extend([y, y])
    # Return to station.
    lx, ly = anchors_x[-1], anchors_y[-1]
    dist = np.hypot(lx - station[0], ly - station[1])
    anchors_t.append(anchors_t[-1] + dist / speed)
    anchors_x.append(station[0])
    anchors_y.append(station[1])

    times = np.arange(t_start, anchors_t[-1] + fix_interval, fix_interval)
    xs = np.interp(times, anchors_t, anchors_x)
    ys = np.interp(times, anchors_t, anchors_y)
    lng, lat = PROJ.to_lnglat(xs, ys)
    trajectory = Trajectory.from_arrays(courier_id, lng, lat, times)
    wb = [
        Waybill(f"{trip_id}-{addr}", addr, t_received=t_start - 3600.0, t_delivered=t_rec)
        for addr, t_rec in waybills
    ]
    return DeliveryTrip(
        trip_id=trip_id,
        courier_id=courier_id,
        t_start=t_start,
        t_end=float(times[-1]),
        trajectory=trajectory,
        waybills=wb,
    )


def make_address(
    address_id: str,
    building_id: str,
    geocode_xy: tuple[float, float],
    poi_category: int = 0,
) -> Address:
    """An address whose geocode is given in meters around ORIGIN."""
    lng, lat = PROJ.to_lnglat(*geocode_xy)
    return Address(
        address_id=address_id,
        text=f"addr {address_id}",
        building_id=building_id,
        geocode=Point(float(lng), float(lat)),
        poi_category=poi_category,
    )


def point_at(x: float, y: float) -> Point:
    """Meters -> lng/lat Point around ORIGIN."""
    lng, lat = PROJ.to_lnglat(x, y)
    return Point(float(lng), float(lat))


def pool_of(coords, ids=None) -> CandidatePool:
    """A pool with candidates at meter ``coords`` (ids default to 0..n-1)."""
    ids = range(len(coords)) if ids is None else ids
    return CandidatePool(
        [LocationCandidate(int(i), float(x), float(y), 0.0, 0.0, 1.0)
         for i, (x, y) in zip(ids, coords)],
        PROJ,
    )


def profiles_of(stay_points, pool):
    """Location profiles of ``pool`` from stays of one (untracked) trip."""
    return FeatureExtractor([], {"stays": list(stay_points)}, pool, {}).profiles


def retrieved(extractor, address_id):
    """An address's retrieved candidate ids ([] when it has no example)."""
    example = extractor.build_examples([address_id]).get(address_id)
    return example.candidate_ids if example is not None else []
