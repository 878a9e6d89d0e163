"""Annotated-location derivation.

Annotation-based baselines (Annotation, GeoCloud, GeoRank, UNet-based) work
on the locations couriers were at when they *confirmed* deliveries.  As the
paper does for its baseline comparisons, annotated locations are generated
from the trajectory data: the courier's interpolated position at each
waybill's recorded delivery time.  When confirmations are delayed, these
positions drift away from the actual drop-off — exactly the failure mode
DLInfMA is designed to survive.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.geo import LocalProjection
from repro.trajectory import DeliveryTrip


@dataclass(frozen=True)
class AnnotatedLocation:
    """One confirmation event: where and when the courier confirmed."""

    x: float
    y: float
    t: float
    trip_id: str


def position_at(trip: DeliveryTrip, t: float, projection: LocalProjection) -> tuple[float, float]:
    """The courier's interpolated position (meters) at time ``t``.

    Clamped to the trajectory's endpoints: a confirmation after the trip
    ended annotates the courier's final position (often the station).
    """
    traj = trip.trajectory
    if len(traj) == 0:
        raise ValueError(f"trip {trip.trip_id!r} has an empty trajectory")
    x, y = projection.to_xy(traj.lng, traj.lat)
    return float(np.interp(t, traj.t, x)), float(np.interp(t, traj.t, y))


def annotated_locations(
    trips: list[DeliveryTrip], projection: LocalProjection
) -> dict[str, list[AnnotatedLocation]]:
    """Annotation events per address, from all trips: each trip is
    projected once and every waybill read off it (:func:`position_at`)."""
    out: dict[str, list[AnnotatedLocation]] = defaultdict(list)
    for trip in trips:
        traj = trip.trajectory
        if len(traj) == 0:
            continue
        x, y = projection.to_xy(traj.lng, traj.lat)
        times = [w.t_delivered for w in trip.waybills]
        xs, ys = np.interp(times, traj.t, x).tolist(), np.interp(times, traj.t, y).tolist()
        for waybill, wx, wy in zip(trip.waybills, xs, ys):
            out[waybill.address_id].append(
                AnnotatedLocation(x=wx, y=wy, t=waybill.t_delivered, trip_id=trip.trip_id)
            )
    return dict(out)
