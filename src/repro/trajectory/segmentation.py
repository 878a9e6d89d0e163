"""Raw-stream trip segmentation.

The paper's pipeline consumes delivery *trips* (Definition 5); real
courier GPS arrives as day-long streams.  This module cuts a raw stream
into trips at temporal gaps and long station dwells — the preprocessing
the deployed system performs before DLInfMA sees the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo import Point, haversine_m, haversine_m_vec
from repro.trajectory.model import Trajectory

#: Relative band around ``station_radius_m`` inside which a vectorised
#: distance is re-checked with the scalar :func:`haversine_m` (as in
#: :mod:`repro.trajectory.noise`).
_RADIUS_RTOL = 1e-9


@dataclass(frozen=True)
class SegmentationConfig:
    """Cut rules: temporal gaps and station dwells end a trip."""

    max_gap_s: float = 1_800.0
    station: Point | None = None
    station_radius_m: float = 80.0
    min_station_dwell_s: float = 600.0
    min_trip_points: int = 10
    min_trip_duration_s: float = 300.0

    def __post_init__(self) -> None:
        if self.max_gap_s <= 0:
            raise ValueError("max_gap_s must be positive")
        if self.min_trip_points < 2:
            raise ValueError("min_trip_points must be >= 2")


def segment_trips(
    trajectory: Trajectory, config: SegmentationConfig | None = None
) -> list[Trajectory]:
    """Split one raw stream into per-trip trajectories.

    Cuts at (1) sampling gaps longer than ``max_gap_s`` and (2) station
    dwells: a maximal run of fixes within ``station_radius_m`` of the
    station lasting at least ``min_station_dwell_s``.  Segments that are
    too short (points or duration) are dropped.
    """
    config = config or SegmentationConfig()
    lng, lat, t = trajectory.lng, trajectory.lat, trajectory.t
    n = len(t)
    if not n:
        return []

    # cut[i]: a trip ends at fix i.
    cut = np.zeros(n, dtype=bool)
    cut[:-1] = np.diff(t) > config.max_gap_s
    cut[-1] = True
    dwell_starts = dwell_ends = np.empty(0, dtype=np.intp)
    if config.station is not None:
        slng, slat, radius = config.station.lng, config.station.lat, config.station_radius_m
        dist = haversine_m_vec(lng, lat, slng, slat)
        at_station = dist <= radius
        for k in np.flatnonzero(np.abs(dist - radius) <= radius * _RADIUS_RTOL).tolist():
            at_station[k] = haversine_m(lng[k], lat[k], slng, slat) <= radius
        # Maximal runs of fixes at the station, [first, last].
        edges = np.flatnonzero(np.diff(np.concatenate(([0], at_station.view(np.int8), [0]))))
        first, last = edges[0::2], edges[1::2] - 1
        dwell = t[last] - t[first] >= config.min_station_dwell_s
        dwell_starts, dwell_ends = first[dwell], last[dwell]
        # End the previous trip before a dwell and start the next one after
        # it; a segment inside a dwell run is not a trip.
        cut[dwell_starts[dwell_starts > 0] - 1] = True
        cut[dwell_ends] = True

    ends = np.flatnonzero(cut)
    starts = np.concatenate(([0], ends[:-1] + 1))
    keep = (ends - starts + 1 >= config.min_trip_points) & ~(
        t[ends] - t[starts] < config.min_trip_duration_s
    )
    if dwell_starts.size:
        k = np.searchsorted(dwell_starts, starts, side="right") - 1
        keep &= ~((k >= 0) & (ends <= dwell_ends[np.maximum(k, 0)]))
    return [
        Trajectory.from_arrays(trajectory.courier_id, lng[a : b + 1], lat[a : b + 1], t[a : b + 1])
        for a, b in zip(starts[keep].tolist(), ends[keep].tolist())
    ]
