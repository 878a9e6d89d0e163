"""Stage 1 of DLInfMA: stay-point extraction from couriers' trajectories.

Noise filtering followed by stay-point detection (paper defaults
``D_max = 20 m``, ``T_min = 30 s``, Section III-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.trajectory import (
    DeliveryTrip,
    NoiseFilterConfig,
    StayPoint,
    StayPointConfig,
    noise_kept,
    stay_points_of,
)


@dataclass(frozen=True)
class ExtractionConfig:
    """Noise-filter + stay-point thresholds."""

    noise: NoiseFilterConfig = field(default_factory=NoiseFilterConfig)
    stay: StayPointConfig = field(default_factory=StayPointConfig)


def _extract_one(trip: DeliveryTrip, config: ExtractionConfig) -> list[StayPoint]:
    lng, lat, t = trip.trajectory.lng, trip.trajectory.lat, trip.trajectory.t
    kept = noise_kept(lng, lat, t, config.noise)
    return stay_points_of(lng[kept], lat[kept], t[kept], trip.trajectory.courier_id, config.stay)


def extract_trip_stay_points(
    trips: list[DeliveryTrip],
    config: ExtractionConfig | None = None,
) -> dict[str, list[StayPoint]]:
    """Stay points per trip id, from cleaned trajectories."""
    config = config or ExtractionConfig()
    return {trip.trip_id: _extract_one(trip, config) for trip in trips}
