"""Arrival-time estimation over inferred delivery locations.

The paper's introduction lists arrival-time estimation among the
downstream applications that accurate delivery locations feed.  This
estimator combines the planned tour geometry (travel legs at an estimated
courier speed) with per-location historical dwell statistics (the
candidate profiles' average stay durations) to produce per-stop ETAs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo import LocalProjection
from repro.serve.shard import ShardedLocationStore
from repro.trajectory import Address, DeliveryTrip, speeds_mps


@dataclass(frozen=True)
class StopETA:
    """Predicted arrival/departure for one stop of a tour."""

    address_id: str
    eta_s: float  # arrival, seconds from tour start
    etd_s: float  # departure (arrival + expected dwell)


def estimate_courier_speed(trips: list[DeliveryTrip], default_mps: float = 3.0) -> float:
    """Median moving speed across trips (fixes faster than 0.5 m/s)."""
    samples: list[float] = []
    for trip in trips:
        sp = speeds_mps(trip.trajectory)
        samples.extend(sp[sp > 0.5].tolist())
    if not samples:
        return default_mps
    return float(np.median(samples))


class ETAEstimator:
    """Per-stop ETAs for a planned tour.

    ``dwell_s_by_address`` supplies expected service time per address
    (e.g. candidate-profile average durations); addresses without history
    use ``default_dwell_s``.
    """

    def __init__(
        self,
        store: ShardedLocationStore,
        projection: LocalProjection,
        speed_mps: float = 3.0,
        dwell_s_by_address: dict[str, float] | None = None,
        default_dwell_s: float = 120.0,
    ) -> None:
        if speed_mps <= 0:
            raise ValueError("speed_mps must be positive")
        if default_dwell_s < 0:
            raise ValueError("default_dwell_s must be non-negative")
        self.store = store
        self.projection = projection
        self.speed_mps = speed_mps
        self.dwell_s_by_address = dict(dwell_s_by_address or {})
        self.default_dwell_s = default_dwell_s

    def estimate(
        self, ordered_addresses: list[Address], start_xy: tuple[float, float]
    ) -> list[StopETA]:
        """ETAs for a tour visiting ``ordered_addresses`` in order."""
        etas: list[StopETA] = []
        x, y = start_xy
        t = 0.0
        for address in ordered_addresses:
            location = self.store.query(address).location
            px, py = self.projection.to_xy(location.lng, location.lat)
            dist = float(np.hypot(px - x, py - y))
            t += dist / self.speed_mps
            dwell = self.dwell_s_by_address.get(address.address_id, self.default_dwell_s)
            etas.append(StopETA(address.address_id, eta_s=t, etd_s=t + dwell))
            t += dwell
            x, y = px, py
        return etas

    def evaluate_against_actual(
        self,
        etas: list[StopETA],
        actual_arrivals_s: dict[str, float],
    ) -> float:
        """Mean absolute ETA error (seconds) against actual arrivals."""
        gaps = [
            abs(eta.eta_s - actual_arrivals_s[eta.address_id])
            for eta in etas
            if eta.address_id in actual_arrivals_s
        ]
        if not gaps:
            raise ValueError("no overlapping addresses to evaluate")
        return float(np.mean(gaps))
