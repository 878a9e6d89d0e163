"""Courier trip simulation: schedules, GPS traces, waybills.

Each courier owns a spatial zone (one or more blocks — the paper notes
delivery tasks in a region are usually assigned to the same courier).  A
simulated trip samples addresses from the zone (weighted by customer
activity), routes through their delivery spots nearest-neighbour style from
the station, dwells at each spot to deliver, occasionally pauses for
non-delivery stops, and emits noisy GPS fixes at ~13.5 s intervals — the
sampling rate of the paper's datasets.

Waybills carry *clean* recorded times here (confirmation right after the
drop-off); :mod:`repro.synth.delays` injects batch-confirmation delays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.synth.city import City, POI_DWELL_FACTOR
from repro.trajectory import DeliveryTrip, Trajectory, Waybill


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of the courier simulation."""

    n_days: int = 20
    blocks_per_courier: int = 1
    addresses_per_trip: tuple[int, int] = (8, 16)
    sampling_s: float = 13.5
    gps_sigma_m: float = 8.0
    outlier_prob: float = 0.003
    outlier_jump_m: float = 400.0
    speed_mps: float = 3.0
    dwell_s: tuple[float, float] = (60.0, 200.0)
    per_parcel_extra_dwell_s: float = 20.0
    extra_stop_prob: float = 0.18
    extra_stop_dwell_s: tuple[float, float] = (60.0, 480.0)
    trip_start_hour: tuple[float, float] = (8.0, 15.0)
    # Chance an address receives two parcels in the same trip (customers
    # do order multiple packages; Definition 5's W is a multiset).  Off by
    # default: multi-parcel trips thicken the annotation clusters, which
    # shifts the calibrated baseline balance documented in EXPERIMENTS.md.
    double_parcel_prob: float = 0.0
    # Even "immediate" confirmations happen from seconds to a couple of
    # minutes after the drop-off — often while already walking away.
    confirm_jitter_s: tuple[float, float] = (10.0, 120.0)

    def __post_init__(self) -> None:
        if self.n_days < 1:
            raise ValueError("n_days must be >= 1")
        if self.sampling_s <= 0 or self.speed_mps <= 0:
            raise ValueError("sampling_s and speed_mps must be positive")
        if self.addresses_per_trip[0] < 1:
            raise ValueError("need at least one address per trip")


@dataclass
class PlannedStop:
    """One dwell in a trip schedule; ``spot_id`` is None for rest stops."""

    x: float
    y: float
    t_arrive: float
    t_leave: float
    spot_id: str | None
    address_ids: list[str] = field(default_factory=list)

    @property
    def t_mid(self) -> float:
        """Midpoint of the dwell — the actual delivery time."""
        return (self.t_arrive + self.t_leave) / 2.0


@dataclass
class SimulatedTrip:
    """A delivery trip plus the simulation ground truth behind it."""

    trip: DeliveryTrip
    stops: list[PlannedStop]
    actual_delivery_time: dict[str, float]  # waybill_id -> time


class TripSimulator:
    """Generates a full dataset's worth of courier trips.

    ``weather`` (optional, one entry per simulated day) slows couriers and
    stretches dwells on rainy days — see :mod:`repro.synth.weather`.
    """

    def __init__(
        self,
        city: City,
        config: SimulationConfig,
        rng: np.random.Generator,
        weather: list | None = None,
        weather_config=None,
    ) -> None:
        from repro.synth.weather import WeatherConfig

        self.city = city
        self.config = config
        self.rng = rng
        self.weather = list(weather) if weather else []
        self.weather_config = weather_config or WeatherConfig()
        self.courier_zones = self._assign_couriers()

    def _day_factors(self, day: int) -> tuple[float, float]:
        """(speed factor, dwell factor) for a simulated day."""
        from repro.synth.weather import Weather

        if day < len(self.weather) and self.weather[day] == Weather.RAIN:
            return (
                self.weather_config.rain_speed_factor,
                self.weather_config.rain_dwell_factor,
            )
        return 1.0, 1.0

    def _assign_couriers(self) -> dict[str, list[str]]:
        """Partition blocks into per-courier zones."""
        block_ids = sorted(self.city.blocks)
        zones: dict[str, list[str]] = {}
        per = max(1, self.config.blocks_per_courier)
        for i in range(0, len(block_ids), per):
            courier_id = f"c{i // per:03d}"
            zones[courier_id] = block_ids[i : i + per]
        return zones

    # ------------------------------------------------------------------
    def simulate(self) -> list[SimulatedTrip]:
        """Run the full simulation: every courier, every day."""
        out: list[SimulatedTrip] = []
        for day in range(self.config.n_days):
            for courier_id in sorted(self.courier_zones):
                sim = self._simulate_trip(courier_id, day)
                if sim is not None:
                    out.append(sim)
        return out

    # ------------------------------------------------------------------
    def _zone_addresses(self, courier_id: str):
        records = []
        for block_id in self.courier_zones[courier_id]:
            records.extend(self.city.addresses_in_block(block_id))
        return sorted(records, key=lambda r: r.address_id)

    def _simulate_trip(self, courier_id: str, day: int) -> SimulatedTrip | None:
        cfg = self.config
        rng = self.rng
        records = self._zone_addresses(courier_id)
        if not records:
            return None
        lo, hi = cfg.addresses_per_trip
        n_addr = int(rng.integers(lo, min(hi, len(records)) + 1)) if len(records) > lo else len(records)
        weights = np.array([r.activity for r in records])
        weights = weights / weights.sum()
        chosen_idx = rng.choice(len(records), size=min(n_addr, len(records)), replace=False, p=weights)
        chosen = [records[i] for i in chosen_idx]

        # Group chosen addresses by their ground-truth spot.
        by_spot: dict[str, list[str]] = {}
        for record in chosen:
            by_spot.setdefault(record.spot_id, []).append(record.address_id)

        t0 = day * 86_400.0 + float(rng.uniform(*cfg.trip_start_hour)) * 3_600.0
        speed_factor, dwell_factor = self._day_factors(day)
        stops = self._schedule(by_spot, t0, speed_factor, dwell_factor)
        trip_id = f"{courier_id}-d{day:03d}"
        trajectory = self._render_trajectory(courier_id, stops, t0, speed_factor)
        if len(trajectory) < 2:
            return None

        waybills: list[Waybill] = []
        actual: dict[str, float] = {}
        for stop in stops:
            if stop.spot_id is None:
                continue
            for address_id in stop.address_ids:
                # Skip the draw entirely when disabled so default datasets
                # are bit-identical with and without this feature.
                n_parcels = (
                    2
                    if cfg.double_parcel_prob > 0 and rng.random() < cfg.double_parcel_prob
                    else 1
                )
                for parcel in range(n_parcels):
                    waybill_id = f"{trip_id}-{address_id}" + (f"-p{parcel}" if parcel else "")
                    t_actual = stop.t_mid
                    recorded = t_actual + float(rng.uniform(*cfg.confirm_jitter_s))
                    waybills.append(
                        Waybill(
                            waybill_id=waybill_id,
                            address_id=address_id,
                            t_received=t0 - float(rng.uniform(1, 6)) * 3_600.0,
                            t_delivered=recorded,
                        )
                    )
                    actual[waybill_id] = t_actual
        if not waybills:
            return None

        trip = DeliveryTrip(
            trip_id=trip_id,
            courier_id=courier_id,
            t_start=t0,
            t_end=float(trajectory.t[-1]),
            trajectory=trajectory,
            waybills=waybills,
        )
        return SimulatedTrip(trip=trip, stops=stops, actual_delivery_time=actual)

    def _schedule(
        self,
        by_spot: dict[str, list[str]],
        t0: float,
        speed_factor: float = 1.0,
        dwell_factor: float = 1.0,
    ) -> list[PlannedStop]:
        """Nearest-neighbour route over spots with dwell times + rest stops."""
        cfg = self.config
        rng = self.rng
        speed = cfg.speed_mps * speed_factor
        remaining = dict(by_spot)
        x, y = self.city.station_xy
        t = t0
        stops: list[PlannedStop] = []
        while remaining:
            # Nearest unvisited spot.
            spot_id = min(
                remaining,
                key=lambda s: (self.city.spots[s].x - x) ** 2 + (self.city.spots[s].y - y) ** 2,
            )
            address_ids = remaining.pop(spot_id)
            spot = self.city.spots[spot_id]
            dist = float(np.hypot(spot.x - x, spot.y - y))
            t_travel = dist / speed

            # Possibly pause mid-leg (rest, traffic, pickup...).
            if rng.random() < cfg.extra_stop_prob and dist > 60.0:
                frac = float(rng.uniform(0.3, 0.7))
                rx = x + frac * (spot.x - x) + float(rng.normal(0, 10))
                ry = y + frac * (spot.y - y) + float(rng.normal(0, 10))
                t_arrive = t + frac * t_travel
                dwell = float(rng.uniform(*cfg.extra_stop_dwell_s))
                stops.append(PlannedStop(rx, ry, t_arrive, t_arrive + dwell, spot_id=None))
                t += dwell

            t_arrive = t + t_travel
            dwell = float(rng.uniform(*cfg.dwell_s)) * dwell_factor
            dwell *= self._poi_dwell_factor(address_ids)
            dwell += cfg.per_parcel_extra_dwell_s * max(0, len(address_ids) - 1)
            stops.append(
                PlannedStop(spot.x, spot.y, t_arrive, t_arrive + dwell, spot_id, list(address_ids))
            )
            x, y, t = spot.x, spot.y, t_arrive + dwell
        return stops

    def _poi_dwell_factor(self, address_ids: list[str]) -> float:
        """Mean POI-category dwell multiplier of the served addresses."""
        if not address_ids:
            return 1.0
        factors = [
            POI_DWELL_FACTOR[self.city.addresses[a].poi_category]
            for a in address_ids
            if a in self.city.addresses
        ]
        return float(np.mean(factors)) if factors else 1.0

    def _render_trajectory(
        self,
        courier_id: str,
        stops: list[PlannedStop],
        t0: float,
        speed_factor: float = 1.0,
    ) -> Trajectory:
        """Sample noisy GPS fixes along the piecewise-linear schedule."""
        cfg = self.config
        rng = self.rng
        speed = cfg.speed_mps * speed_factor
        # Anchor points of the true path: (t, x, y).
        anchors_t = [t0]
        sx, sy = self.city.station_xy
        anchors_x = [sx]
        anchors_y = [sy]
        for stop in stops:
            anchors_t.extend([stop.t_arrive, stop.t_leave])
            anchors_x.extend([stop.x, stop.x])
            anchors_y.extend([stop.y, stop.y])
        # Return leg to the station.
        last = stops[-1] if stops else None
        if last is not None:
            dist = float(np.hypot(last.x - sx, last.y - sy))
            anchors_t.append(last.t_leave + dist / speed)
            anchors_x.append(sx)
            anchors_y.append(sy)

        t_end = anchors_t[-1]
        times = []
        t = t0
        while t <= t_end:
            times.append(t)
            t += cfg.sampling_s * float(rng.uniform(0.75, 1.25))
        times = np.array(times)
        if len(times) < 2:
            return Trajectory(courier_id)
        xs = np.interp(times, anchors_t, anchors_x)
        ys = np.interp(times, anchors_t, anchors_y)
        xs = xs + rng.normal(0, cfg.gps_sigma_m, size=len(times))
        ys = ys + rng.normal(0, cfg.gps_sigma_m, size=len(times))
        # Occasional outlier jumps (cleaned later by the noise filter).
        outliers = rng.random(len(times)) < cfg.outlier_prob
        if outliers.any():
            angles = rng.uniform(0, 2 * np.pi, size=int(outliers.sum()))
            xs[outliers] += cfg.outlier_jump_m * np.cos(angles)
            ys[outliers] += cfg.outlier_jump_m * np.sin(angles)

        lng, lat = self.city.projection.to_lnglat(xs, ys)
        return Trajectory.from_arrays(courier_id, np.atleast_1d(lng), np.atleast_1d(lat), times)
