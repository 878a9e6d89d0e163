import numpy as np
import pytest

from repro.geo import haversine_m
from repro.synth import City, CityConfig, SimulationConfig, TripSimulator
from repro.trajectory import StayPointConfig, detect_stay_points, filter_noise


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(0)
    city = City(CityConfig(n_blocks_x=2, n_blocks_y=1), rng)
    sim = TripSimulator(city, SimulationConfig(n_days=6), rng)
    return city, sim, sim.simulate()


class TestTripSimulator:
    def test_courier_zone_partition(self, world):
        city, sim, _ = world
        covered = [b for blocks in sim.courier_zones.values() for b in blocks]
        assert sorted(covered) == sorted(city.blocks)

    def test_trips_generated_for_every_courier_day(self, world):
        city, sim, trips = world
        assert len(trips) == len(sim.courier_zones) * 6

    def test_trip_invariants(self, world):
        _, _, trips = world
        for sim_trip in trips:
            trip = sim_trip.trip
            assert trip.t_start <= trip.t_end
            assert len(trip.trajectory) >= 2
            assert trip.trajectory.t[0] >= trip.t_start - 1e-9
            for waybill in trip.waybills:
                assert waybill.t_received < trip.t_start
                actual = sim_trip.actual_delivery_time[waybill.waybill_id]
                assert trip.t_start <= actual <= trip.t_end
                # Clean recorded times confirm shortly after delivery.
                assert actual < waybill.t_delivered <= actual + 130.0

    def test_waybills_delivered_at_true_spots(self, world):
        city, _, trips = world
        for sim_trip in trips[:5]:
            for stop in sim_trip.stops:
                if stop.spot_id is None:
                    continue
                spot = city.spots[stop.spot_id]
                for addr in stop.address_ids:
                    assert city.addresses[addr].spot_id == stop.spot_id
                assert stop.x == spot.x and stop.y == spot.y

    def test_sampling_rate_near_config(self, world):
        _, _, trips = world
        deltas = []
        for sim_trip in trips[:10]:
            t = sim_trip.trip.trajectory.t
            deltas.extend(np.diff(t))
        assert 11.0 < np.mean(deltas) < 16.0

    def test_stay_points_found_near_delivery_spots(self, world):
        """The core premise: deliveries cause detectable stays."""
        city, _, trips = world
        sim_trip = trips[0]
        cleaned = filter_noise(sim_trip.trip.trajectory)
        stays = detect_stay_points(cleaned, StayPointConfig(d_max_m=20.0, t_min_s=30.0))
        assert len(stays) >= 1
        proj = city.projection
        matched = 0
        for stop in sim_trip.stops:
            if stop.spot_id is None:
                continue
            best = min(
                haversine_m(sp.lng, sp.lat, *proj.to_lnglat(stop.x, stop.y))
                for sp in stays
            )
            if best < 25.0:
                matched += 1
        n_delivery_stops = sum(1 for s in sim_trip.stops if s.spot_id is not None)
        assert matched / n_delivery_stops > 0.7

    def test_gps_noise_present(self, world):
        city, _, trips = world
        sim_trip = trips[0]
        traj = sim_trip.trip.trajectory
        lng, lat, t = traj.lng, traj.lat, traj.t
        x, y = city.projection.to_xy(lng, lat)
        # During the first delivery dwell, positions scatter (not constant).
        stop = next(s for s in sim_trip.stops if s.spot_id is not None)
        in_dwell = (t >= stop.t_arrive) & (t <= stop.t_leave)
        assert in_dwell.sum() >= 3
        assert np.std(np.asarray(x)[in_dwell]) > 0.5

    def test_addresses_repeat_across_trips(self, world):
        """Most addresses must appear in multiple trips (Figure 9(b))."""
        _, _, trips = world
        counts: dict[str, int] = {}
        for sim_trip in trips:
            for addr in sim_trip.trip.address_ids:
                counts[addr] = counts.get(addr, 0) + 1
        repeated = sum(1 for c in counts.values() if c >= 2)
        assert repeated / len(counts) > 0.5

    def test_double_parcels_share_stop_and_time(self):
        rng = np.random.default_rng(9)
        city = City(CityConfig(n_blocks_x=2, n_blocks_y=1), rng)
        sim = TripSimulator(city, SimulationConfig(n_days=10, double_parcel_prob=1.0), rng)
        trips = sim.simulate()
        found = 0
        for sim_trip in trips:
            per_address = {}
            for waybill in sim_trip.trip.waybills:
                per_address.setdefault(waybill.address_id, []).append(waybill)
            for waybills in per_address.values():
                if len(waybills) == 2:
                    found += 1
                    ids = {w.waybill_id for w in waybills}
                    assert len(ids) == 2
                    actuals = {
                        sim_trip.actual_delivery_time[w.waybill_id] for w in waybills
                    }
                    assert len(actuals) == 1  # delivered together
        assert found > 0

    def test_rest_stops_exist(self):
        rng = np.random.default_rng(3)
        city = City(CityConfig(n_blocks_x=2, n_blocks_y=1), rng)
        sim = TripSimulator(city, SimulationConfig(n_days=8, extra_stop_prob=0.9), rng)
        trips = sim.simulate()
        rests = sum(
            1 for st in trips for s in st.stops if s.spot_id is None
        )
        assert rests > 0

    def test_determinism(self):
        def build():
            rng = np.random.default_rng(11)
            city = City(CityConfig(n_blocks_x=2, n_blocks_y=1), rng)
            return TripSimulator(city, SimulationConfig(n_days=3), rng).simulate()

        a, b = build(), build()
        assert len(a) == len(b)
        for ta, tb in zip(a, b):
            assert ta.trip.trip_id == tb.trip.trip_id
            assert len(ta.trip.trajectory) == len(tb.trip.trajectory)
            assert ta.actual_delivery_time == tb.actual_delivery_time

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_days=0)
        with pytest.raises(ValueError):
            SimulationConfig(sampling_s=0)
        with pytest.raises(ValueError):
            SimulationConfig(addresses_per_trip=(0, 5))
