import numpy as np
import pytest

from repro.geo import Point
from repro.synth import City, CityConfig, SimulationConfig, TripSimulator, build_day_streams
from repro.trajectory import SegmentationConfig, segment_trips


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(0)
    city = City(CityConfig(n_blocks_x=2, n_blocks_y=1), rng)
    sim = TripSimulator(city, SimulationConfig(n_days=4), rng)
    return city, sim.simulate()


class TestBuildDayStreams:
    def test_one_stream_per_courier_day(self, world):
        city, sim_trips = world
        streams = build_day_streams(sim_trips, city)
        expected_keys = {
            (s.trip.courier_id, int(s.trip.t_start // 86_400.0)) for s in sim_trips
        }
        assert set(streams) == expected_keys

    def test_streams_are_chronological_and_bracketed_by_station(self, world):
        city, sim_trips = world
        streams = build_day_streams(sim_trips, city, rng=np.random.default_rng(1))
        sx, sy = city.station_xy
        for stream in streams.values():
            times = stream.t.tolist()
            assert times == sorted(times)
            # First and last fixes near the station.
            for k in (0, -1):
                x, y = city.projection.to_xy(float(stream.lng[k]), float(stream.lat[k]))
                assert np.hypot(x - sx, y - sy) < 40.0

    def test_segmentation_recovers_trips(self, world):
        """End-to-end: stream -> segment_trips finds the embedded trip."""
        city, sim_trips = world
        streams = build_day_streams(sim_trips, city, rng=np.random.default_rng(2))
        sx, sy = city.station_xy
        lng, lat = city.projection.to_lnglat(sx, sy)
        station = Point(float(lng), float(lat))
        config = SegmentationConfig(
            max_gap_s=3_600.0,
            station=station,
            station_radius_m=80.0,
            min_station_dwell_s=600.0,
        )
        recovered = 0
        for (courier_id, day), stream in streams.items():
            segments = segment_trips(stream, config)
            # One trip per courier-day in this simulation.
            if len(segments) == 1:
                recovered += 1
                original = next(
                    s for s in sim_trips
                    if s.trip.courier_id == courier_id
                    and int(s.trip.t_start // 86_400.0) == day
                )
                seg = segments[0]
                overlap_start = max(seg.t[0], original.trip.trajectory.t[0])
                overlap_end = min(seg.t[-1], original.trip.trajectory.t[-1])
                # The recovered segment covers most of the original trip.
                span = original.trip.trajectory.duration_s
                assert (overlap_end - overlap_start) > 0.8 * span
        assert recovered / len(streams) > 0.7

    def test_validation(self, world):
        city, sim_trips = world
        with pytest.raises(ValueError):
            build_day_streams(sim_trips, city, station_dwell_s=0.0)
