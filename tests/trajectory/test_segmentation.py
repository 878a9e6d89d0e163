import pytest

from repro.geo import Point
from repro.trajectory import SegmentationConfig, TrajPoint, Trajectory, segment_trips
from tests.core.helpers import PROJ


def stream(segments, gap_s=3600.0, dt=10.0, start=0.0):
    """Build a stream of fix runs with large gaps between them.

    ``segments``: list of (duration_s, x, y) constant-position runs.
    """
    points = []
    t = start
    for duration, x, y in segments:
        lng, lat = PROJ.to_lnglat(x, y)
        n = int(duration / dt)
        for i in range(n):
            # Slight eastward drift keeps timestamps strictly increasing
            # and positions non-degenerate.
            lng_i, lat_i = PROJ.to_lnglat(x + i * 0.5, y)
            points.append(TrajPoint(float(lng_i), float(lat_i), t))
            t += dt
        t += gap_s
    return Trajectory("c1", points)


class TestSegmentTrips:
    def test_gap_splits(self):
        traj = stream([(600, 0, 0), (600, 1000, 0)], gap_s=3600.0)
        segments = segment_trips(traj, SegmentationConfig(max_gap_s=1800.0))
        assert len(segments) == 2
        assert all(len(s) >= 10 for s in segments)

    def test_no_gap_no_split(self):
        traj = stream([(1200, 0, 0)], gap_s=0.0)
        segments = segment_trips(traj, SegmentationConfig(max_gap_s=1800.0))
        assert len(segments) == 1
        assert len(segments[0]) == len(traj)

    def test_short_segments_dropped(self):
        traj = stream([(600, 0, 0), (50, 1000, 0)], gap_s=3600.0)
        segments = segment_trips(traj, SegmentationConfig(max_gap_s=1800.0))
        assert len(segments) == 1

    def test_station_dwell_splits(self):
        station_xy = (5_000.0, 0.0)
        lng, lat = PROJ.to_lnglat(*station_xy)
        station = Point(float(lng), float(lat))
        # trip1 (20 min), 15 min at the station, trip2 (20 min) — no gaps.
        pieces = []
        t = 0.0
        for duration, x, y in [(1200, 0, 0), (900, *station_xy), (1200, 0, 500)]:
            n = int(duration / 10.0)
            for i in range(n):
                plng, plat = PROJ.to_lnglat(x + (i % 3), y)
                pieces.append(TrajPoint(float(plng), float(plat), t))
                t += 10.0
        traj = Trajectory("c1", pieces)
        config = SegmentationConfig(
            max_gap_s=1800.0,
            station=station,
            station_radius_m=80.0,
            min_station_dwell_s=600.0,
        )
        segments = segment_trips(traj, config)
        assert len(segments) == 2

    def test_empty(self):
        assert segment_trips(Trajectory("c", [])) == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SegmentationConfig(max_gap_s=0.0)
        with pytest.raises(ValueError):
            SegmentationConfig(min_trip_points=1)

    def test_segments_preserve_chronology_and_courier(self):
        traj = stream([(600, 0, 0), (600, 500, 0), (600, 1000, 0)])
        for segment in segment_trips(traj):
            assert segment.courier_id == "c1"
            times = segment.t.tolist()
            assert times == sorted(times)
