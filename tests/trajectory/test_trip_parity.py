"""Trip plumbing equals the per-fix references of ``trip_reference``.

Day streams, their segmentation, the event stream's templates, expected
trajectories and arrivals are held bit-equal to the loops in
``tests/trajectory/trip_reference.py`` on both scale-1 presets, and on
hand-made streams whose seams overlap so both seam guards fire.  A trips
file must survive save -> load -> save byte for byte.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.synth import build_day_streams, downbj_config, generate_dataset, subbj_config
from repro.synth.simulate import SimulatedTrip
from repro.trajectory import Trajectory, segment_trips
from tests.core.helpers import PROJ, make_trip
from tests.trajectory.trip_reference import (
    columns,
    event_stream_mismatches,
    reference_day_streams,
    round_trip_mismatches,
    segmentation_configs,
    segmentation_mismatches,
    trajectory_mismatches,
)

PRESETS = {"downbj-1": downbj_config, "subbj-1": subbj_config}


@pytest.fixture(scope="module", params=sorted(PRESETS))
def dataset(request):
    return generate_dataset(PRESETS[request.param]())


@pytest.fixture(scope="module")
def day_streams(dataset):
    return build_day_streams(dataset.sim_trips, dataset.city, rng=np.random.default_rng(3))


def overlapping_sims():
    """Two trips of one courier on one day, the second starting before the
    first ends, and a trip of another courier."""
    trips = [
        make_trip(trip_id, courier, [(100.0, 0.0, t0 + 60.0, 120.0)], [("x", t0 + 100.0)],
                  t_start=t0)
        for trip_id, courier, t0 in (("a", "c1", 1_000.0), ("b", "c1", 1_105.0),
                                     ("c", "c2", 0.0))
    ]
    return [SimulatedTrip(trip=trip, stops=[], actual_delivery_time={}) for trip in trips]


class TestDayStreams:
    def test_equal_to_reference(self, dataset, day_streams):
        reference = reference_day_streams(
            dataset.sim_trips, dataset.city, rng=np.random.default_rng(3)
        )
        assert trajectory_mismatches(reference, day_streams, "day stream") == []

    def test_overlapping_trips_equal_to_reference(self):
        city = SimpleNamespace(station_xy=(-200.0, 0.0), projection=PROJ)
        sims = overlapping_sims()
        ours = build_day_streams(sims, city, rng=np.random.default_rng(0))
        reference = reference_day_streams(sims, city, rng=np.random.default_rng(0))
        assert trajectory_mismatches(reference, ours, "day stream") == []
        # The seam guard fired: the first trip lost its tail to the second.
        _, _, t = columns(ours[("c1", 0)])
        first_end = columns(sims[0].trip.trajectory)[2][-1]
        assert float(first_end) not in t.tolist()


class TestSegmentation:
    def test_day_streams_equal_to_reference(self, dataset, day_streams):
        configs = segmentation_configs(dataset.city)
        assert segmentation_mismatches(day_streams, configs, segment_trips) == []
        assert sum(len(segment_trips(s, configs["station"])) for s in day_streams.values()) > 0

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_short_streams_equal_to_reference(self, dataset, day_streams, n):
        key = sorted(day_streams)[0]
        lng, lat, t = columns(day_streams[key])
        short = {key: Trajectory.from_arrays(key[0], lng[:n], lat[:n], t[:n])}
        configs = segmentation_configs(dataset.city)
        assert segmentation_mismatches(short, configs, segment_trips) == []


class TestEventStream:
    def test_equal_to_reference(self, day_streams):
        assert event_stream_mismatches(day_streams, seed=5) == []

    def test_overlapping_day_streams_equal_to_reference(self, day_streams):
        # Day 1 of one courier starts before its day 0 ends: the template's
        # seam guard drops day 1's overlap.
        key = sorted(day_streams)[0]
        lng, lat, t = columns(day_streams[key])
        half = len(t) // 2
        shifted = Trajectory.from_arrays(key[0], lng, lat, t + (t[half] - t[0]))
        streams = {key: day_streams[key], (key[0], key[1] + 1): shifted}
        assert event_stream_mismatches(streams, seed=1) == []


class TestTripsFile:
    def test_round_trip_is_byte_identical(self, dataset, tmp_path):
        assert round_trip_mismatches(dataset.trips, tmp_path) == []

    def test_tiny_round_trip_is_byte_identical(self, tiny_dataset, tmp_path):
        assert round_trip_mismatches(tiny_dataset.trips, tmp_path) == []
