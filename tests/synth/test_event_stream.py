"""FixEventStream: seeded unbounded arrivals with disorder + duplicates."""

import numpy as np
import pytest

from repro.synth import (
    City,
    CityConfig,
    EventStreamConfig,
    FixEventStream,
    SimulationConfig,
    TripSimulator,
    build_day_streams,
)
from repro.trajectory import detect_stay_points


@pytest.fixture(scope="module")
def day_streams():
    rng = np.random.default_rng(0)
    city = City(CityConfig(n_blocks_x=2, n_blocks_y=1), rng)
    sim = TripSimulator(city, SimulationConfig(n_days=2), rng)
    return build_day_streams(sim.simulate(), city,
                             rng=np.random.default_rng(0))


class TestDeterminism:
    def test_same_seed_same_arrivals(self, day_streams):
        a = FixEventStream(day_streams, seed=7).take(2000)
        b = FixEventStream(day_streams, seed=7).take(2000)
        assert a == b

    def test_different_seed_different_order(self, day_streams):
        a = FixEventStream(day_streams, seed=1).events_for_cycle(0)
        b = FixEventStream(day_streams, seed=2).events_for_cycle(0)
        assert a != b
        # ...but a full cycle always covers the same template fixes.
        assert {f.key() for f in a} == {f.key() for f in b}

    def test_cycles_are_independently_regenerable(self, day_streams):
        stream = FixEventStream(day_streams, seed=3)
        n0 = len(stream.events_for_cycle(0))
        taken = stream.take(n0 + 50)
        assert taken[:n0] == stream.events_for_cycle(0)
        assert taken[n0:] == stream.events_for_cycle(1)[:50]


class TestArrivalProcess:
    def test_disorder_is_bounded(self, day_streams):
        config = EventStreamConfig(disorder_s=20.0, p_duplicate=0.0)
        stream = FixEventStream(day_streams, seed=0, config=config)
        events = stream.events_for_cycle(0)
        worst = 0.0
        max_seen = {}
        for fix in events:
            prior = max_seen.get(fix.courier_id, float("-inf"))
            if prior > fix.t:
                worst = max(worst, prior - fix.t)
            max_seen[fix.courier_id] = max(prior, fix.t)
        assert 0.0 < worst < 20.0

    def test_duplicates_are_exact_and_near_their_original(self, day_streams):
        config = EventStreamConfig(disorder_s=10.0, p_duplicate=0.05,
                                   dup_gap_events=8)
        stream = FixEventStream(day_streams, seed=0, config=config)
        events = stream.events_for_cycle(0)
        n_template = stream.events_per_cycle()
        n_dups = len(events) - n_template
        assert n_dups > 0
        seen_at = {}
        for i, fix in enumerate(events):
            key = fix.key()
            if key in seen_at:
                # A duplicate is byte-identical and arrives within the
                # configured gap of its original.
                assert events[seen_at[key]] == fix
                assert i - seen_at[key] <= 8 + n_dups
            else:
                seen_at[key] = i

    def test_zero_disorder_zero_duplicates_is_clean_replay(self, day_streams):
        config = EventStreamConfig(disorder_s=0.0, p_duplicate=0.0)
        stream = FixEventStream(day_streams, seed=0, config=config)
        events = stream.events_for_cycle(0)
        assert len(events) == stream.events_per_cycle()
        assert [f.t for f in events] == sorted(f.t for f in events)

    def test_cycles_shift_by_the_period(self, day_streams):
        stream = FixEventStream(
            day_streams, seed=0,
            config=EventStreamConfig(disorder_s=0.0, p_duplicate=0.0),
        )
        c0 = stream.events_for_cycle(0)
        c1 = stream.events_for_cycle(1)
        assert c1[0].t - c0[0].t == pytest.approx(stream.period_s)
        # Event time never runs backwards across the cycle seam.
        assert c1[0].t > c0[-1].t

    def test_config_validation(self, day_streams):
        with pytest.raises(ValueError):
            EventStreamConfig(disorder_s=-1.0)
        with pytest.raises(ValueError):
            EventStreamConfig(p_duplicate=1.0)
        with pytest.raises(ValueError):
            EventStreamConfig(dup_gap_events=0)
        with pytest.raises(ValueError):
            FixEventStream({}, seed=0)


class TestGroundTruth:
    def test_expected_trajectory_matches_deduped_events(self, day_streams):
        stream = FixEventStream(day_streams, seed=0)
        courier = sorted(stream.templates)[0]
        expected = stream.expected_trajectory(courier, n_cycles=2)
        got = sorted(
            {(f.lng, f.lat, f.t)
             for c in range(2) for f in stream.events_for_cycle(c)
             if f.courier_id == courier},
            key=lambda row: row[2],
        )
        assert list(zip(expected.lng.tolist(), expected.lat.tolist(), expected.t.tolist())) == got

    def test_ground_truth_contains_stays(self, day_streams):
        """The reference trajectories must exercise the detector."""
        stream = FixEventStream(day_streams, seed=0)
        total = sum(
            len(detect_stay_points(traj))
            for traj in stream.expected_trajectories(n_cycles=1).values()
        )
        assert total > 0
