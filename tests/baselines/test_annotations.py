import numpy as np
import pytest

from repro.baselines import annotated_locations
from repro.geo import LocalProjection
from repro.trajectory import DeliveryTrip
from tests.core.helpers import PROJ, make_trip


def position_at(trip: DeliveryTrip, t: float, projection: LocalProjection) -> tuple[float, float]:
    """Reference: the courier's interpolated position (meters) at time ``t``.

    One waybill at a time, the way ``annotated_locations`` once read each
    one.  Clamped to the trajectory's endpoints: a confirmation after the
    trip ended annotates the courier's final position (often the station).
    """
    traj = trip.trajectory
    if len(traj) == 0:
        raise ValueError(f"trip {trip.trip_id!r} has an empty trajectory")
    x, y = projection.to_xy(traj.lng, traj.lat)
    return float(np.interp(t, traj.t, x)), float(np.interp(t, traj.t, y))


class TestPositionAt:
    def test_interpolates_on_leg(self):
        trip = make_trip("t1", "c1", stops=[(100.0, 0.0, 60.0, 120.0)], waybills=[("a1", 100.0)])
        # At t=30 the courier is halfway from station (-200,0) to (100,0).
        x, y = position_at(trip, 30.0, PROJ)
        assert x == pytest.approx(-50.0, abs=12.0)
        assert y == pytest.approx(0.0, abs=5.0)

    def test_during_dwell_at_spot(self):
        trip = make_trip("t1", "c1", stops=[(100.0, 0.0, 60.0, 120.0)], waybills=[("a1", 100.0)])
        x, y = position_at(trip, 120.0, PROJ)
        assert x == pytest.approx(100.0, abs=5.0)

    def test_clamped_after_trip_end(self):
        trip = make_trip("t1", "c1", stops=[(100.0, 0.0, 60.0, 120.0)], waybills=[("a1", 100.0)])
        x_end, _ = position_at(trip, 1e9, PROJ)
        lng, lat = trip.trajectory.lng, trip.trajectory.lat
        x_last, _ = PROJ.to_xy(float(lng[-1]), float(lat[-1]))
        assert x_end == pytest.approx(x_last)


class TestAnnotatedLocations:
    def test_immediate_confirmation_near_spot(self):
        trip = make_trip("t1", "c1", stops=[(100.0, 0.0, 60.0, 120.0)], waybills=[("a1", 130.0)])
        annos = annotated_locations([trip], PROJ)
        assert set(annos) == {"a1"}
        a = annos["a1"][0]
        assert np.hypot(a.x - 100.0, a.y) < 10.0
        assert a.trip_id == "t1"

    def test_delayed_confirmation_away_from_spot(self):
        """The core mis-annotation phenomenon: a late confirmation lands
        wherever the courier is at that moment."""
        trip = make_trip(
            "t1", "c1",
            stops=[(100.0, 0.0, 60.0, 120.0), (500.0, 0.0, 300.0, 120.0)],
            waybills=[("a1", 360.0)],  # delivered at stop 1, confirmed at stop 2
        )
        a = annotated_locations([trip], PROJ)["a1"][0]
        assert np.hypot(a.x - 500.0, a.y) < 10.0  # annotated at the wrong spot

    def test_multiple_trips_accumulate(self):
        trips = [
            make_trip(f"t{i}", "c1", stops=[(100.0, 0.0, 60.0, 120.0)], waybills=[("a1", 130.0)])
            for i in range(3)
        ]
        annos = annotated_locations(trips, PROJ)
        assert len(annos["a1"]) == 3

    def test_bit_equal_to_position_at_on_tiny_preset(self, tiny_workload):
        annos = annotated_locations(tiny_workload.trips, tiny_workload.projection)
        expected = {}
        for trip in tiny_workload.trips:
            for w in trip.waybills:
                x, y = position_at(trip, w.t_delivered, tiny_workload.projection)
                expected.setdefault(w.address_id, []).append((x, y, w.t_delivered, trip.trip_id))
        got = {a: [(e.x, e.y, e.t, e.trip_id) for e in events] for a, events in annos.items()}
        assert sum(map(len, got.values())) > 100
        hexed = {a: [(x.hex(), y.hex(), t, i) for x, y, t, i in rows] for a, rows in got.items()}
        assert hexed == {
            a: [(x.hex(), y.hex(), t, i) for x, y, t, i in rows] for a, rows in expected.items()
        }
        assert all(type(e.x) is float and type(e.y) is float for v in annos.values() for e in v)
