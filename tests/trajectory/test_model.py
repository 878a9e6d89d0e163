import numpy as np
import pytest

from repro.geo import Point
from repro.trajectory import Address, DeliveryTrip, StayPoint, TrajPoint, Trajectory, Waybill
from tests.trajectory.trip_reference import same_trajectory


def make_traj(courier="c1", n=5, t0=0.0, dt=10.0):
    pts = [TrajPoint(116.4 + i * 1e-4, 39.9, t0 + i * dt) for i in range(n)]
    return Trajectory(courier, pts)


class TestTrajectory:
    def test_len_and_iter(self):
        tr = make_traj(n=4)
        assert len(tr) == 4
        assert tr.t.tolist() == [0.0, 10.0, 20.0, 30.0]

    def test_chronological_enforced(self):
        pts = [TrajPoint(0.0, 0.0, 10.0), TrajPoint(0.0, 0.0, 5.0)]
        with pytest.raises(ValueError, match="not strictly chronological at t=5.0"):
            Trajectory("c", pts)

    def test_equal_timestamps_rejected(self):
        pts = [TrajPoint(0.0, 0.0, 10.0), TrajPoint(0.1, 0.0, 10.0)]
        with pytest.raises(ValueError):
            Trajectory("c", pts)

    def test_duration(self):
        assert make_traj(n=5, dt=10.0).duration_s == 40.0
        assert make_traj(n=1).duration_s == 0.0
        assert Trajectory("c", []).duration_s == 0.0

    def test_slice_time(self):
        tr = make_traj(n=5, dt=10.0)
        window = (tr.t >= 10.0) & (tr.t <= 30.0)
        sub = Trajectory.from_arrays(tr.courier_id, tr.lng[window], tr.lat[window], tr.t[window])
        assert sub.t.tolist() == [10.0, 20.0, 30.0]
        assert sub.courier_id == tr.courier_id

    def test_to_from_arrays_roundtrip(self):
        tr = make_traj(n=6)
        tr2 = Trajectory.from_arrays("c1", tr.lng, tr.lat, tr.t)
        assert same_trajectory(tr2, tr)

    def test_from_arrays_length_mismatch(self):
        with pytest.raises(ValueError):
            Trajectory.from_arrays("c", [0.0], [0.0, 1.0], [0.0])

    def test_empty_to_arrays(self):
        empty = Trajectory("c", [])
        lng, lat, t = empty.lng, empty.lat, empty.t
        assert lng.shape == (0,) and lat.shape == (0,) and t.shape == (0,)

    def test_columns_are_contiguous_read_only_float64(self):
        tr = make_traj(n=4)
        for column in (tr.lng, tr.lat, tr.t):
            assert column.dtype == np.float64 and column.flags.c_contiguous
            with pytest.raises(ValueError):
                column[0] = 1.0

    def test_nan_time_passes_the_chronology_check(self):
        # Only t[k+1] <= t[k] is rejected; a NaN compares false.
        tr = Trajectory("c", [(0.0, 0.0, 1.0), (0.0, 0.0, float("nan")), (0.0, 0.0, 0.5)])
        assert len(tr) == 3

    def test_points_must_be_triples(self):
        with pytest.raises(ValueError):
            Trajectory("c", [(0.0, 0.0), (1.0, 1.0)])

    def test_traj_point_point_property(self):
        assert TrajPoint(1.0, 2.0, 0.0).point == Point(1.0, 2.0)


class TestStayPoint:
    def test_time_is_midpoint(self):
        sp = StayPoint(116.4, 39.9, t_arrive=100.0, t_leave=200.0, courier_id="c")
        assert sp.t == 150.0
        assert sp.duration_s == 100.0

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            StayPoint(0.0, 0.0, t_arrive=10.0, t_leave=5.0, courier_id="c")

    def test_point_property(self):
        sp = StayPoint(116.4, 39.9, 0.0, 1.0, "c")
        assert sp.point == Point(116.4, 39.9)


class TestWaybill:
    def test_valid(self):
        w = Waybill("w1", "a1", t_received=0.0, t_delivered=100.0)
        assert w.address_id == "a1"

    def test_delivered_before_received(self):
        with pytest.raises(ValueError):
            Waybill("w1", "a1", t_received=100.0, t_delivered=50.0)


class TestAddress:
    def test_valid(self):
        a = Address("a1", "No.5 Sanyili", "b1", Point(116.4, 39.9), poi_category=3)
        assert a.building_id == "b1"

    def test_poi_category_range(self):
        with pytest.raises(ValueError):
            Address("a1", "x", "b1", Point(0.0, 0.0), poi_category=21)


class TestDeliveryTrip:
    def test_address_ids(self):
        tr = make_traj()
        trip = DeliveryTrip(
            "t1", "c1", 0.0, 100.0, tr,
            waybills=[
                Waybill("w1", "a1", 0.0, 50.0),
                Waybill("w2", "a1", 0.0, 60.0),
                Waybill("w3", "a2", 0.0, 70.0),
            ],
        )
        assert trip.address_ids == {"a1", "a2"}
        assert len(trip.waybills_for("a1")) == 2

    def test_time_order_enforced(self):
        with pytest.raises(ValueError):
            DeliveryTrip("t1", "c1", 100.0, 0.0, make_traj())

    def test_courier_mismatch(self):
        with pytest.raises(ValueError):
            DeliveryTrip("t1", "other", 0.0, 100.0, make_traj(courier="c1"))
