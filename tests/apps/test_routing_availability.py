import numpy as np
import pytest

from repro.apps import (
    AvailabilityModel,
    RoutePlanner,
    actual_delivery_times,
    nearest_neighbor_order,
    plan_route,
    route_length,
    two_opt,
)
from repro.core import extract_trip_stay_points
from repro.serve import ShardedLocationStore
from tests.core.helpers import PROJ, make_address, make_trip, point_at


class TestTSP:
    def test_empty_and_single(self):
        assert plan_route(np.empty((0, 2)), (0, 0)) == []
        assert plan_route(np.array([[5.0, 5.0]]), (0, 0)) == [0]

    def test_route_length_math(self):
        points = np.array([[3.0, 4.0], [3.0, 8.0]])
        assert route_length(points, [0, 1], (0.0, 0.0)) == pytest.approx(9.0)

    def test_nearest_neighbor_orders_line(self):
        points = np.array([[30.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
        assert nearest_neighbor_order(points, (0.0, 0.0)) == [1, 2, 0]

    def test_two_opt_fixes_crossing(self):
        # NN from origin can zigzag; 2-opt must untangle to monotone order.
        points = np.array([[10.0, 0.0], [12.0, 10.0], [20.0, 0.0], [22.0, 10.0]])
        nn = nearest_neighbor_order(points, (0.0, 0.0))
        improved = two_opt(points, nn, (0.0, 0.0))
        assert route_length(points, improved, (0.0, 0.0)) <= route_length(
            points, nn, (0.0, 0.0)
        )

    def test_plan_route_beats_random_orders(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(0, 500, size=(12, 2))
        tour = plan_route(points, (0.0, 0.0))
        assert sorted(tour) == list(range(12))
        our_len = route_length(points, tour, (0.0, 0.0))
        for _ in range(20):
            perm = list(rng.permutation(12))
            assert our_len <= route_length(points, perm, (0.0, 0.0)) + 1e-9

    def test_route_planner_resolves_store_locations(self):
        addresses = {
            "a1": make_address("a1", "b1", (0.0, 0.0)),
            "a2": make_address("a2", "b2", (0.0, 0.0)),
        }
        store = ShardedLocationStore(
            {"a1": point_at(100.0, 0.0), "a2": point_at(50.0, 0.0)}, addresses
        )
        planner = RoutePlanner(store, PROJ)
        order, length = planner.plan([addresses["a1"], addresses["a2"]], (0.0, 0.0))
        assert [a.address_id for a in order] == ["a2", "a1"]
        assert length == pytest.approx(100.0, abs=1.0)

    def test_route_planner_empty(self):
        store = ShardedLocationStore({}, {})
        order, length = RoutePlanner(store, PROJ).plan([], (0.0, 0.0))
        assert order == [] and length == 0.0


class TestActualDeliveryTimes:
    def test_recovers_time_despite_delayed_confirmation(self):
        """A waybill confirmed at the second stop still maps to the stay
        at the inferred location (the first stop)."""
        trip = make_trip(
            "t1", "c1",
            stops=[(100.0, 0.0, 60.0, 120.0), (500.0, 0.0, 300.0, 120.0)],
            waybills=[("a1", 380.0)],  # delayed confirmation
        )
        stays = extract_trip_stay_points([trip])
        times = actual_delivery_times(
            [trip], stays, {"a1": point_at(100.0, 0.0)}, PROJ
        )
        assert len(times["a1"]) == 1
        # Actual delivery happened during the first dwell (~60..180 s).
        assert 50.0 <= times["a1"][0] <= 200.0

    def test_recorded_fallback_when_no_stay_nearby(self):
        trip = make_trip(
            "t1", "c1", stops=[(100.0, 0.0, 60.0, 120.0)], waybills=[("a1", 150.0)]
        )
        stays = extract_trip_stay_points([trip])
        times = actual_delivery_times(
            [trip], stays, {"a1": point_at(2_000.0, 0.0)}, PROJ, radius_m=30.0
        )
        assert times["a1"] == [150.0]

    def test_unknown_address_skipped(self):
        trip = make_trip("t1", "c1", stops=[(100.0, 0.0, 60.0, 120.0)], waybills=[("a1", 150.0)])
        stays = extract_trip_stay_points([trip])
        assert actual_delivery_times([trip], stays, {}, PROJ) == {}


class TestAvailabilityModel:
    def test_profile_peaks_at_delivery_hour(self):
        # Deliveries at 10:00 on several days.
        times = [day * 86_400.0 + 10 * 3_600.0 for day in range(10)]
        model = AvailabilityModel().fit({"a1": times})
        profile = model.profile("a1")
        hourly = profile.hourly()
        assert hourly.argmax() == 10

    def test_windows_detects_contiguous_block(self):
        times = []
        for day in range(7):
            for hour in (9, 10, 11):
                times.append(day * 86_400.0 + hour * 3_600.0)
        profile = AvailabilityModel().fit({"a": times}).profile("a")
        windows = profile.windows(threshold=0.5)
        assert windows == [(9, 12)]

    def test_weekday_resolution(self):
        # Deliveries only on weekday 0.
        times = [0 * 86_400.0 + 14 * 3_600.0, 7 * 86_400.0 + 14 * 3_600.0]
        profile = AvailabilityModel().fit({"a": times}).profile("a")
        assert profile.prob(0, 14) > profile.prob(3, 14)

    def test_unknown_address(self):
        model = AvailabilityModel().fit({})
        with pytest.raises(KeyError):
            model.profile("ghost")

    def test_invalid_smoothing(self):
        with pytest.raises(ValueError):
            AvailabilityModel(smoothing=-1.0)
