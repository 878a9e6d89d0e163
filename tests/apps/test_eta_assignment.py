import numpy as np
import pytest

from repro.apps import (
    AssignmentResult,
    ETAEstimator,
    ParcelAllocator,
    estimate_courier_speed,
)
from repro.serve import ShardedLocationStore
from tests.core.helpers import PROJ, make_address, make_trip, point_at


@pytest.fixture()
def line_store():
    addresses = {
        f"a{i}": make_address(f"a{i}", f"b{i}", (100.0 * (i + 1), 0.0)) for i in range(4)
    }
    locations = {f"a{i}": point_at(100.0 * (i + 1), 0.0) for i in range(4)}
    return ShardedLocationStore(locations, addresses), addresses


class TestETAEstimator:
    def test_sequential_etas(self, line_store):
        store, addresses = line_store
        est = ETAEstimator(store, PROJ, speed_mps=10.0, default_dwell_s=60.0)
        tour = [addresses["a0"], addresses["a1"]]
        etas = est.estimate(tour, start_xy=(0.0, 0.0))
        # 100 m at 10 m/s = 10 s to a0; dwell 60; +100 m = 10 s to a1.
        assert etas[0].eta_s == pytest.approx(10.0, abs=1.0)
        assert etas[0].etd_s == pytest.approx(70.0, abs=1.0)
        assert etas[1].eta_s == pytest.approx(80.0, abs=1.5)

    def test_dwell_overrides(self, line_store):
        store, addresses = line_store
        est = ETAEstimator(
            store, PROJ, speed_mps=10.0,
            dwell_s_by_address={"a0": 300.0}, default_dwell_s=60.0,
        )
        etas = est.estimate([addresses["a0"], addresses["a1"]], (0.0, 0.0))
        assert etas[0].etd_s - etas[0].eta_s == pytest.approx(300.0)

    def test_evaluate_against_actual(self, line_store):
        store, addresses = line_store
        est = ETAEstimator(store, PROJ, speed_mps=10.0)
        etas = est.estimate([addresses["a0"]], (0.0, 0.0))
        err = est.evaluate_against_actual(etas, {"a0": etas[0].eta_s + 30.0})
        assert err == pytest.approx(30.0)
        with pytest.raises(ValueError):
            est.evaluate_against_actual(etas, {})

    def test_validation(self, line_store):
        store, _ = line_store
        with pytest.raises(ValueError):
            ETAEstimator(store, PROJ, speed_mps=0.0)
        with pytest.raises(ValueError):
            ETAEstimator(store, PROJ, default_dwell_s=-1.0)

    def test_estimate_courier_speed_from_trips(self):
        trip = make_trip("t1", "c1", stops=[(600.0, 0.0, 200.0, 120.0)], waybills=[("a1", 250.0)])
        speed = estimate_courier_speed([trip])
        # Helper trips travel at 5 m/s in make_trip.
        assert 2.0 < speed < 8.0

    def test_estimate_speed_default_when_no_data(self):
        assert estimate_courier_speed([], default_mps=3.3) == 3.3


class TestParcelAllocator:
    def _spread_store(self, n=10):
        addresses = {}
        locations = {}
        rng = np.random.default_rng(0)
        for i in range(n):
            # Two geographic lobes.
            cx = 0.0 if i % 2 == 0 else 2_000.0
            x, y = cx + rng.uniform(-100, 100), rng.uniform(-100, 100)
            aid = f"a{i}"
            addresses[aid] = make_address(aid, f"b{i}", (x, y))
            locations[aid] = point_at(x, y)
        return ShardedLocationStore(locations, addresses), list(addresses.values())

    def test_balanced_two_couriers(self):
        store, addresses = self._spread_store()
        allocator = ParcelAllocator(store, PROJ)
        result = allocator.allocate(addresses, ["c1", "c2"], start_xy=(1_000.0, 0.0))
        assert isinstance(result, AssignmentResult)
        assigned = [a.address_id for lst in result.assignment.values() for a in lst]
        assert sorted(assigned) == sorted(a.address_id for a in addresses)
        # Geographic lobes should separate: each courier's tour much
        # shorter than a single courier doing everything.
        single = allocator.allocate(addresses, ["solo"], start_xy=(1_000.0, 0.0))
        assert result.makespan_m < single.makespan_m

    def test_empty_batch(self):
        store, _ = self._spread_store(2)
        allocator = ParcelAllocator(store, PROJ)
        result = allocator.allocate([], ["c1", "c2"], (0.0, 0.0))
        assert result.makespan_m == 0.0
        assert result.total_m == 0.0

    def test_more_couriers_than_addresses(self):
        store, addresses = self._spread_store(2)
        allocator = ParcelAllocator(store, PROJ)
        result = allocator.allocate(addresses, ["c1", "c2", "c3"], (0.0, 0.0))
        assigned = [a for lst in result.assignment.values() for a in lst]
        assert len(assigned) == 2

    def test_no_couriers_rejected(self):
        store, addresses = self._spread_store(2)
        with pytest.raises(ValueError):
            ParcelAllocator(store, PROJ).allocate(addresses, [], (0.0, 0.0))
