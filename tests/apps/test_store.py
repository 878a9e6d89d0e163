import threading

import pytest

from repro.apps import QuerySource, UnknownAddressError
from repro.geo import Point
from repro.serve import ShardedLocationStore
from tests.core.helpers import make_address, point_at


@pytest.fixture()
def store():
    addresses = {
        "a1": make_address("a1", "b1", (0.0, 0.0)),
        "a2": make_address("a2", "b1", (5.0, 0.0)),
        "a3": make_address("a3", "b1", (10.0, 0.0)),
        "a4": make_address("a4", "b2", (500.0, 0.0)),
    }
    locations = {
        "a1": point_at(20.0, 0.0),
        "a2": point_at(20.0, 0.0),
        "a3": point_at(300.0, 0.0),  # locker preference
    }
    return ShardedLocationStore(locations, addresses), addresses


class TestQueryFallback:
    def test_address_tier(self, store):
        s, addresses = store
        result = s.query(addresses["a1"])
        assert result.source == QuerySource.ADDRESS
        assert result.location == point_at(20.0, 0.0)

    def test_building_tier_uses_most_common_location(self, store):
        s, _ = store
        # Unseen address in b1: the modal location (2 votes for the
        # doorstep at 20 m) wins over the locker.
        newcomer = make_address("new", "b1", (2.0, 2.0))
        result = s.query(newcomer)
        assert result.source == QuerySource.BUILDING
        x, _ = __import__("tests.core.helpers", fromlist=["PROJ"]).PROJ.to_xy(
            result.location.lng, result.location.lat
        )
        assert x == pytest.approx(20.0, abs=1.0)

    def test_geocode_tier(self, store):
        s, _ = store
        stranger = make_address("s", "unknown-building", (42.0, 0.0))
        result = s.query(stranger)
        assert result.source == QuerySource.GEOCODE
        assert result.location == stranger.geocode

    def test_query_id(self, store):
        s, _ = store
        assert s.query_id("a1").source == QuerySource.ADDRESS
        with pytest.raises(KeyError):
            s.query_id("missing")

    def test_query_id_raises_typed_unknown_address(self, store):
        s, _ = store
        with pytest.raises(UnknownAddressError) as excinfo:
            s.query_id("missing")
        assert excinfo.value.address_id == "missing"
        assert "missing" in str(excinfo.value)

    def test_update_refreshes_building_table(self, store):
        s, _ = store
        # Flip the b1 majority to the locker.
        s.update({"a1": point_at(300.0, 0.0), "a2": point_at(300.0, 0.0)})
        newcomer = make_address("new", "b1", (2.0, 2.0))
        result = s.query(newcomer)
        from tests.core.helpers import PROJ

        x, _ = PROJ.to_xy(result.location.lng, result.location.lat)
        assert x == pytest.approx(300.0, abs=1.0)

    def test_len(self, store):
        s, _ = store
        assert len(s) == 3

    def test_building_locations_copy(self, store):
        s, _ = store
        table = s.building_locations
        table["b1"] = Point(0.0, 0.0)
        assert s.building_locations["b1"] != Point(0.0, 0.0)


class TestConcurrentUpdate:
    """Regression: update swaps in a whole new generation; readers never see
    a half-mutated table while a concurrent query is resolving."""

    def test_query_hammered_during_updates(self):
        n_addresses = 64
        addresses = {
            f"a{i}": make_address(f"a{i}", f"b{i % 8}", (float(i), 0.0))
            for i in range(n_addresses)
        }
        base = {f"a{i}": point_at(float(i), 10.0) for i in range(n_addresses)}
        moved = {f"a{i}": point_at(float(i), 90.0) for i in range(n_addresses)}
        store = ShardedLocationStore(base, addresses)
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader() -> None:
            i = 0
            while not stop.is_set():
                try:
                    result = store.query(addresses[f"a{i % n_addresses}"])
                    assert result.source == QuerySource.ADDRESS
                    # Either generation is fine; a torn one is not.
                    assert result.location in (
                        base[f"a{i % n_addresses}"],
                        moved[f"a{i % n_addresses}"],
                    )
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
                    return
                i += 1

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for thread in threads:
            thread.start()
        for round_no in range(300):
            store.update(moved if round_no % 2 == 0 else base)
        stop.set()
        for thread in threads:
            thread.join()
        assert errors == []
