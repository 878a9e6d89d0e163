"""Store edge cases beyond the fallback happy paths."""

import pytest

from repro.apps import QuerySource
from repro.serve import ShardedLocationStore
from tests.core.helpers import make_address, point_at


class TestStoreEdges:
    def test_empty_store_geocodes_everything(self):
        store = ShardedLocationStore({}, {})
        probe = make_address("x", "bX", (0.0, 0.0))
        result = store.query(probe)
        assert result.source == QuerySource.GEOCODE
        assert result.location == probe.geocode

    def test_location_for_unknown_address_ignored_in_building_table(self):
        # A location keyed by an address missing from the book cannot vote.
        store = ShardedLocationStore(
            {"ghost": point_at(0.0, 0.0)},
            {"a1": make_address("a1", "b1", (0.0, 0.0))},
        )
        assert store.building_locations == {}
        # But the address tier still answers for the ghost id via query_id?
        with pytest.raises(KeyError):
            store.query_id("ghost")

    def test_tie_between_locations_resolves_deterministically(self):
        addresses = {
            "a1": make_address("a1", "b1", (0.0, 0.0)),
            "a2": make_address("a2", "b1", (1.0, 0.0)),
        }
        store = ShardedLocationStore(
            {"a1": point_at(10.0, 0.0), "a2": point_at(50.0, 0.0)}, addresses
        )
        first = store.building_locations["b1"]
        for _ in range(5):
            again = ShardedLocationStore(
                {"a1": point_at(10.0, 0.0), "a2": point_at(50.0, 0.0)}, addresses
            ).building_locations["b1"]
            assert again == first

    def test_update_with_new_address(self):
        addresses = {"a1": make_address("a1", "b1", (0.0, 0.0))}
        store = ShardedLocationStore({}, addresses)
        assert store.query_id("a1").source == QuerySource.GEOCODE
        store.update({"a1": point_at(25.0, 0.0)})
        assert store.query_id("a1").source == QuerySource.ADDRESS
        assert len(store) == 1
