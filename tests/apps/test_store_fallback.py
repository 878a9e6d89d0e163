"""Fallback-chain coverage in isolation: each tier's ``source`` label.

The serving latency histogram is labeled by ``QueryResult.source.value``;
these tests pin the three tier labels at the store level.
"""

import pytest

from repro.apps import QuerySource
from repro.serve import ShardedLocationStore
from tests.core.helpers import make_address, point_at


@pytest.fixture()
def tiers():
    """A world where each tier is the unique answer for one probe."""
    addresses = {
        "hit": make_address("hit", "b-located", (0.0, 0.0)),
        "sibling": make_address("sibling", "b-located", (4.0, 0.0)),
        "cold": make_address("cold", "b-located", (8.0, 0.0)),
        "orphan": make_address("orphan", "b-empty", (400.0, 0.0)),
    }
    locations = {
        "hit": point_at(15.0, 0.0),
        "sibling": point_at(15.0, 0.0),
    }
    return addresses, locations


class TestTierLabels:
    def test_address_tier_label(self, tiers):
        addresses, locations = tiers
        store = ShardedLocationStore(locations, addresses)
        result = store.query(addresses["hit"])
        assert result.source == QuerySource.ADDRESS
        assert result.source.value == "address"
        assert result.location == locations["hit"]

    def test_building_tier_label(self, tiers):
        addresses, locations = tiers
        store = ShardedLocationStore(locations, addresses)
        # "cold" was never inferred, but its building has located
        # siblings: the modal sibling location answers.
        result = store.query(addresses["cold"])
        assert result.source == QuerySource.BUILDING
        assert result.source.value == "building"
        # The building table rounds coordinates to 6 decimals when voting.
        assert result.location.lng == pytest.approx(locations["hit"].lng, abs=1e-6)
        assert result.location.lat == pytest.approx(locations["hit"].lat, abs=1e-6)

    def test_geocode_tier_label(self, tiers):
        addresses, locations = tiers
        store = ShardedLocationStore(locations, addresses)
        # "orphan" has neither an inferred location nor located
        # building-mates: the raw geocode is the last resort.
        result = store.query(addresses["orphan"])
        assert result.source == QuerySource.GEOCODE
        assert result.source.value == "geocode"
        assert result.location == addresses["orphan"].geocode

    def test_all_labels_are_distinct_and_stable(self):
        assert {s.value for s in QuerySource} == {
            "address", "building", "geocode",
        }

