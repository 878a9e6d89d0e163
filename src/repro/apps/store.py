"""Query vocabulary of the deployed system's delivery-location store.

Section VI-A: inference results are stored address-keyed; a building-keyed
table holds each building's *most used* delivery location so addresses
never seen in history still get a sensible answer; the geocode is the last
resort.  Queries report which tier answered.

This module holds the types every store speaks — :class:`QueryResult`,
:class:`QuerySource`, :class:`UnknownAddressError` — and the building vote
(:func:`aggregate_building_locations`).  The one in-process store is
:class:`repro.serve.shard.ShardedLocationStore`; its columnar file form,
mapped by worker processes, is :mod:`repro.serve.columnar`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum

from repro.geo import Point
from repro.trajectory import Address


class UnknownAddressError(KeyError):
    """Raised when a lookup names an address id outside the address book.

    Subclasses :class:`KeyError` so callers that guarded against the old
    raw ``KeyError`` keep working, while new callers (the serving tier's
    router, the CLI) can catch the typed miss explicitly and map it to a
    structured "unknown address" response instead of a crash.
    """

    def __init__(self, address_id: str) -> None:
        super().__init__(address_id)
        self.address_id = address_id

    def __str__(self) -> str:
        return f"unknown address id: {self.address_id!r}"


class QuerySource(Enum):
    """Which tier of the store answered a query."""

    ADDRESS = "address"
    BUILDING = "building"
    GEOCODE = "geocode"


@dataclass(frozen=True)
class QueryResult:
    """A resolved delivery location and its provenance.

    ``confidence`` is the scorer's probability for the served candidate
    (a publisher-supplied value in columnar snapshots); table lookups
    that carry no score leave it ``None``.
    """

    location: Point
    source: QuerySource
    confidence: float | None = None


def aggregate_building_locations(
    address_locations: dict[str, Point], addresses: dict[str, Address]
) -> dict[str, Point]:
    """Most frequently used location per building (mode over addresses).

    Ties break on the larger rounded ``(lng, lat)``, so the vote is
    deterministic.  Locations keyed by ids outside ``addresses`` do not
    vote.
    """
    votes: dict[str, Counter] = defaultdict(Counter)
    for address_id, point in address_locations.items():
        address = addresses.get(address_id)
        if address is None:
            continue
        key = (round(point.lng, 6), round(point.lat, 6))
        votes[address.building_id][key] += 1
    return {
        building: Point(*max(counter.items(), key=lambda kv: (kv[1], kv[0]))[0])
        for building, counter in votes.items()
    }
