"""Deployment-store query types and the two downstream applications."""

from repro.apps.store import (
    QueryResult,
    QuerySource,
    UnknownAddressError,
)
from repro.apps.routing import (
    RoutePlanner,
    nearest_neighbor_order,
    plan_route,
    route_length,
    two_opt,
)
from repro.apps.availability import (
    AvailabilityModel,
    AvailabilityProfile,
    actual_delivery_times,
)

__all__ = [
    "QueryResult",
    "QuerySource",
    "UnknownAddressError",
    "RoutePlanner",
    "nearest_neighbor_order",
    "plan_route",
    "route_length",
    "two_opt",
    "AvailabilityModel",
    "AvailabilityProfile",
    "actual_delivery_times",
]
