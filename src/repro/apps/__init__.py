"""Deployment store, query service and the two downstream applications."""

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
from repro.apps.service import DeliveryLocationService, ServiceStats
from repro.apps.eta import ETAEstimator, StopETA, estimate_courier_speed
from repro.apps.assignment import AssignmentResult, ParcelAllocator

__all__ = [
    "ETAEstimator",
    "StopETA",
    "estimate_courier_speed",
    "AssignmentResult",
    "ParcelAllocator",
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
    "DeliveryLocationService",
    "ServiceStats",
]
