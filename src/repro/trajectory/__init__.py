"""Trajectory data model and preprocessing (noise filtering, stay points)."""

from repro.trajectory.model import TrajPoint, Trajectory, StayPoint
from repro.trajectory.logistics import Address, Waybill, DeliveryTrip
from repro.trajectory.noise import filter_noise, noise_kept, NoiseFilterConfig
from repro.trajectory.staypoint import (
    StayPointConfig,
    detect_stay_points,
    stay_points_of,
    stay_spans,
    stays_of_spans,
)
from repro.trajectory.segmentation import SegmentationConfig, segment_trips

__all__ = [
    "SegmentationConfig",
    "segment_trips",
    "TrajPoint",
    "Trajectory",
    "StayPoint",
    "Address",
    "Waybill",
    "DeliveryTrip",
    "filter_noise",
    "noise_kept",
    "NoiseFilterConfig",
    "detect_stay_points",
    "stay_points_of",
    "stay_spans",
    "stays_of_spans",
    "StayPointConfig",
]
