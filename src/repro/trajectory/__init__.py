"""Trajectory data model and preprocessing (noise filtering, stay points)."""

from repro.trajectory.model import TrajPoint, Trajectory, StayPoint
from repro.trajectory.logistics import Address, Waybill, DeliveryTrip
from repro.trajectory.noise import filter_noise, noise_kept, NoiseFilterConfig
from repro.trajectory.staypoint import detect_stay_points, stay_points_of, StayPointConfig
from repro.trajectory.segmentation import SegmentationConfig, segment_trips
from repro.trajectory.simplify import douglas_peucker, path_length_m
from repro.trajectory.interpolation import (
    moving_fraction,
    position_at_times,
    resample,
    speeds_mps,
)

__all__ = [
    "moving_fraction",
    "position_at_times",
    "resample",
    "speeds_mps",
    "SegmentationConfig",
    "segment_trips",
    "douglas_peucker",
    "path_length_m",
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
    "StayPointConfig",
]
