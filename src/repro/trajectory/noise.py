"""Heuristic GPS noise filtering.

Implements the standard preprocessing heuristics from trajectory data mining
(Zheng, "Trajectory Data Mining: An Overview"): duplicate-timestamp removal
and speed-based outlier rejection.  A fix is an outlier when the implied
speed from the previous *kept* fix exceeds ``max_speed_mps``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo import haversine_m, haversine_m_vec
from repro.trajectory.model import Trajectory

#: Relative band around ``max_speed_mps`` inside which a vectorised speed
#: is re-checked with the scalar :func:`haversine_m`; the two differ by a
#: few ulps, many orders of magnitude below it.
_SPEED_RTOL = 1e-9


@dataclass(frozen=True)
class NoiseFilterConfig:
    """Tuning knobs for :func:`filter_noise`.

    ``max_speed_mps`` defaults to 30 m/s — far above any courier on foot or
    tricycle, so only true GPS jumps are rejected.
    """

    max_speed_mps: float = 30.0
    min_dt_s: float = 1e-9

    def __post_init__(self) -> None:
        if self.max_speed_mps <= 0:
            raise ValueError("max_speed_mps must be positive")


def noise_kept(
    lng: np.ndarray, lat: np.ndarray, t: np.ndarray, config: NoiseFilterConfig | None = None
) -> np.ndarray:
    """Boolean mask of the fixes :func:`filter_noise` keeps.

    The first fix is always kept; each later fix is kept only when the
    speed from the last kept fix is at most ``config.max_speed_mps``.
    Speeds between neighbours are computed at once; a fix falls back to the
    scalar rule only when its predecessor was rejected or its speed lies
    within a relative ``1e-9`` of the limit.
    """
    config = config or NoiseFilterConfig()
    n = len(t)
    kept = np.ones(n, dtype=bool)
    if n < 2:
        return kept
    vmax = config.max_speed_mps
    dt = t[1:] - t[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        speed = haversine_m_vec(lng[:-1], lat[:-1], lng[1:], lat[1:]) / dt
    # Fix k + 1 after a kept fix k is surely kept, surely rejected, or too
    # close to the limit to tell without the scalar distance.
    sure_kept = (dt >= config.min_dt_s) & (speed <= vmax * (1.0 - _SPEED_RTOL))
    sure_rejected = (dt < config.min_dt_s) | (speed > vmax * (1.0 + _SPEED_RTOL))
    unsure = np.flatnonzero(~sure_kept) + 1
    if not unsure.size:
        return kept
    lng_l, lat_l, t_l = (memoryview(np.ascontiguousarray(a, dtype=float)) for a in (lng, lat, t))
    prev, k = 0, 1
    for first in unsure.tolist():
        if first < k:
            continue  # already decided by the scalar run below
        if first > k:
            prev = first - 1  # fixes k .. first - 1 were surely kept
        k = first
        # Scalar rule until a fix is kept right after its predecessor.
        while k < n:
            if prev == k - 1 and sure_rejected[prev]:
                kept[k] = False
            else:
                gap = t_l[k] - t_l[prev]
                if gap >= config.min_dt_s and (
                    haversine_m(lng_l[prev], lat_l[prev], lng_l[k], lat_l[k]) / gap <= vmax
                ):
                    prev = k
                else:
                    kept[k] = False
            k += 1
            if prev == k - 1:
                break
    return kept


def filter_noise(
    trajectory: Trajectory, config: NoiseFilterConfig | None = None
) -> Trajectory:
    """Return a copy of ``trajectory`` with outlier fixes removed.

    The first fix is always kept; each subsequent fix is kept only when the
    speed from the last kept fix is at most ``config.max_speed_mps``.
    """
    lng, lat, t = trajectory.lng, trajectory.lat, trajectory.t
    kept = noise_kept(lng, lat, t, config)
    return Trajectory.from_arrays(trajectory.courier_id, lng[kept], lat[kept], t[kept])
