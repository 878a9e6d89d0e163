"""Local equirectangular projection: lng/lat degrees <-> meters."""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from repro.geo.distance import EARTH_RADIUS_M
from repro.geo.point import Point

ArrayLike = Union[float, np.ndarray]


class LocalProjection:
    """A metric plane tangent to the Earth at an origin point.

    ``x`` grows eastward and ``y`` northward, both in meters.  Over a
    city-scale extent (tens of km) the distortion is negligible for the
    clustering and feature computations in this library.
    """

    def __init__(self, origin: Point) -> None:
        self.origin = origin
        self._cos_lat = math.cos(math.radians(origin.lat))
        self._m_per_deg_lat = math.pi * EARTH_RADIUS_M / 180.0
        self._m_per_deg_lng = self._m_per_deg_lat * self._cos_lat
        self._lng0 = float(origin.lng)
        self._lat0 = float(origin.lat)

    def to_xy(self, lng: ArrayLike, lat: ArrayLike) -> tuple[ArrayLike, ArrayLike]:
        """Project lng/lat degrees to local x/y meters."""
        if isinstance(lng, (float, int)) and isinstance(lat, (float, int)):
            # The same two float64 operations as the array path, so the
            # result is bit-identical, without converting to arrays.
            return (
                (float(lng) - self._lng0) * self._m_per_deg_lng,
                (float(lat) - self._lat0) * self._m_per_deg_lat,
            )
        x = (np.asarray(lng, dtype=float) - self.origin.lng) * self._m_per_deg_lng
        y = (np.asarray(lat, dtype=float) - self.origin.lat) * self._m_per_deg_lat
        if np.ndim(x) == 0:
            return float(x), float(y)
        return x, y

    def to_lnglat(self, x: ArrayLike, y: ArrayLike) -> tuple[ArrayLike, ArrayLike]:
        """Unproject local x/y meters back to lng/lat degrees."""
        lng = np.asarray(x, dtype=float) / self._m_per_deg_lng + self.origin.lng
        lat = np.asarray(y, dtype=float) / self._m_per_deg_lat + self.origin.lat
        if np.ndim(lng) == 0:
            return float(lng), float(lat)
        return lng, lat

    def project_point(self, point: Point) -> tuple[float, float]:
        """Project a :class:`Point` to x/y meters."""
        return self.to_xy(point.lng, point.lat)  # type: ignore[return-value]

    def unproject_point(self, x: float, y: float) -> Point:
        """Unproject x/y meters to a :class:`Point`."""
        lng, lat = self.to_lnglat(x, y)
        return Point(float(lng), float(lat))
