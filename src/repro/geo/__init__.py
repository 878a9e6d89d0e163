"""Geospatial primitives: points, distances, projections, GeoHash, cell grid.

All distances are in meters.  Coordinates are WGS84 longitude/latitude in
degrees unless a function name says otherwise.  City-scale algorithms work in
a local equirectangular projection (meters), which is accurate to well under
a meter over the few-kilometre extents this library deals with.
"""

from repro.geo.point import Point
from repro.geo.bbox import BBox
from repro.geo.distance import (
    EARTH_RADIUS_M,
    haversine_m,
    haversine_m_vec,
    euclidean_m,
)
from repro.geo.projection import LocalProjection
from repro.geo.geohash import geohash_encode, geohash_decode, geohash_bbox

__all__ = [
    "Point",
    "BBox",
    "EARTH_RADIUS_M",
    "haversine_m",
    "haversine_m_vec",
    "euclidean_m",
    "LocalProjection",
    "geohash_encode",
    "geohash_decode",
    "geohash_bbox",
]
