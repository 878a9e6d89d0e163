"""Pure-python GeoHash encoding and decoding.

GeoHash 8 cells are roughly 38 m x 19 m at mid latitudes; the UNet-based
baseline (Section V) rasterizes annotated locations onto a 9 x 9 grid of
GeoHash-8 cells.  The serving tier reuses the cells as a routing key: a
:class:`~repro.serve.shard.GeohashShardStrategy` sends an address to a
shard by hashing its cell.
"""

from __future__ import annotations

from repro.geo.bbox import BBox
from repro.geo.point import Point

_BASE32 = "0123456789bcdefghjkmnpqrstuvwxyz"
_BASE32_INDEX = {c: i for i, c in enumerate(_BASE32)}


def geohash_encode(lng: float, lat: float, precision: int = 8) -> str:
    """Encode a lng/lat pair into a GeoHash string of ``precision`` chars."""
    if precision < 1:
        raise ValueError("precision must be >= 1")
    lat_lo, lat_hi = -90.0, 90.0
    lng_lo, lng_hi = -180.0, 180.0
    bits = []
    even = True  # longitude bit first
    while len(bits) < precision * 5:
        if even:
            mid = (lng_lo + lng_hi) / 2.0
            if lng >= mid:
                bits.append(1)
                lng_lo = mid
            else:
                bits.append(0)
                lng_hi = mid
        else:
            mid = (lat_lo + lat_hi) / 2.0
            if lat >= mid:
                bits.append(1)
                lat_lo = mid
            else:
                bits.append(0)
                lat_hi = mid
        even = not even
    chars = []
    for i in range(0, len(bits), 5):
        value = 0
        for b in bits[i : i + 5]:
            value = (value << 1) | b
        chars.append(_BASE32[value])
    return "".join(chars)


def geohash_bbox(geohash: str) -> BBox:
    """The bounding box covered by a GeoHash cell."""
    if not geohash:
        raise ValueError("empty geohash")
    lat_lo, lat_hi = -90.0, 90.0
    lng_lo, lng_hi = -180.0, 180.0
    even = True
    for char in geohash:
        try:
            value = _BASE32_INDEX[char]
        except KeyError:
            raise ValueError(f"invalid geohash character: {char!r}") from None
        for shift in range(4, -1, -1):
            bit = (value >> shift) & 1
            if even:
                mid = (lng_lo + lng_hi) / 2.0
                if bit:
                    lng_lo = mid
                else:
                    lng_hi = mid
            else:
                mid = (lat_lo + lat_hi) / 2.0
                if bit:
                    lat_lo = mid
                else:
                    lat_hi = mid
            even = not even
    return BBox(lng_lo, lat_lo, lng_hi, lat_hi)


def geohash_decode(geohash: str) -> Point:
    """The center point of a GeoHash cell."""
    return geohash_bbox(geohash).center
