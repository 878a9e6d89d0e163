"""Pure-python GeoHash encoding/decoding plus a packed-cell spatial index.

GeoHash 8 cells are roughly 38 m x 19 m at mid latitudes; the UNet-based
baseline (Section V) rasterizes annotated locations onto a 9 x 9 grid of
GeoHash-8 cells.

The serving tier reuses the same cells for two jobs: a
:class:`~repro.serve.shard.GeohashShardStrategy` routes an address to a
shard by hashing its cell, and :class:`GeohashSpatialIndex` answers
nearest-candidate queries by expanding :func:`geohash_ring` rings around
the query cell instead of scanning every point.  Cells pack into uint64
codes (5 bits per character) so the index is a trio of flat numpy arrays
that serializes directly into the columnar snapshot file
(:mod:`repro.serve.columnar`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.geo.bbox import BBox
from repro.geo.distance import haversine_m, haversine_m_vec
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


def geohash_neighbors(geohash: str) -> list[str]:
    """The 8 surrounding cells (re-encoded from offset centers)."""
    return geohash_ring(geohash, 1)


def geohash_ring(geohash: str, k: int) -> list[str]:
    """Cells at Chebyshev distance exactly ``k`` from ``geohash``.

    ``k == 0`` is the cell itself; ``k == 1`` is the classic 8-neighbor
    ring.  Cells are re-encoded from offset centers and deduplicated.
    Longitude offsets wrap across the antimeridian (a ring around a cell
    near lng 180 includes cells near lng -180); latitude offsets past
    the poles are dropped, so rings near the poles shrink instead of
    raising.
    """
    if k < 0:
        raise ValueError(f"ring distance must be >= 0: {k}")
    if k == 0:
        return [geohash]
    box = geohash_bbox(geohash)
    dlng = box.max_lng - box.min_lng
    dlat = box.max_lat - box.min_lat
    center = box.center
    offsets: list[tuple[int, int]] = []
    for dx in range(-k, k + 1):
        offsets.append((dx, -k))
        offsets.append((dx, k))
    for dy in range(-k + 1, k):
        offsets.append((-k, dy))
        offsets.append((k, dy))
    out: list[str] = []
    seen: set[str] = set()
    precision = len(geohash)
    for dx, dy in offsets:
        lat = center.lat + dy * dlat
        if not -90.0 <= lat <= 90.0:
            continue
        lng = ((center.lng + dx * dlng + 180.0) % 360.0) - 180.0
        cell = geohash_encode(lng, lat, precision)
        if cell not in seen:
            seen.add(cell)
            out.append(cell)
    return out


# ---------------------------------------------------------------------------
# Packed cells: a geohash string <-> one uint64 (5 bits per character)
# ---------------------------------------------------------------------------

#: Longest geohash that still packs into an unsigned 64-bit integer.
MAX_PACKED_PRECISION = 12


def geohash_pack(geohash: str) -> int:
    """Pack a geohash string into one integer, 5 bits per character.

    Only cells of equal precision compare meaningfully; the columnar
    snapshot stores the precision next to the packed array.
    """
    if not geohash:
        raise ValueError("empty geohash")
    if len(geohash) > MAX_PACKED_PRECISION:
        raise ValueError(f"geohash too long to pack: {geohash!r}")
    value = 0
    for char in geohash:
        try:
            value = (value << 5) | _BASE32_INDEX[char]
        except KeyError:
            raise ValueError(f"invalid geohash character: {char!r}") from None
    return value


def geohash_unpack(code: int, precision: int) -> str:
    """Inverse of :func:`geohash_pack` for a known precision."""
    if precision < 1 or precision > MAX_PACKED_PRECISION:
        raise ValueError(f"invalid precision: {precision}")
    chars = []
    for i in range(precision):
        chars.append(_BASE32[(code >> (5 * (precision - 1 - i))) & 0x1F])
    return "".join(chars)


def geohash_pack_vec(
    lngs: np.ndarray, lats: np.ndarray, precision: int
) -> np.ndarray:
    """Packed geohash codes for arrays of coordinates, fully vectorized.

    Bit-exact with ``geohash_pack(geohash_encode(lng, lat, precision))``:
    geohash encoding is binary subdivision, so the lng/lat bit strings are
    just the top bits of the quantized coordinates, interleaved starting
    with longitude.
    """
    if precision < 1 or precision > MAX_PACKED_PRECISION:
        raise ValueError(f"invalid precision: {precision}")
    lngs = np.asarray(lngs, dtype=np.float64)
    lats = np.asarray(lats, dtype=np.float64)
    total_bits = precision * 5
    n_lng_bits = (total_bits + 1) // 2  # longitude bit comes first
    n_lat_bits = total_bits // 2
    lng_q = np.floor((lngs + 180.0) / 360.0 * (1 << n_lng_bits)).astype(np.uint64)
    lat_q = np.floor((lats + 90.0) / 180.0 * (1 << n_lat_bits)).astype(np.uint64)
    np.minimum(lng_q, np.uint64((1 << n_lng_bits) - 1), out=lng_q)
    np.minimum(lat_q, np.uint64((1 << n_lat_bits) - 1), out=lat_q)
    codes = np.zeros(lngs.shape, dtype=np.uint64)
    lng_shift, lat_shift = n_lng_bits, n_lat_bits
    for bit in range(total_bits):
        if bit % 2 == 0:
            lng_shift -= 1
            next_bit = (lng_q >> np.uint64(lng_shift)) & np.uint64(1)
        else:
            lat_shift -= 1
            next_bit = (lat_q >> np.uint64(lat_shift)) & np.uint64(1)
        codes = (codes << np.uint64(1)) | next_bit
    return codes


class GeohashSpatialIndex:
    """Nearest-candidate retrieval over geohash cells, ring by ring.

    Points are bucketed by their packed geohash cell; :meth:`nearest`
    expands :func:`geohash_ring` rings around the query cell and stops as
    soon as the best hit provably beats anything a farther ring could
    hold (a point beyond ring ``k`` is at least ``k`` cell extents away,
    with cell extents measured at the query latitude).  The index is three flat arrays — sorted unique cell
    codes, bucket offsets, and the row permutation — so it mmaps straight
    out of a columnar snapshot file without rebuild.
    """

    def __init__(
        self,
        lngs: np.ndarray,
        lats: np.ndarray,
        precision: int,
        cell_codes: np.ndarray,
        cell_starts: np.ndarray,
        cell_rows: np.ndarray,
    ) -> None:
        self.lngs = np.asarray(lngs, dtype=np.float64)
        self.lats = np.asarray(lats, dtype=np.float64)
        self.precision = precision
        self.cell_codes = np.asarray(cell_codes, dtype=np.uint64)
        self.cell_starts = np.asarray(cell_starts, dtype=np.int64)
        self.cell_rows = np.asarray(cell_rows, dtype=np.int64)

    @classmethod
    def build(
        cls, lngs: np.ndarray, lats: np.ndarray, precision: int = 6
    ) -> "GeohashSpatialIndex":
        """Bucket ``(lngs, lats)`` rows by packed geohash cell."""
        lngs = np.asarray(lngs, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        if lngs.shape != lats.shape or lngs.ndim != 1:
            raise ValueError("lngs/lats must be 1-d arrays of equal length")
        codes = geohash_pack_vec(lngs, lats, precision)
        order = np.argsort(codes, kind="stable").astype(np.int64)
        sorted_codes = codes[order]
        unique_codes, starts = np.unique(sorted_codes, return_index=True)
        cell_starts = np.empty(len(unique_codes) + 1, dtype=np.int64)
        cell_starts[:-1] = starts
        cell_starts[-1] = len(sorted_codes)
        return cls(lngs, lats, precision, unique_codes, cell_starts, order)

    def __len__(self) -> int:
        return int(self.lngs.shape[0])

    def rows_in_cells(self, codes: np.ndarray) -> np.ndarray:
        """All row indices bucketed under any of the packed ``codes``."""
        codes = np.asarray(codes, dtype=np.uint64)
        pos = np.searchsorted(self.cell_codes, codes)
        pos = np.minimum(pos, len(self.cell_codes) - 1) if len(self.cell_codes) else pos
        chunks = []
        for p, code in zip(pos, codes):
            if len(self.cell_codes) and self.cell_codes[p] == code:
                chunks.append(self.cell_rows[self.cell_starts[p] : self.cell_starts[p + 1]])
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)

    #: Latitude beyond which cell widths collapse and the ring bound
    #: would demand thousands of rings; :meth:`nearest` scans linearly.
    POLAR_LAT = 85.0

    def _cell_extent_m(self, cell: str, lat: float) -> float:
        """The smaller cell dimension in meters, measured at ``lat``.

        Measured at the *actual* query latitude: the termination bound
        needs a lower bound on cell width, and widths only shrink as
        ``|lat|`` grows, so clamping toward the equator would overstate
        the extent and let the ring search stop early near the poles.
        """
        box = geohash_bbox(cell)
        width = haversine_m(box.min_lng, lat, box.max_lng, lat)
        height = haversine_m(box.min_lng, box.min_lat, box.min_lng, box.max_lat)
        return max(1e-9, min(width, height))

    def nearest(self, lng: float, lat: float) -> tuple[int, float] | None:
        """``(row, distance_m)`` of the closest indexed point, or ``None``.

        Ring search: scan ring ``k`` around the query cell, keep the best
        hit, and stop once ``best_d <= k * min_cell_extent`` — no point in
        ring ``k+1`` or beyond can be closer.  Falls back to
        :meth:`nearest_linear` if the rings exhaust the data extent
        without a hit (query far outside the indexed area).
        """
        n = len(self)
        if n == 0:
            return None
        if abs(lat) > self.POLAR_LAT:
            # Near the poles one ring step covers only meters of
            # longitude; the exact scan is cheaper than the thousands
            # of rings the termination bound would require.
            return self.nearest_linear(lng, lat)
        query_cell = geohash_encode(lng, lat, self.precision)
        extent = self._cell_extent_m(query_cell, lat)
        far = max(
            haversine_m(lng, lat, float(self.lngs[i]), float(self.lats[i]))
            for i in (int(np.argmin(self.lngs)), int(np.argmax(self.lngs)),
                      int(np.argmin(self.lats)), int(np.argmax(self.lats)))
        )
        max_ring = min(2048, int(math.ceil(far / extent)) + 1)
        best_row, best_d = -1, math.inf
        for ring in range(max_ring + 1):
            cells = geohash_ring(query_cell, ring)
            codes = np.array([geohash_pack(c) for c in cells], dtype=np.uint64)
            rows = self.rows_in_cells(codes)
            if rows.size:
                d = haversine_m_vec(self.lngs[rows], self.lats[rows], lng, lat)
                i = int(np.argmin(d))
                if float(d[i]) < best_d:
                    best_d = float(d[i])
                    best_row = int(rows[i])
            if best_row >= 0 and best_d <= ring * extent:
                return best_row, best_d
        # Rings exhausted without a provable stop: the remaining points sit
        # beyond the scanned extent, so only the exact scan can rank them.
        return self.nearest_linear(lng, lat)

    def nearest_linear(self, lng: float, lat: float) -> tuple[int, float] | None:
        """Reference linear scan; parity oracle for :meth:`nearest`."""
        if len(self) == 0:
            return None
        d = haversine_m_vec(self.lngs, self.lats, lng, lat)
        row = int(np.argmin(d))
        return row, float(d[row])
