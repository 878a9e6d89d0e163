"""GeoHash edge cases: poles, dateline, precision extremes."""

import pytest

from repro.geo import geohash_bbox, geohash_decode, geohash_encode


class TestGeohashEdges:
    def test_north_pole(self):
        gh = geohash_encode(0.0, 90.0, precision=6)
        box = geohash_bbox(gh)
        assert box.max_lat == pytest.approx(90.0, abs=0.1)

    def test_dateline_east(self):
        gh = geohash_encode(179.99, 0.0, precision=7)
        center = geohash_decode(gh)
        assert center.lng == pytest.approx(179.99, abs=0.01)

    def test_dateline_west(self):
        gh = geohash_encode(-179.99, 0.0, precision=7)
        box = geohash_bbox(gh)
        assert box.min_lng >= -180.0

    def test_precision_one(self):
        gh = geohash_encode(116.4, 39.9, precision=1)
        assert len(gh) == 1
        box = geohash_bbox(gh)
        assert box.contains(geohash_decode(gh))

    def test_high_precision_tiny_cell(self):
        gh = geohash_encode(116.4, 39.9, precision=12)
        box = geohash_bbox(gh)
        assert (box.max_lng - box.min_lng) < 1e-6

    def test_equator_prime_meridian(self):
        gh = geohash_encode(0.0, 0.0, precision=8)
        center = geohash_decode(gh)
        assert abs(center.lng) < 0.001
        assert abs(center.lat) < 0.001

