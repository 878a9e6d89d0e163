import pytest
from hypothesis import given, strategies as st

from repro.geo import geohash_bbox, geohash_decode, geohash_encode

lng_st = st.floats(min_value=-179.9, max_value=179.9, allow_nan=False)
lat_st = st.floats(min_value=-89.9, max_value=89.9, allow_nan=False)


class TestGeohashEncode:
    def test_known_value(self):
        # Reference value for a canonical coordinate (57.64911, 10.40744).
        assert geohash_encode(10.40744, 57.64911, precision=11) == "u4pruydqqvj"

    def test_precision_prefix_consistency(self):
        full = geohash_encode(116.404, 39.915, precision=10)
        for p in range(1, 10):
            assert geohash_encode(116.404, 39.915, precision=p) == full[:p]

    def test_invalid_precision(self):
        with pytest.raises(ValueError):
            geohash_encode(0.0, 0.0, precision=0)


class TestGeohashDecode:
    @given(lng_st, lat_st)
    def test_roundtrip_within_cell(self, lng, lat):
        gh = geohash_encode(lng, lat, precision=8)
        box = geohash_bbox(gh)
        assert box.min_lng <= lng <= box.max_lng
        assert box.min_lat <= lat <= box.max_lat

    def test_decode_is_cell_center(self):
        gh = geohash_encode(116.404, 39.915, precision=8)
        center = geohash_decode(gh)
        box = geohash_bbox(gh)
        assert center.lng == pytest.approx((box.min_lng + box.max_lng) / 2)
        assert center.lat == pytest.approx((box.min_lat + box.max_lat) / 2)

    def test_geohash8_cell_size(self):
        # GeoHash-8 cells are ~38m x 19m (paper Section V-B).
        from repro.geo import haversine_m

        box = geohash_bbox(geohash_encode(116.404, 39.915, precision=8))
        width = haversine_m(box.min_lng, box.center.lat, box.max_lng, box.center.lat)
        height = haversine_m(box.center.lng, box.min_lat, box.center.lng, box.max_lat)
        assert 25 < width < 40
        assert 15 < height < 22

    def test_invalid_characters(self):
        with pytest.raises(ValueError):
            geohash_bbox("abcai")  # 'a' and 'i' are not base32 geohash chars
        with pytest.raises(ValueError):
            geohash_bbox("")
