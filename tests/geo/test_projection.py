import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geo import LocalProjection, Point, haversine_m

BEIJING = Point(116.40, 39.90)


class TestLocalProjection:
    def test_origin_maps_to_zero(self):
        proj = LocalProjection(BEIJING)
        x, y = proj.to_xy(BEIJING.lng, BEIJING.lat)
        assert x == pytest.approx(0.0)
        assert y == pytest.approx(0.0)

    def test_roundtrip_scalar(self):
        proj = LocalProjection(BEIJING)
        lng, lat = proj.to_lnglat(*proj.to_xy(116.45, 39.95))
        assert lng == pytest.approx(116.45, abs=1e-12)
        assert lat == pytest.approx(39.95, abs=1e-12)

    def test_roundtrip_arrays(self):
        proj = LocalProjection(BEIJING)
        rng = np.random.default_rng(3)
        lng = BEIJING.lng + rng.uniform(-0.05, 0.05, 100)
        lat = BEIJING.lat + rng.uniform(-0.05, 0.05, 100)
        x, y = proj.to_xy(lng, lat)
        lng2, lat2 = proj.to_lnglat(x, y)
        np.testing.assert_allclose(lng2, lng, atol=1e-12)
        np.testing.assert_allclose(lat2, lat, atol=1e-12)

    def test_agrees_with_haversine_at_city_scale(self):
        proj = LocalProjection(BEIJING)
        other = Point(116.44, 39.93)
        x, y = proj.to_xy(other.lng, other.lat)
        planar = float(np.hypot(x, y))
        spherical = haversine_m(BEIJING.lng, BEIJING.lat, other.lng, other.lat)
        # City scale: equirectangular should agree within 0.1%.
        assert planar == pytest.approx(spherical, rel=1e-3)

    def test_north_is_positive_y(self):
        proj = LocalProjection(BEIJING)
        _, y = proj.to_xy(BEIJING.lng, BEIJING.lat + 0.01)
        assert y > 0

    def test_east_is_positive_x(self):
        proj = LocalProjection(BEIJING)
        x, _ = proj.to_xy(BEIJING.lng + 0.01, BEIJING.lat)
        assert x > 0

    @given(
        st.floats(min_value=-0.05, max_value=0.05),
        st.floats(min_value=-0.05, max_value=0.05),
    )
    def test_roundtrip_property(self, dlng, dlat):
        proj = LocalProjection(BEIJING)
        lng, lat = BEIJING.lng + dlng, BEIJING.lat + dlat
        lng2, lat2 = proj.to_lnglat(*proj.to_xy(lng, lat))
        assert lng2 == pytest.approx(lng, abs=1e-9)
        assert lat2 == pytest.approx(lat, abs=1e-9)

    def test_project_point_helpers(self):
        proj = LocalProjection(BEIJING)
        p = Point(116.41, 39.91)
        x, y = proj.project_point(p)
        back = proj.unproject_point(x, y)
        assert back.lng == pytest.approx(p.lng, abs=1e-12)
        assert back.lat == pytest.approx(p.lat, abs=1e-12)


class TestScalarArrayParity:
    """A scalar ``to_xy`` is the array call's element, bit for bit."""

    @pytest.mark.parametrize("origin", [BEIJING, Point(-58.38, -34.60), Point(151.2, -33.9),
                                        Point(-122.4, 37.8)])
    def test_scalar_equals_array_element(self, origin):
        proj = LocalProjection(origin)
        rng = np.random.default_rng(11)
        lng = np.concatenate([origin.lng + rng.uniform(-0.5, 0.5, 200),
                              rng.uniform(-180.0, 180.0, 50),
                              np.trunc(rng.uniform(-180.0, 180.0, 10)), [np.nan, 0.0]])
        lat = np.concatenate([origin.lat + rng.uniform(-0.5, 0.5, 200),
                              rng.uniform(-90.0, 90.0, 50),
                              np.trunc(rng.uniform(-90.0, 90.0, 10)), [1.0, np.nan]])
        want_x, want_y = proj.to_xy(lng, lat)
        as_ints = [(int(a), int(b)) for a, b in zip(lng[250:260], lat[250:260])]
        cases = {
            "float": list(zip(lng.tolist(), lat.tolist())),
            "float64": list(zip(lng, lat)),
            "int": as_ints,
            "int-float": [(a, float(b)) for a, b in as_ints],
        }
        for kind, pairs in cases.items():
            first = 250 if kind.startswith("int") else 0
            got = [proj.to_xy(a, b) for a, b in pairs]
            assert all(type(v) is float for xy in got for v in xy), kind
            got_x, got_y = np.array(got).T
            span = slice(first, first + len(pairs))
            assert got_x.tobytes() == want_x[span].tobytes(), kind
            assert got_y.tobytes() == want_y[span].tobytes(), kind
