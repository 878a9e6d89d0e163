import pytest

from repro.baselines import AnnotationBaseline, GeoCloudBaseline, GeocodingBaseline
from tests.core.helpers import PROJ, make_address, make_trip


@pytest.fixture()
def crafted():
    """Two trips: one clean confirmation at the spot (100, 0), one badly
    delayed confirmation annotated at (500, 0)."""
    trips = [
        make_trip("t1", "c1", stops=[(100.0, 0.0, 60.0, 120.0)], waybills=[("a1", 130.0)]),
        make_trip("t2", "c1", stops=[(100.0, 0.0, 60.0, 120.0)], waybills=[("a1", 131.0)]),
        make_trip(
            "t3", "c1",
            stops=[(100.0, 0.0, 60.0, 120.0), (500.0, 0.0, 300.0, 120.0)],
            waybills=[("a1", 360.0)],
        ),
    ]
    addresses = {"a1": make_address("a1", "b1", (90.0, 0.0))}
    return trips, addresses


class TestGeocodingBaseline:
    def test_returns_geocode(self, crafted):
        trips, addresses = crafted
        m = GeocodingBaseline().fit(trips, addresses, {}, [])
        preds = m.predict(["a1", "missing"])
        assert set(preds) == {"a1"}
        assert preds["a1"] == addresses["a1"].geocode


class TestAnnotationBaseline:
    def test_centroid_pulled_by_misannotation(self, crafted):
        trips, addresses = crafted
        m = AnnotationBaseline().fit(trips, addresses, {}, [], projection=PROJ)
        pred = m.predict(["a1"])["a1"]
        x, y = PROJ.to_xy(pred.lng, pred.lat)
        # Centroid of ~(100, 100, 500) — far from the true 100.
        assert x == pytest.approx(233.0, abs=25.0)

    def test_geocode_fallback_without_annotations(self, crafted):
        trips, addresses = crafted
        addresses = dict(addresses)
        addresses["lonely"] = make_address("lonely", "b2", (0.0, 0.0))
        m = AnnotationBaseline().fit(trips, addresses, {}, [], projection=PROJ)
        assert m.predict(["lonely"])["lonely"] == addresses["lonely"].geocode


class TestGeoCloudBaseline:
    def test_biggest_cluster_rejects_misannotation(self, crafted):
        """DBSCAN keeps the two good annotations and drops the outlier —
        the reason GeoCloud beats Annotation under mild delays."""
        trips, addresses = crafted
        m = GeoCloudBaseline(eps_m=50.0, min_pts=1).fit(trips, addresses, {}, [], projection=PROJ)
        pred = m.predict(["a1"])["a1"]
        x, _ = PROJ.to_xy(pred.lng, pred.lat)
        assert x == pytest.approx(100.0, abs=20.0)

    def test_beats_plain_annotation_on_crafted_case(self, crafted):
        trips, addresses = crafted
        anno = AnnotationBaseline().fit(trips, addresses, {}, [], projection=PROJ)
        cloud = GeoCloudBaseline().fit(trips, addresses, {}, [], projection=PROJ)
        true_x = 100.0
        def err(m):
            p = m.predict(["a1"])["a1"]
            x, y = PROJ.to_xy(p.lng, p.lat)
            return abs(x - true_x)
        assert err(cloud) < err(anno)

    def test_single_annotation(self):
        trips = [make_trip("t1", "c1", stops=[(100.0, 0.0, 60.0, 120.0)], waybills=[("a1", 130.0)])]
        addresses = {"a1": make_address("a1", "b1", (90.0, 0.0))}
        m = GeoCloudBaseline().fit(trips, addresses, {}, [], projection=PROJ)
        pred = m.predict(["a1"])["a1"]
        x, _ = PROJ.to_xy(pred.lng, pred.lat)
        assert x == pytest.approx(100.0, abs=15.0)
