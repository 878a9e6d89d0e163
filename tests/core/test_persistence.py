from repro.core import load_locations, save_locations
from repro.geo import Point


class TestLocationsRoundtrip:
    def test_roundtrip(self, tmp_path):
        locations = {"a1": Point(116.4, 39.9), "a2": Point(116.41, 39.91)}
        path = tmp_path / "loc.json"
        save_locations(locations, path)
        assert load_locations(path) == locations
