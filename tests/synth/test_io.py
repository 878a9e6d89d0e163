from repro.synth.io import (
    load_addresses,
    load_ground_truth,
    load_trips,
    save_addresses,
    save_ground_truth,
    save_trips,
    trip_from_dict,
    trip_to_dict,
)
from tests.trajectory.trip_reference import same_trajectory


class TestTripsRoundtrip:
    def test_dict_roundtrip(self, tiny_dataset):
        trip = tiny_dataset.trips[0]
        again = trip_from_dict(trip_to_dict(trip))
        assert again.trip_id == trip.trip_id
        assert again.courier_id == trip.courier_id
        assert again.waybills == trip.waybills
        assert same_trajectory(again.trajectory, trip.trajectory)

    def test_file_roundtrip(self, tiny_dataset, tmp_path):
        path = tmp_path / "trips.jsonl"
        save_trips(tiny_dataset.trips, path)
        loaded = load_trips(path)
        assert len(loaded) == len(tiny_dataset.trips)
        assert [t.trip_id for t in loaded] == [t.trip_id for t in tiny_dataset.trips]
        assert loaded[0].waybills == tiny_dataset.trips[0].waybills


class TestAddressesRoundtrip:
    def test_roundtrip(self, tiny_dataset, tmp_path):
        path = tmp_path / "addresses.json"
        save_addresses(tiny_dataset.addresses, path)
        loaded = load_addresses(path)
        assert loaded == tiny_dataset.addresses


class TestGroundTruthRoundtrip:
    def test_roundtrip(self, tiny_dataset, tmp_path):
        path = tmp_path / "gt.json"
        save_ground_truth(tiny_dataset.ground_truth, path)
        assert load_ground_truth(path) == tiny_dataset.ground_truth
