"""Building-level inference (Section II: "our solution can also be easily
adapted to building-level inference") and the deployed store's fallback.

Fits DLInfMA at address level, derives building-level locations two ways —
(a) the store's mode-over-addresses aggregation and (b) direct
building-level feature extraction + the trained selector — and shows how a
never-seen address is answered by the building tier.

Run:  python examples/building_level.py
"""

from collections import Counter

import numpy as np

from repro.apps import QuerySource
from repro.core import DLInfMA, DLInfMAConfig, infer_building_locations
from repro.eval import Workload, evaluate
from repro.geo import haversine_m
from repro.serve import ShardedLocationStore
from repro.synth import downbj_config, generate_dataset
from repro.trajectory import Address


def building_ground_truth(dataset):
    """Most common true delivery spot per building."""
    votes = {}
    for record in dataset.city.addresses.values():
        votes.setdefault(record.building_id, Counter())[record.spot_id] += 1
    out = {}
    for building_id, counter in votes.items():
        spot = dataset.city.spots[counter.most_common(1)[0][0]]
        out[building_id] = dataset.city.projection.unproject_point(spot.x, spot.y)
    return out


def main() -> None:
    dataset = generate_dataset(downbj_config(seed=11))
    workload = Workload.from_dataset(dataset)

    print("Fitting DLInfMA at address level ...")
    model = DLInfMA(DLInfMAConfig())
    model.fit(
        workload.trips, workload.addresses, workload.ground_truth,
        workload.train_ids, workload.val_ids, projection=workload.projection,
    )
    delivered = dataset.delivered_address_ids
    address_locations = model.predict(delivered)

    buildings = sorted({workload.addresses[a].building_id for a in delivered})
    truth = building_ground_truth(dataset)

    # (a) store aggregation: mode of member addresses' inferred locations.
    store = ShardedLocationStore(address_locations, workload.addresses)
    store_locations = {
        b: p for b, p in store.building_locations.items() if b in truth
    }
    # (b) direct building-level inference with the trained selector.
    direct_locations = infer_building_locations(model.extractor, model.selector, buildings)

    res_store = evaluate(store_locations, truth)
    res_direct = evaluate({b: p for b, p in direct_locations.items() if b in truth}, truth)
    print(f"\nBuilding-level accuracy over {len(buildings)} buildings:")
    print(f"  store aggregation (mode):   MAE {res_store.mae:6.1f} m  β50 {res_store.beta50:5.1f}%")
    print(f"  direct building inference:  MAE {res_direct.mae:6.1f} m  β50 {res_direct.beta50:5.1f}%")

    # A brand-new address in a known building: the fallback chain answers.
    known_building = buildings[0]
    member = next(a for a in delivered if workload.addresses[a].building_id == known_building)
    newcomer = Address(
        address_id="new-customer",
        text="never seen before, same building",
        building_id=known_building,
        geocode=workload.addresses[member].geocode,
        poi_category=0,
    )
    result = store.query(newcomer)
    err = haversine_m(
        result.location.lng, result.location.lat,
        truth[known_building].lng, truth[known_building].lat,
    )
    print(f"\nNever-seen address in building {known_building}:")
    print(f"  answered by the {result.source.value!r} tier, {err:.1f} m from the "
          "building's modal delivery location")
    assert result.source == QuerySource.BUILDING


if __name__ == "__main__":
    main()
