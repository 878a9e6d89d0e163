"""Application 1 (Section VI-B): route planning for new couriers.

Plans a delivery tour for a batch of waybills three ways — on geocoded
locations, on DLInfMA-inferred locations, and on the (normally unknown)
ground truth — then scores each plan by how long the tour *actually* is
when the courier walks to the real delivery locations in the planned
order.  Inferred locations should recover most of the gap between the
geocode plan and the oracle plan.

Run:  python examples/route_planning.py
"""

import numpy as np

from repro.apps import RoutePlanner, route_length
from repro.core import DLInfMA, DLInfMAConfig
from repro.eval import Workload
from repro.serve import ShardedLocationStore
from repro.synth import downbj_config, generate_dataset


def actual_tour_length(city, order, start_xy) -> float:
    """Length of a tour executed over the TRUE delivery locations."""
    true_points = np.array(
        [city.projection.to_xy(*_true(city, a).as_tuple()) for a in order]
    )
    return route_length(true_points, list(range(len(order))), start_xy)


def _true(city, address):
    return city.true_location(address.address_id)


def main() -> None:
    dataset = generate_dataset(downbj_config(seed=3))
    workload = Workload.from_dataset(dataset)
    city = dataset.city

    print("Fitting DLInfMA for the location store ...")
    model = DLInfMA(DLInfMAConfig())
    model.fit(
        workload.trips, workload.addresses, workload.ground_truth,
        workload.train_ids, workload.val_ids, projection=workload.projection,
    )
    delivered = dataset.delivered_address_ids
    inferred_store = ShardedLocationStore(model.predict(delivered), workload.addresses)
    geocode_store = ShardedLocationStore(
        {a: workload.addresses[a].geocode for a in delivered}, workload.addresses
    )
    oracle_store = ShardedLocationStore(
        {a: workload.ground_truth[a] for a in delivered}, workload.addresses
    )

    # A new courier gets a batch of 12 waybills in the test region.
    rng = np.random.default_rng(0)
    batch_ids = list(rng.choice(workload.test_ids, size=min(12, len(workload.test_ids)), replace=False))
    batch = [workload.addresses[a] for a in batch_ids]
    start_xy = city.station_xy
    print(f"\nPlanning a tour over {len(batch)} waybills from the station ...")

    rows = []
    for label, store in [
        ("geocoded locations", geocode_store),
        ("DLInfMA locations", inferred_store),
        ("ground truth (oracle)", oracle_store),
    ]:
        planner = RoutePlanner(store, city.projection)
        order, planned_len = planner.plan(batch, start_xy)
        actual_len = actual_tour_length(city, order, start_xy)
        rows.append((label, planned_len, actual_len))

    print(f"\n{'planned on':<24} {'planned(m)':>12} {'actual(m)':>12}")
    print("-" * 50)
    for label, planned, actual in rows:
        print(f"{label:<24} {planned:12.0f} {actual:12.0f}")

    geo_actual = rows[0][2]
    ours_actual = rows[1][2]
    oracle_actual = rows[2][2]
    if geo_actual > oracle_actual:
        recovered = (geo_actual - ours_actual) / (geo_actual - oracle_actual) * 100.0
        print(f"\nDLInfMA recovers {recovered:.0f}% of the geocode-vs-oracle tour gap.")


if __name__ == "__main__":
    main()
