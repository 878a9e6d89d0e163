"""Dataset serialization: trips, addresses and ground truth as JSON lines.

Lets generated worlds be shared between processes (e.g. the CLI's
``generate`` then ``evaluate`` commands) without re-simulating.  A trip's
fixes are written as ``[[lng, lat, t], ...]`` and read straight back into
the trajectory's arrays, so save -> load -> save is byte-identical.  Every
writer replaces its file atomically (:mod:`repro.durable`), so a crash
mid-save leaves the previous file, never a truncated one.
"""

from __future__ import annotations

import json
import pathlib
from typing import Union

import numpy as np

from repro.durable import atomic_write, write_text
from repro.geo import Point
from repro.trajectory import Address, DeliveryTrip, Trajectory, Waybill

PathLike = Union[str, pathlib.Path]


def trip_to_dict(trip: DeliveryTrip) -> dict:
    """JSON-serializable form of a delivery trip."""
    traj = trip.trajectory
    return {
        "trip_id": trip.trip_id,
        "courier_id": trip.courier_id,
        "t_start": trip.t_start,
        "t_end": trip.t_end,
        "trajectory": np.stack((traj.lng, traj.lat, traj.t), axis=1).tolist(),
        "waybills": [
            [w.waybill_id, w.address_id, w.t_received, w.t_delivered]
            for w in trip.waybills
        ],
    }


def trip_from_dict(payload: dict) -> DeliveryTrip:
    """Inverse of :func:`trip_to_dict`."""
    trajectory = Trajectory(payload["courier_id"], payload["trajectory"])
    waybills = [
        Waybill(wid, aid, t_rec, t_del)
        for wid, aid, t_rec, t_del in payload["waybills"]
    ]
    return DeliveryTrip(
        trip_id=payload["trip_id"],
        courier_id=payload["courier_id"],
        t_start=payload["t_start"],
        t_end=payload["t_end"],
        trajectory=trajectory,
        waybills=waybills,
    )


def save_trips(trips: list[DeliveryTrip], path: PathLike) -> None:
    """Write trips as JSON lines, streamed one trip at a time."""

    def write(handle) -> None:
        for trip in trips:
            handle.write((json.dumps(trip_to_dict(trip)) + "\n").encode("utf-8"))

    atomic_write(path, write)


def load_trips(path: PathLike) -> list[DeliveryTrip]:
    """Read trips previously written by :func:`save_trips`."""
    trips = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                trips.append(trip_from_dict(json.loads(line)))
    return trips


def save_addresses(addresses: dict[str, Address], path: PathLike) -> None:
    """Write the address book as JSON."""
    payload = {
        a.address_id: {
            "text": a.text,
            "building_id": a.building_id,
            "geocode": a.geocode.as_tuple(),
            "poi_category": a.poi_category,
        }
        for a in addresses.values()
    }
    write_text(path, json.dumps(payload))


def load_addresses(path: PathLike) -> dict[str, Address]:
    """Inverse of :func:`save_addresses`."""
    payload = json.loads(pathlib.Path(path).read_text())
    return {
        address_id: Address(
            address_id=address_id,
            text=entry["text"],
            building_id=entry["building_id"],
            geocode=Point(*entry["geocode"]),
            poi_category=entry["poi_category"],
        )
        for address_id, entry in payload.items()
    }


def save_ground_truth(ground_truth: dict[str, Point], path: PathLike) -> None:
    """Write ground-truth delivery locations as JSON."""
    payload = {a: p.as_tuple() for a, p in sorted(ground_truth.items())}
    write_text(path, json.dumps(payload))


def load_ground_truth(path: PathLike) -> dict[str, Point]:
    """Inverse of :func:`save_ground_truth`."""
    payload = json.loads(pathlib.Path(path).read_text())
    return {a: Point(lng, lat) for a, (lng, lat) in payload.items()}
