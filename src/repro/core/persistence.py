"""Save/load fitted DLInfMA artifacts.

The deployed system (Section VI-A) separates offline inference from online
queries; persistence is the seam: a fitted pipeline's pool, profiles and
LocMatcher weights go to disk as ``.npz`` + JSON, and the inferred
address→location table as plain JSON for the query store.  Every file is
replaced atomically (:func:`repro.durable.write_text`,
:func:`repro.durable.write_npz`).
"""

from __future__ import annotations

import json
import pathlib
from typing import Union

import numpy as np

from repro.core.candidates import CandidatePool, LocationCandidate, LocationProfile, TIME_BINS
from repro.core.locmatcher import LocMatcherSelector
from repro.durable import write_npz, write_text
from repro.geo import LocalProjection, Point
from repro.trajectory import StayPoint

PathLike = Union[str, pathlib.Path]


def save_stay_points(stay_points_by_trip: dict[str, list[StayPoint]], path: PathLike) -> None:
    """Write per-trip stay points as JSON (the extraction-stage artifact)."""
    payload = {
        trip_id: [
            [sp.lng, sp.lat, sp.t_arrive, sp.t_leave, sp.courier_id, sp.n_points]
            for sp in stays
        ]
        for trip_id, stays in stay_points_by_trip.items()
    }
    write_text(path, json.dumps(payload))


def load_stay_points(path: PathLike) -> dict[str, list[StayPoint]]:
    """Read stay points previously written by :func:`save_stay_points`."""
    payload = json.loads(pathlib.Path(path).read_text())
    return {
        trip_id: [
            StayPoint(lng, lat, t_arrive, t_leave, courier_id, n_points)
            for lng, lat, t_arrive, t_leave, courier_id, n_points in rows
        ]
        for trip_id, rows in payload.items()
    }


def save_candidate_pool(pool: CandidatePool, path: PathLike) -> None:
    """Write a candidate pool (with projection origin) as JSON."""
    payload = {
        "origin": pool.projection.origin.as_tuple(),
        "candidates": [
            {
                "candidate_id": c.candidate_id,
                "x": c.x,
                "y": c.y,
                "lng": c.lng,
                "lat": c.lat,
                "weight": c.weight,
            }
            for c in pool.candidates
        ],
    }
    write_text(path, json.dumps(payload))


def load_candidate_pool(path: PathLike) -> CandidatePool:
    """Read a pool previously written by :func:`save_candidate_pool`."""
    payload = json.loads(pathlib.Path(path).read_text())
    projection = LocalProjection(Point(*payload["origin"]))
    candidates = [LocationCandidate(**c) for c in payload["candidates"]]
    return CandidatePool(candidates, projection)


def save_profiles(profiles: dict[int, LocationProfile], path: PathLike) -> None:
    """Write location profiles as a compressed ``.npz``."""
    ids = np.array(sorted(profiles), dtype=int)
    data = np.stack([profiles[int(i)].as_vector() for i in ids]) if len(ids) else np.zeros((0, 2 + TIME_BINS))
    write_npz(path, {"ids": ids, "data": data})


def load_profiles(path: PathLike) -> dict[int, LocationProfile]:
    """Read profiles previously written by :func:`save_profiles`."""
    archive = np.load(pathlib.Path(path))
    out: dict[int, LocationProfile] = {}
    for i, row in zip(archive["ids"], archive["data"]):
        out[int(i)] = LocationProfile(
            avg_duration_s=float(row[0]),
            n_couriers=int(row[1]),
            time_hist=row[2:].copy(),
        )
    return out


def save_locmatcher(selector: LocMatcherSelector, path: PathLike) -> None:
    """Write a fitted LocMatcher's weights + normalization state (.npz)."""
    if selector.net is None:
        raise RuntimeError("selector is not fitted")
    state = {f"param::{k}": v for k, v in selector.net.state_dict().items()}
    state["scaler_mean"] = (
        selector.scaler.mean_ if selector.scaler.mean_ is not None else np.zeros(0)
    )
    state["scaler_scale"] = (
        selector.scaler.scale_ if selector.scaler.scale_ is not None else np.zeros(0)
    )
    state["deliv_norm"] = np.array([selector._deliv_mean, selector._deliv_std])
    write_npz(path, state)


def load_locmatcher_into(selector: LocMatcherSelector, path: PathLike) -> LocMatcherSelector:
    """Load weights into a selector built with the *same* configs.

    The caller constructs the selector (feature + model config define the
    architecture) and this restores the trained state, so no training data
    is needed at serving time.
    """
    from repro.core.locmatcher import LocMatcherNet

    archive = np.load(pathlib.Path(path))
    if selector.net is None:
        selector.net = LocMatcherNet(
            n_scalar=len(selector.feature_config.scalar_columns()),
            hist_dim=len(selector.feature_config.hist_columns()),
            config=selector.config,
            use_address_context=selector.feature_config.use_address,
        )
    params = {
        k[len("param::"):]: archive[k] for k in archive.files if k.startswith("param::")
    }
    selector.net.load_state_dict(params)
    selector.net.eval()
    mean = archive["scaler_mean"]
    scale = archive["scaler_scale"]
    if mean.size:
        selector.scaler.mean_ = mean
        selector.scaler.scale_ = scale
    selector._deliv_mean, selector._deliv_std = map(float, archive["deliv_norm"])
    return selector


def save_locations(locations: dict[str, Point], path: PathLike) -> None:
    """Write an address→location table as JSON (the store's payload)."""
    payload = {a: p.as_tuple() for a, p in sorted(locations.items())}
    write_text(path, json.dumps(payload))


def load_locations(path: PathLike) -> dict[str, Point]:
    """Read a table previously written by :func:`save_locations`."""
    payload = json.loads(pathlib.Path(path).read_text())
    return {a: Point(lng, lat) for a, (lng, lat) in payload.items()}
