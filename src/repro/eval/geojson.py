"""GeoJSON export for visual inspection of results.

Produces FeatureCollections viewable in any GIS tool (kepler.gl,
geojson.io): the synthetic city (buildings, lockers, receptions), the
candidate pool, and per-address prediction-vs-truth segments.  Pure JSON —
no plotting dependencies.
"""

from __future__ import annotations

import json
from typing import Mapping

from repro.durable import write_text
from repro.geo import Point


def _feature(geometry: dict, properties: dict) -> dict:
    return {"type": "Feature", "geometry": geometry, "properties": properties}


def _point(lng: float, lat: float) -> dict:
    return {"type": "Point", "coordinates": [lng, lat]}


def city_to_geojson(city) -> dict:
    """The synthetic city as a FeatureCollection (buildings + spots)."""
    features = []
    for building in city.buildings.values():
        lng, lat = city.projection.to_lnglat(building.x, building.y)
        features.append(
            _feature(
                _point(float(lng), float(lat)),
                {"kind": "building", "id": building.building_id, "name": building.name},
            )
        )
    for spot in city.spots.values():
        lng, lat = city.projection.to_lnglat(spot.x, spot.y)
        features.append(
            _feature(
                _point(float(lng), float(lat)),
                {"kind": spot.kind.value, "id": spot.spot_id, "block": spot.block_id},
            )
        )
    return {"type": "FeatureCollection", "features": features}


def pool_to_geojson(pool) -> dict:
    """A candidate pool as a FeatureCollection of weighted points."""
    features = [
        _feature(
            _point(c.lng, c.lat),
            {"kind": "candidate", "id": c.candidate_id, "weight": c.weight},
        )
        for c in pool.candidates
    ]
    return {"type": "FeatureCollection", "features": features}


def predictions_to_geojson(
    predictions: Mapping[str, Point],
    ground_truth: Mapping[str, Point] | None = None,
) -> dict:
    """Predictions (and, when available, error segments to the truth)."""
    from repro.geo import haversine_m

    features = []
    for address_id, pred in sorted(predictions.items()):
        features.append(
            _feature(
                _point(pred.lng, pred.lat),
                {"kind": "prediction", "address_id": address_id},
            )
        )
        truth = (ground_truth or {}).get(address_id)
        if truth is not None:
            error = haversine_m(pred.lng, pred.lat, truth.lng, truth.lat)
            features.append(
                _feature(
                    {
                        "type": "LineString",
                        "coordinates": [
                            [pred.lng, pred.lat],
                            [truth.lng, truth.lat],
                        ],
                    },
                    {"kind": "error", "address_id": address_id, "error_m": round(error, 1)},
                )
            )
    return {"type": "FeatureCollection", "features": features}


def write_geojson(payload: dict, path) -> None:
    """Write a FeatureCollection to disk (atomic replace)."""
    write_text(path, json.dumps(payload))
