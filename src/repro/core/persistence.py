"""Save/load the inferred address→location table.

The deployed system (Section VI-A) separates offline inference from online
queries; this table is the seam: offline inference writes it as plain JSON
and the query store serves it.  The file is replaced atomically
(:func:`repro.durable.write_text`).
"""

from __future__ import annotations

import json
import pathlib
from typing import Union

from repro.durable import write_text
from repro.geo import Point

PathLike = Union[str, pathlib.Path]


def save_locations(locations: dict[str, Point], path: PathLike) -> None:
    """Write an address→location table as JSON (the store's payload)."""
    payload = {a: p.as_tuple() for a, p in sorted(locations.items())}
    write_text(path, json.dumps(payload))


def load_locations(path: PathLike) -> dict[str, Point]:
    """Read a table previously written by :func:`save_locations`."""
    payload = json.loads(pathlib.Path(path).read_text())
    return {a: Point(lng, lat) for a, (lng, lat) in payload.items()}
