"""Grid-merging location generation (the DLInfMA-Grid variant).

Discretizes the plane into ``cell_m`` x ``cell_m`` cells of the static cell
grid (:func:`repro.geo.grid.cell_rows`) and emits one location per
non-empty cell (the centroid of its points).  As the paper notes, two
stays that straddle a cell border yield two near-duplicate locations --
the weakness DLInfMA-Grid exposes.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.types import Cluster
from repro.geo.grid import cell_rows


def grid_merge(coords: np.ndarray, cell_m: float) -> list[Cluster]:
    """Bucket ``(n, 2)`` meter coordinates into square cells.

    Returns one :class:`Cluster` per occupied cell, in the order of each
    cell's first point, centered on the mean of the cell's points.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or (coords.size and coords.shape[1] != 2):
        raise ValueError(f"coords must be (n, 2), got shape {coords.shape}")
    clusters = []
    for members in cell_rows(coords, cell_m):
        pts = coords[members]
        clusters.append(
            Cluster(
                x=float(pts[:, 0].mean()),
                y=float(pts[:, 1].mean()),
                weight=float(len(members)),
                members=members.tolist(),
            )
        )
    return clusters
