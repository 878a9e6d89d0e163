"""One static grid of square cells over ``(n, 2)`` projected meter coordinates.

Cell ``(floor(x / cell), floor(y / cell))`` is one key ``kx * w + ky`` (``ky``
shifted to ``1 .. w - 2``), sorted by one stable argsort: each cell's rows are
one run of it, ascending, and cells ``(kx, ky - 1 .. ky + 1)`` one key range.
:func:`cell_rows` bins (DLInfMA-Grid); :func:`pairs_within` finds all pairs
within a radius (hierarchical seed pairs, DBSCAN neighbourhoods).
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

#: Candidate pairs examined per block of :func:`pairs_within`: its scratch
#: arrays stay near 400 KB however many points are searched.
CANDIDATE_BLOCK = 1 << 12


def _sorted_keys(
    coords: np.ndarray, cell_m: float, mins: list[float], maxs: list[float]
) -> tuple[np.ndarray, np.ndarray, float]:
    """Rows in cell order, their sorted keys and the key width, from the
    per-axis ``mins`` and ``maxs`` of ``coords`` (division and ``floor`` are
    monotone).  Keys are exact float64 integers below 2**53."""
    if not all(map(math.isfinite, mins + maxs)):
        raise ValueError("coords must be finite")
    kx0, ky0 = math.floor(mins[0] / cell_m), math.floor(mins[1] / cell_m)
    w = math.floor(maxs[1] / cell_m) - ky0 + 3
    if (math.floor(maxs[0] / cell_m) - kx0 + 1) * w >= 2**53:
        raise ValueError("cell size too small for the coordinates' extent")
    k = np.floor(coords / cell_m)
    k -= (float(kx0), float(ky0) - 1.0)
    keys = k[:, 0] * w + k[:, 1]
    order = np.argsort(keys, kind="stable")
    return order, keys[order], float(w)


def cell_rows(coords: np.ndarray, cell_m: float) -> list[np.ndarray]:
    """The ascending rows of each occupied ``cell_m`` cell, cells in first-row order."""
    if not cell_m > 0:
        raise ValueError("cell_m must be positive")
    if not len(coords):
        return []
    mins, maxs = coords.min(axis=0).tolist(), coords.max(axis=0).tolist()
    order, keys, _ = _sorted_keys(coords, float(cell_m), mins, maxs)
    starts = np.flatnonzero(np.diff(keys, prepend=-1.0))
    runs = np.split(order, starts[1:])
    return [runs[i] for i in np.argsort(order[starts], kind="stable")]


def pairs_within(coords: np.ndarray, radius: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks of row pairs ``(a, b)``, ``a < b``, with float64 ``dx * dx + dy * dy
    <= radius * radius``, each once, of about ``CANDIDATE_BLOCK`` candidates.

    A point's candidates are the later rows of its cell and the cell above,
    and the next column's three cells.  None is missed: cells are ``c >=
    radius * (1 + 2e-9)`` and ``>= max|coordinate| / 2**20`` wide; a kept pair
    has ``|dx| <= radius * (1 + 2**-51)`` (each rounding is half an ulp), and
    each ``x / c <= 2**20`` rounds by ``<= 2**-33``, so two quotients differ by
    under ``(1 + 2**-51) / (1 + 2e-9) + 2**-32 < 1`` and their floors by at most
    one.  The second bound, which keeps keys below 2**53, binds only for radii
    far below the coordinates.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    n = len(coords)
    if n < 2:
        return
    mins, maxs = coords.min(axis=0).tolist(), coords.max(axis=0).tolist()
    extent = max(-mins[0], -mins[1], maxs[0], maxs[1])
    cell = max(radius * (1.0 + 2e-9), extent * 2.0**-20, 1e-300)
    order, keys, w = _sorted_keys(coords, cell, mins, maxs)
    # Position i pairs with positions i + 1 .. stop - 1, then, ``gap``
    # positions on, with the next column's three cells.
    stop = np.searchsorted(keys, keys + 1.0, side="right")
    gap = np.searchsorted(keys, keys + (w - 1.0))
    counts = np.searchsorted(keys, keys + (w + 1.0), side="right")
    del keys
    counts += stop - gap - np.arange(1, n + 1)
    gap -= stop
    ends = np.cumsum(counts)

    x, y = coords[:, 0], coords[:, 1]
    lo = 0
    while lo < n:
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + CANDIDATE_BLOCK, side="right")))
        c = counts[lo:hi]
        rows = np.repeat(np.arange(lo, hi), c)
        cols = rows + np.arange(done + 1, int(ends[hi - 1]) + 1) - np.repeat(ends[lo:hi] - c, c)
        cols += (cols >= stop[rows]) * gap[rows]
        a, b = order[rows], order[cols]
        dx, dy = x[b] - x[a], y[b] - y[a]
        near = dx * dx + dy * dy <= radius * radius
        a, b = a[near], b[near]
        yield np.minimum(a, b), np.maximum(a, b)
        lo = hi
