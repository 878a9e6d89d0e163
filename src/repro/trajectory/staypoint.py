"""Stay-point detection (Definition 4 of the paper; Li et al. 2008).

A stay point is a maximal sub-sequence ``<p_i, ..., p_j>`` whose fixes all
lie within ``d_max_m`` of the anchor ``p_i`` and which spans at least
``t_min_s`` seconds.  The paper uses ``d_max_m = 20`` and ``t_min_s = 30``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo import LocalProjection, Point
from repro.trajectory.model import StayPoint, Trajectory


@dataclass(frozen=True)
class StayPointConfig:
    """Thresholds for :func:`detect_stay_points` (paper defaults)."""

    d_max_m: float = 20.0
    t_min_s: float = 30.0

    def __post_init__(self) -> None:
        if self.d_max_m <= 0:
            raise ValueError("d_max_m must be positive")
        if self.t_min_s <= 0:
            raise ValueError("t_min_s must be positive")


def detect_stay_points(
    trajectory: Trajectory, config: StayPointConfig | None = None
) -> list[StayPoint]:
    """Extract stay points from a single trajectory (see :func:`stay_points_of`)."""
    return stay_points_of(
        trajectory.lng, trajectory.lat, trajectory.t, trajectory.courier_id, config
    )


def stay_points_of(
    lng: np.ndarray,
    lat: np.ndarray,
    t: np.ndarray,
    courier_id: str,
    config: StayPointConfig | None = None,
) -> list[StayPoint]:
    """Stay points of one courier's fixes, given as ``(lng, lat, t)`` arrays.

    Distances are in the local plane anchored at the first fix; the stays
    are :func:`stay_spans` over the whole trajectory, at their centroids.
    """
    config = config or StayPointConfig()
    if len(t) < 2:
        return []
    proj = LocalProjection(Point(float(lng[0]), float(lat[0])))
    x, y = proj.to_xy(lng, lat)
    # Indexing a memoryview yields Python floats, like a list would, without
    # a float object per fix held for the whole trajectory.
    xs, ys, ts = (memoryview(np.ascontiguousarray(a, dtype=float)) for a in (x, y, t))
    spans, _ = stay_spans(xs, ys, ts, config, final=True)
    return stays_of_spans(spans, x, y, ts, proj, courier_id)


def stay_spans(
    xs, ys, ts, config: StayPointConfig, final: bool, scanned: int = 0
) -> tuple[list[tuple[int, int]], int]:
    """The anchor loop of Definition 4 over projected fixes ``xs, ys, ts``.

    Advance ``j`` while ``p_j`` stays within ``d_max_m`` of the anchor
    ``p_i``; when the span ``[p_i, p_j)`` lasts at least ``t_min_s`` it is
    a stay and the anchor restarts after it, else the anchor moves by one.
    Returns the stay spans as ``(i, j)`` index pairs and ``resume``.

    A window closed by a fix outside the radius is decided for good.  With
    ``final`` false, a window still open at the end of the fixes is not:
    the loop stops there and ``resume`` is its anchor, where a later call
    over the same fixes plus newer ones picks up.  With ``final`` true the
    fixes are the whole trajectory and ``resume`` is ``len(ts)``.

    ``scanned`` says the fixes before index ``scanned`` are already known
    to lie within ``d_max_m`` of the first anchor, so its window is checked
    from there on.  A caller that trims its fixes at ``resume`` after a
    non-final call passes the old ``len(ts) - resume``; each fix of a
    growing open window is then checked against its anchor once.
    """
    n = len(ts)
    d2_max = config.d_max_m * config.d_max_m
    spans: list[tuple[int, int]] = []
    i = 0
    j = max(1, scanned)
    while i < n - 1:
        xi, yi = xs[i], ys[i]
        while j < n:
            dx = xs[j] - xi
            dy = ys[j] - yi
            if not dx * dx + dy * dy <= d2_max:  # a NaN distance ends the window too
                break
            j += 1
        if j == n and not final:
            return spans, i
        # fixes i .. j-1 are within d_max of the anchor
        if ts[j - 1] - ts[i] >= config.t_min_s:
            spans.append((i, j))
            i = j
        else:
            i += 1
        j = i + 1
    return spans, (n if final else i)


def stays_of_spans(
    spans, x, y, ts, proj: LocalProjection, courier_id: str
) -> list[StayPoint]:
    """One :class:`StayPoint` per ``(i, j)`` span, at the centroid of its
    fixes in ``proj``'s plane (``x``/``y`` as arrays or lists)."""
    if not spans:
        return []
    # np.add.reduce then one division is exactly np.mean's arithmetic.
    cx = np.array([np.add.reduce(x[i:j]) / (j - i) for i, j in spans])
    cy = np.array([np.add.reduce(y[i:j]) / (j - i) for i, j in spans])
    clng, clat = proj.to_lnglat(cx, cy)
    return [
        StayPoint(
            lng=a,
            lat=b,
            t_arrive=ts[i],
            t_leave=ts[j - 1],
            courier_id=courier_id,
            n_points=j - i,
        )
        for (i, j), a, b in zip(spans, clng.tolist(), clat.tolist())
    ]
