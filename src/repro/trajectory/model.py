"""Core trajectory types: fixes, trajectories, stay points.

A trajectory is its courier and three contiguous, read-only float64
arrays ``lng``, ``lat`` and ``t`` (Definition 3), from the simulator and
the trips file through noise filtering, segmentation and stay detection.
Timestamps throughout are POSIX seconds as floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.geo import Point


class TrajPoint(NamedTuple):
    """A single GPS fix: location plus timestamp."""

    lng: float
    lat: float
    t: float

    @property
    def point(self) -> Point:
        """The spatial component as a :class:`~repro.geo.Point`."""
        return Point(self.lng, self.lat)


class Trajectory:
    """A chronologically ordered GPS track of one courier.

    ``points`` is any sequence of ``(lng, lat, t)`` triples.  Construction
    validates chronological order (Definition 3 of the paper: ``p_i.t <
    p_j.t`` for ``i < j``); equal timestamps are rejected too.
    """

    __slots__ = ("courier_id", "lng", "lat", "t")

    def __init__(self, courier_id: str, points: Sequence[Sequence[float]] = ()) -> None:
        fixes = np.array(points, dtype=float)
        if fixes.size == 0:
            fixes = fixes.reshape(0, 3)
        if fixes.ndim != 2 or fixes.shape[1] != 3:
            raise ValueError("trajectory points must be (lng, lat, t) triples")
        self._adopt(courier_id, fixes.T.copy())

    def _adopt(self, courier_id: str, columns: np.ndarray) -> None:
        """Take a ``(3, n)`` C-contiguous array of its own as the columns."""
        columns.flags.writeable = False
        self.courier_id = courier_id
        self.lng, self.lat, self.t = columns
        t = self.t
        late = np.flatnonzero(t[1:] <= t[:-1])
        if late.size:
            raise ValueError(
                f"trajectory of courier {courier_id!r} is not "
                f"strictly chronological at t={float(t[late[0] + 1])}"
            )

    def __len__(self) -> int:
        return len(self.t)

    @property
    def duration_s(self) -> float:
        """Elapsed time between first and last fix (0 for < 2 points)."""
        if len(self.t) < 2:
            return 0.0
        return float(self.t[-1] - self.t[0])

    @classmethod
    def from_arrays(
        cls,
        courier_id: str,
        lng: Sequence[float],
        lat: Sequence[float],
        t: Sequence[float],
    ) -> "Trajectory":
        """Build a trajectory from parallel coordinate/time sequences."""
        if not (len(lng) == len(lat) == len(t)):
            raise ValueError("lng/lat/t must have equal lengths")
        trajectory = cls.__new__(cls)
        trajectory._adopt(courier_id, np.array((lng, lat, t), dtype=float))
        return trajectory


@dataclass(frozen=True)
class StayPoint:
    """A detected stay: spatial centroid of a trajectory sub-sequence.

    Per Definition 4, the *time* of a stay point is the midpoint of its
    interval and its *location* is the spatial centroid of its fixes.
    """

    lng: float
    lat: float
    t_arrive: float
    t_leave: float
    courier_id: str
    n_points: int = 0

    def __post_init__(self) -> None:
        if self.t_leave < self.t_arrive:
            raise ValueError("stay point leaves before it arrives")

    @property
    def t(self) -> float:
        """Midpoint of the stay interval (the paper's stay-point time)."""
        return (self.t_arrive + self.t_leave) / 2.0

    @property
    def duration_s(self) -> float:
        """How long the courier stayed."""
        return self.t_leave - self.t_arrive

    @property
    def point(self) -> Point:
        """The centroid as a :class:`~repro.geo.Point`."""
        return Point(self.lng, self.lat)
