"""Stream event types.

The streaming tier's unit of work is a single GPS fix.  Fixes carry
*event time* (``t``, the timestamp the device stamped, POSIX seconds —
the same clock :class:`~repro.trajectory.model.TrajPoint` uses) and,
once admitted, *arrival time* (``wall_t``, the wall clock of the process
that accepted them).  The gap between the two clocks is what the
watermark machinery reasons about: event time orders the trajectory,
arrival time measures the pipeline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class GpsFix:
    """One courier GPS fix flowing through the stream.

    ``wall_t`` is 0.0 until the bus stamps it on admission; equality and
    hashing deliberately include it, so dedup logic must key on
    ``(courier_id, t)`` — two arrivals of the same fix are distinct
    *events* carrying the same *observation*.
    """

    courier_id: str
    lng: float
    lat: float
    t: float
    wall_t: float = 0.0

    def key(self) -> tuple[str, float]:
        """The observation identity: one courier cannot emit two fixes
        with the same timestamp (Definition 3's strict chronology)."""
        return (self.courier_id, self.t)


class IngestOutcome(enum.Enum):
    """Terminal classification of one offered fix.

    Every fix offered to the pipeline ends in exactly one of these, so

        offered == accepted + duplicate + late + shed

    holds once the consumer has finished the batch it took off the bus
    (the ingestor idle or closed), and *event loss* is precisely
    ``late + shed`` (duplicates carry no information).
    """

    ACCEPTED = "accepted"      # admitted, will reach the extractor
    DUPLICATE = "duplicate"    # same (courier, t) as a known fix
    LATE = "late"              # arrived behind the courier's watermark
    SHED = "shed"              # bus full and the policy dropped it


__all__ = ["GpsFix", "IngestOutcome"]
