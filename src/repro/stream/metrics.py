"""Stream metric families, pre-seeded and (optionally) shm-mirrored.

Every ``stream_*`` family is registered and pre-seeded **at zero** the
moment a :class:`StreamMetrics` is constructed, mirroring the PR-8
fleet-series convention: the SLO engine in :mod:`repro.obs.health`
fails closed, so "nothing shed yet" must read as an explicit 0, not as
missing data.  The freshness-lag histogram gets one synthetic ``0.0``
seed observation for the same reason — a quantile objective evaluated
before the first promotion would otherwise reject on "histogram has no
observations", and a gate that can never pass the first time is a gate
nobody keeps.  The seed sample is recorded in the registry meta-free
way (it is one observation in the lowest bucket) and documented in
``docs/streaming.md``.

When an ``obs_dir`` is supplied, the same families are mirrored into a
``metrics-stream.shm`` shared-memory plane (:mod:`repro.obs.shm`), so a
multi-process serving fleet's merged scrape — ``ProcessRouter.metrics()``
or ``repro obs-export`` — picks up the ingestion tier with zero IPC,
exactly like the router and worker planes.
"""

from __future__ import annotations

import os
from typing import Any

from repro.obs import MetricsRegistry, get_registry
from repro.obs.shm import MetricsPlane, SlotSpec
from repro.stream.events import IngestOutcome

#: Promotion outcomes the scheduler can record.
PROMOTION_OUTCOMES = (
    "promoted", "rejected_drift", "rejected_slo", "skipped_empty", "warmup"
)

#: Freshness lag (event arrival -> servable) buckets, seconds.  Wider
#: than the request-latency buckets: the lag budget includes watermark
#: dwell (bounded lateness) and the refresh interval, not just compute.
FRESHNESS_BUCKETS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

_PLANE_FILE = "metrics-stream.shm"


def stream_plane_specs() -> list[SlotSpec]:
    """Fixed slot schema of the stream tier's shared-memory plane."""
    specs = [
        SlotSpec("counter", "stream_events_total",
                 (("outcome", o.value),),
                 help="GPS fixes offered to the stream, by terminal outcome")
        for o in IngestOutcome
    ]
    specs += [
        SlotSpec("counter", "stream_promotions_total", (("outcome", o),),
                 help="Refresh-scheduler ticks by promotion outcome")
        for o in PROMOTION_OUTCOMES
    ]
    specs += [
        SlotSpec("counter", "stream_stays_emitted_total", (),
                 help="Stay points emitted by the online extractor"),
        SlotSpec("counter", "stream_stays_quarantined_total", (),
                 help="Stays dropped with a gate-rejected batch"),
        SlotSpec("counter", "stream_evictions_total", (),
                 help="Idle courier window states evicted"),
        SlotSpec("gauge", "stream_courier_states", (),
                 help="Courier window states currently held"),
        SlotSpec("gauge", "stream_bus_depth", (),
                 help="Fixes queued in the ingest bus"),
        SlotSpec("gauge", "stream_pool_candidates", (),
                 help="Candidates in the merged streaming pool"),
        SlotSpec("gauge", "stream_snapshot_version", (),
                 help="Last store version the scheduler promoted"),
        SlotSpec("histogram", "stream_freshness_lag_seconds", (),
                 buckets=FRESHNESS_BUCKETS,
                 help="Event arrival to servable-snapshot lag"),
    ]
    return specs


class StreamMetrics:
    """Registry + optional shm-plane writer for the ``stream_*`` families.

    One instance is shared by the bus, extractor, ingestor, and
    scheduler; every write goes to the process-global registry and, when
    a plane is attached, to the corresponding shared-memory slot.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        obs_dir: str | None = None,
    ) -> None:
        registry = registry or get_registry()
        self.registry = registry
        self.events = registry.counter(
            "stream_events_total",
            "GPS fixes offered to the stream, by terminal outcome",
        )
        self.promotions = registry.counter(
            "stream_promotions_total",
            "Refresh-scheduler ticks by promotion outcome",
        )
        self.stays_emitted = registry.counter(
            "stream_stays_emitted_total",
            "Stay points emitted by the online extractor",
        )
        self.stays_quarantined = registry.counter(
            "stream_stays_quarantined_total",
            "Stays dropped with a gate-rejected batch",
        )
        self.evictions = registry.counter(
            "stream_evictions_total", "Idle courier window states evicted"
        )
        self.courier_states = registry.gauge(
            "stream_courier_states", "Courier window states currently held"
        )
        self.bus_depth = registry.gauge(
            "stream_bus_depth", "Fixes queued in the ingest bus"
        )
        self.pool_candidates = registry.gauge(
            "stream_pool_candidates", "Candidates in the merged streaming pool"
        )
        self.snapshot_version = registry.gauge(
            "stream_snapshot_version",
            "Last store version the scheduler promoted",
        )
        self.freshness = registry.histogram(
            "stream_freshness_lag_seconds",
            "Event arrival to servable-snapshot lag",
            buckets=FRESHNESS_BUCKETS,
        )
        # Pre-seed every label combination at zero (fail-closed SLO
        # engine: absent sample == violation) and the freshness histogram
        # with one 0.0 seed observation so a quantile gate evaluated
        # before the first promotion has a well-formed family.
        for outcome in IngestOutcome:
            self.events.inc(0, outcome=outcome.value)
        for outcome in PROMOTION_OUTCOMES:
            self.promotions.inc(0, outcome=outcome)
        self.stays_emitted.inc(0)
        self.stays_quarantined.inc(0)
        self.evictions.inc(0)
        self.courier_states.set(0)
        self.bus_depth.set(0)
        self.pool_candidates.set(0)
        self.snapshot_version.set(0)
        if self.freshness.count() == 0:
            self.freshness.observe(0.0)

        self._plane: MetricsPlane | None = None
        self._slots: dict[str, Any] = {}
        if obs_dir:
            try:
                self._plane = MetricsPlane.create(
                    os.path.join(obs_dir, _PLANE_FILE),
                    stream_plane_specs(),
                    meta={"kind": "stream"},
                )
            except OSError:
                self._plane = None  # telemetry must never block ingest
        if self._plane is not None:
            p = self._plane
            self._slots = {
                "events": {o.value: p.slot("stream_events_total",
                                           outcome=o.value)
                           for o in IngestOutcome},
                "promotions": {o: p.slot("stream_promotions_total", outcome=o)
                               for o in PROMOTION_OUTCOMES},
                "stays_emitted": p.slot("stream_stays_emitted_total"),
                "stays_quarantined": p.slot("stream_stays_quarantined_total"),
                "evictions": p.slot("stream_evictions_total"),
                "courier_states": p.slot("stream_courier_states"),
                "bus_depth": p.slot("stream_bus_depth"),
                "pool_candidates": p.slot("stream_pool_candidates"),
                "snapshot_version": p.slot("stream_snapshot_version"),
                "freshness": p.slot("stream_freshness_lag_seconds"),
            }
            # Mirror the histogram seed so a plane-only scrape (a fleet
            # merge that never saw this process's registry) is also
            # well-formed for the quantile gate.
            p.observe(self._slots["freshness"], 0.0)

    # -- writers --------------------------------------------------------
    def count_event(self, outcome: "IngestOutcome", n: int = 1) -> None:
        self.events.inc(n, outcome=outcome.value)
        if self._plane is not None:
            self._plane.inc(self._slots["events"][outcome.value], n)

    def count_promotion(self, outcome: str) -> None:
        self.promotions.inc(outcome=outcome)
        if self._plane is not None:
            self._plane.inc(self._slots["promotions"][outcome])

    def count_stays(self, n: int) -> None:
        if n:
            self.stays_emitted.inc(n)
            if self._plane is not None:
                self._plane.inc(self._slots["stays_emitted"], n)

    def count_quarantined(self, n: int) -> None:
        if n:
            self.stays_quarantined.inc(n)
            if self._plane is not None:
                self._plane.inc(self._slots["stays_quarantined"], n)

    def count_evictions(self, n: int) -> None:
        if n:
            self.evictions.inc(n)
            if self._plane is not None:
                self._plane.inc(self._slots["evictions"], n)

    def set_gauge(self, name: str, value: float) -> None:
        getattr(self, name).set(value)
        if self._plane is not None:
            self._plane.set(self._slots[name], value)

    def observe_freshness(self, seconds: float) -> None:
        self.freshness.observe(seconds)
        if self._plane is not None:
            self._plane.observe(self._slots["freshness"], seconds)

    # -- accounting -----------------------------------------------------
    def event_counts(self) -> dict[str, float]:
        return {
            o.value: self.events.value(outcome=o.value) for o in IngestOutcome
        }

    def n_lost(self) -> float:
        """Events lost = late (behind the watermark) + shed (bus full)."""
        counts = self.event_counts()
        return counts["late"] + counts["shed"]

    def close(self) -> None:
        if self._plane is not None:
            self._plane.close()
            self._plane = None


__all__ = [
    "FRESHNESS_BUCKETS",
    "PROMOTION_OUTCOMES",
    "StreamMetrics",
    "stream_plane_specs",
]
