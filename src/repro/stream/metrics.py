"""Stream metric families, pre-seeded and (optionally) shm-mirrored.

Every ``stream_*`` family is declared once, by :func:`stream_plane_specs`,
and a :class:`~repro.obs.shm.TierMetrics` built from those specs
registers it and pre-seeds it **at zero** the moment a
:class:`StreamMetrics` is constructed: the SLO engine in
:mod:`repro.obs.health` fails closed, so "nothing shed yet" must read as
an explicit 0, not as missing data.  The freshness-lag histogram gets one
synthetic ``0.0`` seed observation for the same reason — a quantile
objective evaluated before the first promotion would otherwise reject on
"histogram has no observations", and a gate that can never pass the
first time is a gate nobody keeps.  The seed is documented in
``docs/streaming.md``.

When an ``obs_dir`` is supplied, the same slots are mapped into a
``metrics-stream.shm`` shared-memory plane (:mod:`repro.obs.shm`), so a
multi-process serving fleet's merged scrape — ``ProcessRouter.metrics()``
or ``repro obs-export`` — picks up the ingestion tier with zero IPC,
exactly like the router and worker planes.
"""

from __future__ import annotations

import os

from repro.obs import MetricsRegistry, get_registry
from repro.obs.shm import SlotSpec, TierMetrics
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
    """The ``stream_*`` families, declared by :func:`stream_plane_specs`.

    One instance is shared by the bus, extractor, ingestor, and
    scheduler; every write goes to the registry (the process-global one
    by default) and, with an ``obs_dir``, to the stream plane's slot.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        obs_dir: str | None = None,
    ) -> None:
        self._tier = TierMetrics(
            registry or get_registry(),
            stream_plane_specs(),
            os.path.join(obs_dir, _PLANE_FILE) if obs_dir else None,
            meta={"kind": "stream"},
        )
        self.registry = self._tier.registry
        family = self._tier.family
        self.events = family("stream_events_total")
        self.promotions = family("stream_promotions_total")
        self.stays_quarantined = family("stream_stays_quarantined_total")
        self.snapshot_version = family("stream_snapshot_version")
        self.freshness = family("stream_freshness_lag_seconds")
        # One 0.0 seed observation per writer, in the registry and the
        # plane alike, so a quantile gate evaluated before the first
        # promotion has a well-formed family.
        self._tier.observe("stream_freshness_lag_seconds", 0.0)

    # -- writers --------------------------------------------------------
    def count_event(self, outcome: "IngestOutcome", n: int = 1) -> None:
        self._tier.inc("stream_events_total", n, outcome=outcome.value)

    def count_promotion(self, outcome: str) -> None:
        self._tier.inc("stream_promotions_total", outcome=outcome)

    def count_stays(self, n: int) -> None:
        if n:
            self._tier.inc("stream_stays_emitted_total", n)

    def count_quarantined(self, n: int) -> None:
        if n:
            self._tier.inc("stream_stays_quarantined_total", n)

    def count_evictions(self, n: int) -> None:
        if n:
            self._tier.inc("stream_evictions_total", n)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``stream_<name>`` (``bus_depth``, ``courier_states``,
        ``pool_candidates`` or ``snapshot_version``)."""
        self._tier.set(f"stream_{name}", value)

    def observe_freshness(self, seconds: float) -> None:
        self._tier.observe("stream_freshness_lag_seconds", seconds)

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
        self._tier.close()


__all__ = [
    "FRESHNESS_BUCKETS",
    "PROMOTION_OUTCOMES",
    "StreamMetrics",
    "stream_plane_specs",
]
