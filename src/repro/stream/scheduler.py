"""Gate-checked snapshot promotion: the refresh scheduler.

:class:`RefreshScheduler` closes the streaming loop: every tick it
drains the stays the ingest loop emitted, stages them into the
:class:`~repro.stream.merge.ShardedPoolMerger`, and then — before
anything becomes servable — runs the observability stack as a set of
*promotion criteria*:

1. **Drift gate** (:mod:`repro.obs.drift`).  The staged pool + batch is
   fingerprinted (candidate-weight and stay-duration distributions) and
   compared, by PSI, against the *cumulative accepted* baseline: the
   committed pool's weight distribution plus the duration distribution
   of every stay accepted so far.  Comparing against accepted history —
   never against rejected observations — is what keeps a poisoned batch
   from laundering itself into the baseline and sailing through on the
   second attempt; comparing against the cumulative mixture — not just
   the previous batch — is what keeps ordinary batch-to-batch variance
   from tripping the gate.
2. **SLO gate** (:mod:`repro.obs.health`).  The live metrics registry
   is evaluated against the stream SLOs (``ci/slo-stream.yaml``): a
   pipeline that is shedding events or missing its freshness budget
   does not get to publish, because the snapshot it would publish is
   built from a stream it was losing.

A batch that fails either gate is **rolled back** (the merger restores
the pre-stage cluster state), its stays are quarantined and counted,
a ``stream_promotion_rejected`` event is emitted, and a
:class:`PromotionRecord` lands in the audit trail — the rejection is a
first-class, observable outcome, not a silent skip.  Only a batch that
passes both gates is committed, snapped to address locations, and
promoted through the injected ``promote`` callable: the serving
backend's ``apply_refresh`` (``QueryServer.apply_refresh`` swaps the
in-process store; ``ProcessRouter.apply_refresh`` logs, swaps, publishes
and flips the mmap'd version counter only after the snapshot is durably
on disk).

The first ``warmup_promotions`` successful ticks skip the drift gate
(outcome ``"warmup"``): a pool growing from nothing shifts its own
weight distribution, and a gate that rejects bootstrap is a gate that
gets disabled.  The SLO gate is never skipped.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.geo import Point
from repro.obs import SLO, evaluate_slos, event, get_provenance_ring, get_recorder
from repro.obs.drift import (
    DURATION_EDGES,
    WEIGHT_EDGES,
    DriftReport,
    Fingerprint,
    bin_values,
    compare_fingerprints,
)
from repro.stream.ingest import StreamIngestor
from repro.stream.merge import ShardedPoolMerger
from repro.stream.metrics import StreamMetrics


@dataclass(frozen=True)
class GateConfig:
    """Promotion-gate thresholds."""

    psi_threshold: float = 0.25
    warmup_promotions: int = 2
    snap_radius_m: float = 100.0
    min_weight: float = 2.0


@dataclass
class PromotionRecord:
    """One audit-trail entry: what a scheduler tick decided and why."""

    tick: int
    wall_t: float
    outcome: str                    # a PROMOTION_OUTCOMES member
    n_stays: int
    n_candidates: int
    version: int | None = None
    n_locations: int | None = None
    reason: str | None = None
    drift: dict[str, Any] | None = None
    slo: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "tick": self.tick,
            "wall_t": self.wall_t,
            "outcome": self.outcome,
            "n_stays": self.n_stays,
            "n_candidates": self.n_candidates,
        }
        if self.version is not None:
            out["version"] = self.version
        if self.n_locations is not None:
            out["n_locations"] = self.n_locations
        if self.reason is not None:
            out["reason"] = self.reason
        if self.drift is not None:
            out["drift"] = self.drift
        if self.slo is not None:
            out["slo"] = self.slo
        return out


def stream_fingerprint(
    merger: ShardedPoolMerger, durations: Sequence[float]
) -> Fingerprint:
    """Fingerprint the staged pool state plus the staged batch.

    Distribution-only on purpose: scalar dimensions (candidate count,
    total weight) grow monotonically on a healthy unbounded stream, so
    ratio checks on them would flag ordinary growth as drift.  The
    *shape* of the weight and duration distributions is what a poisoned
    batch distorts.
    """
    weights = [float(c.weight) for c in merger.all_clusters()]
    return Fingerprint(
        kind="stream",
        dists={
            "candidate_weight": bin_values(weights, WEIGHT_EDGES),
            "stay_duration": bin_values(durations, DURATION_EDGES),
        },
    )


class RefreshScheduler:
    """Background promotion loop with drift + SLO gates and audit trail."""

    def __init__(
        self,
        ingestor: StreamIngestor,
        merger: ShardedPoolMerger,
        metrics: StreamMetrics,
        addresses: dict[str, Point],
        promote: Callable[[dict[str, Point]], int],
        slos: Sequence[SLO] = (),
        gate: GateConfig | None = None,
        interval_s: float = 2.0,
    ) -> None:
        self.ingestor = ingestor
        self.merger = merger
        self.metrics = metrics
        self.addresses = addresses
        self.promote = promote
        self.slos = tuple(slos)
        self.gate = gate or GateConfig()
        self.interval_s = interval_s
        self.records: list[PromotionRecord] = []
        # Cumulative accepted baseline: the committed pool's weight bins
        # and the duration bins of every accepted stay.
        self._baseline_weight_bins: tuple[int, ...] | None = None
        self._baseline_duration_bins = [0] * (len(DURATION_EDGES) + 1)
        self._n_promoted = 0
        self._tick = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()

    # -- properties ------------------------------------------------------
    @property
    def n_promoted(self) -> int:
        """Successful promotions (including warmup ones)."""
        return self._n_promoted

    @property
    def n_rejected(self) -> int:
        return sum(
            1 for r in self.records if r.outcome.startswith("rejected")
        )

    # -- one tick --------------------------------------------------------
    def tick(self) -> PromotionRecord:
        """Drain → stage → gate → promote-or-rollback.  Thread-safe."""
        with self._lock:
            return self._tick_locked()

    def _tick_locked(self) -> PromotionRecord:
        self._tick += 1
        emitted = self.ingestor.drain_stays()
        if not emitted:
            record = PromotionRecord(
                tick=self._tick,
                wall_t=time.time(),
                outcome="skipped_empty",
                n_stays=0,
                n_candidates=self.merger.n_candidates(),
            )
            self.metrics.count_promotion("skipped_empty")
            self.records.append(record)
            return record

        stays = [e.stay for e in emitted]
        self.merger.stage(stays)
        current_fp = stream_fingerprint(
            self.merger, [s.duration_s for s in stays]
        )

        drift_report: DriftReport | None = None
        in_warmup = self._n_promoted < self.gate.warmup_promotions
        if not in_warmup and self._baseline_weight_bins is not None:
            baseline_fp = Fingerprint(
                kind="stream",
                dists={
                    "candidate_weight": self._baseline_weight_bins,
                    "stay_duration": tuple(self._baseline_duration_bins),
                },
            )
            drift_report = compare_fingerprints(
                baseline_fp,
                current_fp,
                psi_threshold=self.gate.psi_threshold,
            )
            if drift_report.drifted:
                return self._reject(
                    emitted, "rejected_drift",
                    f"PSI {drift_report.max_psi:.3f} over threshold "
                    f"{self.gate.psi_threshold}",
                    drift=drift_report.to_dict(),
                )

        if self.slos:
            health = evaluate_slos(
                self.metrics.registry.to_dict(),
                self.slos,
                source="stream",
                emit_events=False,
            )
            if not health.ok:
                failed = [r.slo.name for r in health.results if not r.ok]
                return self._reject(
                    emitted, "rejected_slo",
                    "SLO violation: " + ", ".join(failed),
                    slo=health.to_dict(),
                    drift=(drift_report.to_dict() if drift_report else None),
                )

        # Both gates passed: commit, snap, promote.
        self.merger.commit()
        locations = self.merger.snap_locations(
            self.addresses,
            snap_radius_m=self.gate.snap_radius_m,
            min_weight=self.gate.min_weight,
        )
        version = self.promote(locations)
        now = time.time()
        for e in emitted:
            self.metrics.observe_freshness(max(0.0, now - e.wall_t))
        self.metrics.set_gauge("snapshot_version", version)
        self.metrics.set_gauge("pool_candidates", self.merger.n_candidates())
        outcome = "warmup" if in_warmup else "promoted"
        self.metrics.count_promotion(outcome)
        self._baseline_weight_bins = current_fp.dists["candidate_weight"]
        batch_bins = current_fp.dists["stay_duration"]
        self._baseline_duration_bins = [
            a + b for a, b in zip(self._baseline_duration_bins, batch_bins)
        ]
        self._n_promoted += 1
        record = PromotionRecord(
            tick=self._tick,
            wall_t=now,
            outcome=outcome,
            n_stays=len(emitted),
            n_candidates=self.merger.n_candidates(),
            version=version,
            n_locations=len(locations),
        )
        self.records.append(record)
        event(
            "stream_promotion", component="stream",
            outcome=outcome, version=version, n_stays=len(emitted),
            n_locations=len(locations),
        )
        return record

    def _reject(
        self,
        emitted: list,
        outcome: str,
        reason: str,
        drift: dict[str, Any] | None = None,
        slo: dict[str, Any] | None = None,
    ) -> PromotionRecord:
        quarantined = self.merger.rollback()
        self.metrics.count_quarantined(len(quarantined))
        self.metrics.count_promotion(outcome)
        record = PromotionRecord(
            tick=self._tick,
            wall_t=time.time(),
            outcome=outcome,
            n_stays=len(quarantined),
            n_candidates=self.merger.n_candidates(),
            reason=reason,
            drift=drift,
            slo=slo,
        )
        self.records.append(record)
        event(
            "stream_promotion_rejected", level="warning", component="stream",
            outcome=outcome, reason=reason, n_stays=len(quarantined),
        )
        # A gate refusal is the forensic moment this pipeline exists for:
        # snapshot the flight recorder with the rejected-vs-served versions,
        # the live registry, the failing gate's verdict, and whatever
        # provenance records are implicated in the rejected traffic.
        served = self.metrics.registry.to_dict()
        try:
            served_version = int(
                self.metrics.snapshot_version.value()
            )
        except Exception:  # noqa: BLE001 — context stays best-effort
            served_version = 0
        implicated = [
            r.to_dict() for r in get_provenance_ring().records()[:16]
        ]
        get_recorder().trigger(
            "gate_refusal",
            context={
                "tick": self._tick,
                "outcome": outcome,
                "reason": reason,
                "n_quarantined": len(quarantined),
                "served_version": served_version,
                "rejected_candidate_version": served_version + 1,
                "drift": drift,
            },
            registry_doc=served,
            slo=slo,
            provenance=implicated,
        )
        return record

    # -- background loop -------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("scheduler already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="stream-refresh", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.tick()

    def stop(self, final_tick: bool = True) -> None:
        """Stop the loop; optionally run one last drain-and-promote."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
        if final_tick:
            self.tick()

    def audit_trail(self) -> list[dict[str, Any]]:
        return [r.to_dict() for r in self.records]


__all__ = [
    "GateConfig",
    "PromotionRecord",
    "RefreshScheduler",
    "stream_fingerprint",
]
