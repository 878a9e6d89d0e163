"""Reusable streaming-ingestion benchmark harness.

One function, :func:`run_stream_bench`, drives the whole streaming tier
end to end — synthetic city → :class:`~repro.synth.stream.FixEventStream`
→ bus → online extractor → sharded merge → gate-checked promotion into a
live serving tier under concurrent query load — and returns the JSON
payload ``repro stream-bench`` writes as ``BENCH_stream.json``, the
payload the CI streaming smoke steps gate on.

The payload carries the three acceptance signals directly:

* ``ingest`` — sustained events/sec plus the exhaustive outcome
  accounting; ``ingest.lost`` is ``late + shed`` and the zero-loss gate
  is ``ingest.lost == 0``.
* ``freshness`` — exact (not bucket-approximated) p50/p95 of
  event-arrival → servable-snapshot lag, sampled at every promotion.
* ``parity`` — the recorded accepted fixes replayed through the batch
  :func:`~repro.trajectory.stay_points_of`, compared field-for-field
  against the online extractor's emissions.
* ``poison`` — a drifted batch injected after the main run; the gate
  must reject it and the served snapshot version must not move.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Any, Sequence

import numpy as np

from repro.obs import SLO, percentile
from repro.stream.bus import OverflowPolicy, StreamBus
from repro.stream.events import GpsFix
from repro.stream.extractor import (
    EmittedStay,
    OnlineExtractorConfig,
    OnlineStayExtractor,
)
from repro.stream.ingest import StreamIngestor
from repro.stream.merge import ShardedPoolMerger
from repro.stream.metrics import StreamMetrics
from repro.stream.scheduler import GateConfig, RefreshScheduler
from repro.synth import (
    EventStreamConfig,
    FixEventStream,
    build_day_streams,
    downbj_config,
    generate_dataset,
    subbj_config,
    tiny_config,
)
from repro.trajectory import stay_points_of

_PRESETS = {
    "tiny": lambda scale, seed: tiny_config(seed=seed),
    "downbj": lambda scale, seed: downbj_config(scale=scale, seed=seed),
    "subbj": lambda scale, seed: subbj_config(scale=scale, seed=seed),
}

#: Poison geometry: a grid of far-off dwell sites well outside any synth
#: city (blocks are a few hundred meters; 50 km is unambiguous), each
#: visited for a dwell long enough to land in DURATION_EDGES' top bin.
_POISON_OFFSET_M = 50_000.0
_POISON_DWELL_S = 7_200.0
_POISON_SAMPLING_S = 120.0


@dataclass(frozen=True)
class StreamBenchConfig:
    """Everything :func:`run_stream_bench` needs, JSON-serializable."""

    preset: str = "tiny"
    scale: float = 1.0
    seed: int = 0
    duration_s: float = 4.0
    event_rate: float = 0.0          # events/s offered; 0 = max speed
    serve_rate_rps: float = 100.0    # concurrent query load; 0 disables
    backend: str = "thread"          # thread | process
    workers: int = 2
    refresh_interval_s: float = 0.5
    bus_capacity: int = 8192
    overflow: str = "block"
    lateness_s: float = 30.0
    disorder_s: float = 20.0
    p_duplicate: float = 0.02
    # Replay compresses days of event time into seconds of wall time, so
    # any finite idle timeout would evict mid-template couriers and split
    # their windows — parity is only claimed gap-free, hence 30 days.
    idle_timeout_s: float = 30 * 86_400.0
    warmup_promotions: int = 2
    # Replay compression squeezes whole diurnal phases into single ticks,
    # so batch-vs-history PSI runs hot on legitimate data (~0.5 observed);
    # poison scores ~5-9.  1.0 separates them with margin on both sides.
    # Deployments at real-time rates keep GateConfig's 0.25 default.
    psi_threshold: float = 1.0
    poison: bool = True
    n_poison_sites: int = 32
    parity_check: bool = True
    snapshot_dir: str | None = None  # required for backend=process
    # When set, the flight recorder dumps a black box here on every gate
    # refusal / anomaly during the run (the poison probe should yield
    # exactly one).  None leaves the process-global recorder untouched.
    blackbox_dir: str | None = None


def _poison_fixes(
    projection, t_start: float, n_sites: int
) -> list[GpsFix]:
    """Dwells at far-off sites: long, heavy, and spatially alien."""
    fixes: list[GpsFix] = []
    for k in range(n_sites):
        x = _POISON_OFFSET_M + (k % 8) * 500.0
        y = _POISON_OFFSET_M + (k // 8) * 500.0
        courier = f"poison-{k}"
        t = t_start
        while t <= t_start + _POISON_DWELL_S:
            lng, lat = projection.to_lnglat(x, y)
            fixes.append(GpsFix(courier, float(lng), float(lat), t))
            t += _POISON_SAMPLING_S
    return fixes


def _batch_reference(
    fixes: list[GpsFix], stay_config
) -> list[tuple]:
    """Replay recorded accepted fixes through the batch detector."""
    by_courier: dict[str, list[GpsFix]] = defaultdict(list)
    for fix in fixes:
        by_courier[fix.courier_id].append(fix)
    stays = []
    for courier_id in sorted(by_courier):
        pts = sorted(by_courier[courier_id], key=lambda f: f.t)
        lng, lat, t = np.array([(f.lng, f.lat, f.t) for f in pts]).T
        stays.extend(stay_points_of(lng, lat, t, courier_id, stay_config))
    return [
        (s.courier_id, s.lng, s.lat, s.t_arrive, s.t_leave, s.n_points)
        for s in stays
    ]


def run_stream_bench(
    config: StreamBenchConfig, slos: Sequence[SLO] = ()
) -> dict[str, Any]:
    """Run the full streaming pipeline and return the report payload.

    The serving backend is built from the config: ``backend="thread"``
    serves from an in-process :class:`~repro.serve.QueryServer`,
    ``backend="process"`` from a :class:`~repro.serve.ProcessRouter` over
    ``snapshot_dir`` (required), each with ``workers`` workers and seeded
    with the address geocodes.  Promotions go through the backend's
    ``apply_refresh`` — for the process backend the durable log → swap →
    publish → flip sequence — and the concurrent query load targets the
    same backend.
    """
    from repro.serve import (
        LoadGenerator,
        ProcessRouter,
        QueryServer,
        ServerConfig,
        ShardedLocationStore,
    )

    cfg = config
    if cfg.preset not in _PRESETS:
        raise ValueError(f"unknown preset: {cfg.preset!r}")
    if cfg.backend not in ("thread", "process"):
        raise ValueError(f"unknown backend: {cfg.backend!r}")
    if cfg.backend == "process" and not cfg.snapshot_dir:
        raise ValueError("backend='process' needs a snapshot_dir")
    if cfg.blackbox_dir:
        from repro.obs import configure_recorder

        configure_recorder(dump_dir=cfg.blackbox_dir)
    dataset = generate_dataset(_PRESETS[cfg.preset](cfg.scale, cfg.seed))
    day_streams = build_day_streams(
        dataset.sim_trips, dataset.city,
        rng=np.random.default_rng(cfg.seed),
    )
    events = FixEventStream(
        day_streams,
        seed=cfg.seed,
        config=EventStreamConfig(
            disorder_s=cfg.disorder_s, p_duplicate=cfg.p_duplicate
        ),
    )
    geocodes = {aid: a.geocode for aid, a in dataset.addresses.items()}

    store = ShardedLocationStore(geocodes, dataset.addresses)
    server_config = ServerConfig(n_workers=cfg.workers)
    obs_dir = None
    if cfg.backend == "process":
        # The streaming metrics plane lands in the same obs/ directory as
        # the router and worker planes, so the ingest tier is scrape-able
        # alongside the serving fleet.
        server = ProcessRouter.from_store(
            store, cfg.snapshot_dir, n_workers=cfg.workers,
            config=server_config,
        ).start()
        obs_dir = server.obs_dir
    else:
        server = QueryServer(store, server_config).start()
    metrics = StreamMetrics(obs_dir=obs_dir)
    bus = StreamBus(
        capacity=cfg.bus_capacity, policy=OverflowPolicy(cfg.overflow)
    )
    emitted_log: list[EmittedStay] = []
    extractor = OnlineStayExtractor(
        OnlineExtractorConfig(
            lateness_s=cfg.lateness_s, idle_timeout_s=cfg.idle_timeout_s
        ),
        on_stay=emitted_log.append,
    )
    ingestor = StreamIngestor(
        bus, extractor, metrics, record_fixes=cfg.parity_check
    )
    freshness_samples: list[float] = []
    _observe = metrics.observe_freshness

    def observe_and_record(seconds: float) -> None:
        freshness_samples.append(seconds)
        _observe(seconds)

    metrics.observe_freshness = observe_and_record  # type: ignore[method-assign]
    scheduler = RefreshScheduler(
        ingestor,
        merger=ShardedPoolMerger(dataset.city.projection),
        metrics=metrics,
        addresses=geocodes,
        promote=server.apply_refresh,
        slos=slos,
        gate=GateConfig(
            psi_threshold=cfg.psi_threshold,
            warmup_promotions=cfg.warmup_promotions,
        ),
        interval_s=cfg.refresh_interval_s,
    )

    stop_producer = threading.Event()
    produced = {"n": 0, "wall": 0.0, "max_t": 0.0}

    def produce() -> None:
        t0 = time.perf_counter()
        interval = 1.0 / cfg.event_rate if cfg.event_rate > 0 else 0.0
        next_at = t0
        for fix in events:
            if stop_producer.is_set():
                break
            if time.perf_counter() - t0 >= cfg.duration_s:
                break
            if interval:
                delay = next_at - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                next_at += interval
            ingestor.offer(fix, timeout_s=5.0)
            produced["n"] += 1
            produced["max_t"] = max(produced["max_t"], fix.t)
        produced["wall"] = time.perf_counter() - t0

    ingestor.start()
    scheduler.start()
    producer = threading.Thread(target=produce, name="stream-producer")
    producer.start()
    serve_report = None
    if cfg.serve_rate_rps > 0:
        import random as _random

        generator = LoadGenerator(
            server, sorted(dataset.addresses), _random.Random(cfg.seed)
        )
        serve_report = generator.run_open(
            rate_rps=cfg.serve_rate_rps, duration_s=cfg.duration_s
        )
    producer.join(timeout=cfg.duration_s + 30.0)
    stop_producer.set()
    deadline = time.monotonic() + 30.0
    while len(bus) and time.monotonic() < deadline:
        time.sleep(0.01)
    # Stop the background loop and promote the in-order tail before the
    # poison probe, so the probe's rejection verdict is unambiguous.
    scheduler.stop(final_tick=True)

    poison_result = None
    if cfg.poison:
        version_before = store.version
        promoted_before = scheduler.n_promoted
        fixes = _poison_fixes(
            dataset.city.projection,
            t_start=produced["max_t"] + 120.0,
            n_sites=cfg.n_poison_sites,
        )
        for fix in fixes:
            ingestor.offer(fix, timeout_s=5.0)
        deadline = time.monotonic() + 30.0
        while len(bus) and time.monotonic() < deadline:
            time.sleep(0.01)
        ingestor.close(flush=True)
        record = scheduler.tick()
        poison_result = {
            "n_fixes": len(fixes),
            "armed": promoted_before >= cfg.warmup_promotions,
            "outcome": record.outcome,
            "reason": record.reason,
            "rejected": record.outcome.startswith("rejected"),
            "version_before": version_before,
            "version_after": store.version,
            "served_version_unchanged":
                store.version == version_before,
        }
    else:
        ingestor.close(flush=True)
        scheduler.tick()

    parity = None
    if cfg.parity_check:
        online = sorted(
            (
                (e.stay.courier_id, e.stay.lng, e.stay.lat,
                 e.stay.t_arrive, e.stay.t_leave, e.stay.n_points)
                for e in emitted_log
            ),
        )
        reference = sorted(
            _batch_reference(
                ingestor.recorded_fixes(), extractor.config.stay
            )
        )
        parity = {
            "n_online": len(online),
            "n_batch": len(reference),
            "equal": online == reference,
        }

    counts = metrics.event_counts()
    promo_counts = {
        outcome: sum(1 for r in scheduler.records if r.outcome == outcome)
        for outcome in {r.outcome for r in scheduler.records}
    }
    payload: dict[str, Any] = {
        "config": asdict(cfg),
        "ingest": {
            "offered": ingestor.n_offered,
            **{k: int(v) for k, v in counts.items()},
            "lost": int(metrics.n_lost()),
            "wall_s": produced["wall"],
            "events_per_sec": (
                produced["n"] / produced["wall"] if produced["wall"] else 0.0
            ),
            "stays_emitted": len(emitted_log),
            "courier_states_evicted": extractor.n_evicted,
        },
        "freshness": {
            "n_samples": len(freshness_samples),
            "p50_s": percentile(freshness_samples, 50.0) if freshness_samples else None,
            "p95_s": percentile(freshness_samples, 95.0) if freshness_samples else None,
            "max_s": max(freshness_samples) if freshness_samples else None,
        },
        "promotions": {
            "n_promoted": scheduler.n_promoted,
            "n_rejected": scheduler.n_rejected,
            "by_outcome": promo_counts,
            "final_version": store.version,
        },
        "audit": scheduler.audit_trail(),
        "parity": parity,
        "poison": poison_result,
        "serve": serve_report.to_dict() if serve_report else None,
        "zero_loss": metrics.n_lost() == 0,
    }
    if cfg.blackbox_dir:
        import glob as _glob
        import os as _os

        payload["blackbox"] = {
            "dir": cfg.blackbox_dir,
            "dumps": sorted(_glob.glob(
                _os.path.join(cfg.blackbox_dir, "blackbox-*.json")
            )),
        }
    if obs_dir:
        # Persist the serving tier's provenance ring next to the worker
        # files so post-run `repro explain` sees thread-backend answers too.
        from repro.obs import get_provenance_ring

        get_provenance_ring().persist(f"{obs_dir}/provenance-router.jsonl")
    metrics.close()
    server.stop()
    return payload


__all__ = ["StreamBenchConfig", "run_stream_bench"]
