"""Stage 1 of DLInfMA: stay-point extraction from couriers' trajectories.

Noise filtering followed by stay-point detection (paper defaults
``D_max = 20 m``, ``T_min = 30 s``, Section III-A).  The paper implements
this stage with trajectory-level parallelization (Section V-F); pass
``workers`` to fan the per-trip work out over processes.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import Counter
from dataclasses import dataclass, field

from repro.obs import event, get_registry
from repro.obs import span as obs_span
from repro.trajectory import (
    DeliveryTrip,
    NoiseFilterConfig,
    StayPoint,
    StayPointConfig,
    noise_kept,
    stay_points_of,
)


@dataclass(frozen=True)
class ExtractionConfig:
    """Noise-filter + stay-point thresholds.

    ``workers`` > 1 routes extraction through a process pool; it affects
    only wall-clock time, never the extracted stay points.
    """

    noise: NoiseFilterConfig = field(default_factory=NoiseFilterConfig)
    stay: StayPointConfig = field(default_factory=StayPointConfig)
    workers: int | None = None


def _extract_one(args: tuple[DeliveryTrip, ExtractionConfig]) -> tuple[str, list[StayPoint]]:
    trip, config = args
    lng, lat, t = trip.trajectory.to_arrays()
    kept = noise_kept(lng, lat, t, config.noise)
    stays = stay_points_of(lng[kept], lat[kept], t[kept], trip.trajectory.courier_id, config.stay)
    return trip.trip_id, stays


def _extract_one_tagged(
    args: tuple[DeliveryTrip, ExtractionConfig],
) -> tuple[int, str, list[StayPoint]]:
    """Pool-worker variant: tags the result with the worker's pid so the
    parent can attribute per-worker item counts."""
    trip_id, stays = _extract_one(args)
    return os.getpid(), trip_id, stays


def _count_worker_items(per_worker: Counter, per_worker_stays: Counter) -> None:
    registry = get_registry()
    trips_counter = registry.counter(
        "staypoint_extraction_trips_total",
        "Trips processed by stay-point extraction, labeled by worker",
    )
    stays_counter = registry.counter(
        "staypoint_extraction_stay_points_total",
        "Stay points extracted, labeled by worker",
    )
    for worker, n in per_worker.items():
        trips_counter.inc(n, worker=worker)
        stays_counter.inc(per_worker_stays[worker], worker=worker)


def extract_trip_stay_points(
    trips: list[DeliveryTrip],
    config: ExtractionConfig | None = None,
    workers: int | None = None,
) -> dict[str, list[StayPoint]]:
    """Stay points per trip id, from cleaned trajectories.

    ``workers`` > 1 runs trips through a process pool (trajectory-level
    parallelization); the default is serial, which is faster at small
    scales because of pickling overhead.  When ``workers`` is None the
    value from ``config.workers`` applies, so the pipeline config reaches
    this point without every caller re-plumbing it.

    Per-worker trip/stay-point counts land in the metrics registry
    (``staypoint_extraction_*_total{worker=...}``) for both the serial
    path (worker ``"serial"``) and the fan-out path (worker = pool pid).
    """
    config = config or ExtractionConfig()
    if workers is None:
        workers = config.workers
    parallel = workers is not None and workers > 1 and len(trips) > 1
    with obs_span(
        "staypoint.extract", n_trips=len(trips), workers=workers if parallel else 1
    ):
        per_worker: Counter = Counter()
        per_worker_stays: Counter = Counter()
        if parallel:
            with multiprocessing.Pool(workers) as pool:
                tagged = pool.map(_extract_one_tagged, [(trip, config) for trip in trips])
            out = {}
            for pid, trip_id, stays in tagged:
                out[trip_id] = stays
                per_worker[str(pid)] += 1
                per_worker_stays[str(pid)] += len(stays)
        else:
            out = dict(_extract_one((trip, config)) for trip in trips)
            per_worker["serial"] = len(trips)
            per_worker_stays["serial"] = sum(len(v) for v in out.values())
        _count_worker_items(per_worker, per_worker_stays)
    event(
        "staypoint.extraction.complete", level="debug", component="staypoints",
        n_trips=len(trips), n_workers=len(per_worker),
        n_stay_points=sum(per_worker_stays.values()),
    )
    return out
