"""Serving-tier throughput and latency (Figure 14 deployment, online half).

Load-tests :mod:`repro.serve` over the DowntownBJ-scale synthetic city:
a closed loop for saturated QPS across cache configurations, an open loop
(Poisson arrivals) for tail latency at a controlled rate, and a refresh
churning the store mid-load to demonstrate the one-reference snapshot
swap serves zero errors during rebuilds.  A ``multiprocess``
section then benches the mmap'd-columnar-snapshot worker pool
(:mod:`repro.serve.mp`) at 1/2/4 workers — per-request and batched cold
paths, refresh churn through the durable publish protocol, and
snapshot-load percentiles.  Results land in
``benchmarks/results/BENCH_serve.json``.
"""

import json
import os
import random
import threading
import time

from repro.eval import series_table
from repro.obs.health import SLO
from repro.obs.trace import configure_tracing, disable_tracing
from repro.serve import (
    GeohashShardStrategy,
    LoadGenerator,
    ProcessRouter,
    QueryServer,
    ServeStatus,
    ServerConfig,
    ShardedLocationStore,
    SnapshotPublisher,
    load_snapshot,
)

#: Cold worker-pool config: no result cache, generous deadline (the
#: closed loops saturate a shared single-core runner).
MP_CONFIG = ServerConfig(queue_capacity=256, cache_capacity=0,
                         default_timeout_s=10.0)
MP_BATCH = 512

DURATION_S = 1.0
N_CLIENTS = 4

#: The objectives every scenario is verdicted against (live windows, with
#: burn rates); lenient enough for shared CI runners, tight enough to
#: catch a deadlocked worker pool or a broken cache.
BENCH_SLOS = [
    SLO(name="p95-latency", metric="serve_request_latency_seconds",
        kind="quantile", quantile=0.95, objective=0.25),
    SLO(name="error-rate", metric="serve_requests_total",
        kind="error_rate", objective=0.01, bad=(("status", ("error",)),)),
]


def _run(store, config, address_ids, seed, refresh_with=None, workload="closed",
         rate=500.0):
    with QueryServer(store, config) as server:
        generator = LoadGenerator(server, address_ids, random.Random(seed))
        stop = threading.Event()
        churn = None
        if refresh_with is not None:
            def _churn():
                while not stop.wait(0.05):
                    server.apply_refresh(refresh_with)

            churn = threading.Thread(target=_churn)
            churn.start()
        if workload == "closed":
            report = generator.run_closed(n_clients=N_CLIENTS, duration_s=DURATION_S,
                                          slos=BENCH_SLOS)
        else:
            report = generator.run_open(rate_rps=rate, duration_s=DURATION_S,
                                        slos=BENCH_SLOS)
        if churn is not None:
            stop.set()
            churn.join()
        return report


def _closed_batched(router, address_ids, seed, n_clients=2, duration_s=0.75,
                    churn=None):
    """Closed loop over ``query_batch``: the worker pool's native shape.

    Returns ``(ids_per_s, n_ok, n_not_ok, errors)`` where ``errors`` are
    the non-OK ``(status, error)`` pairs (expected empty).
    """
    counts = [0] * n_clients
    bad: list[tuple[str, str | None]] = []

    def client(k: int) -> None:
        rng = random.Random(seed + k)
        end = time.monotonic() + duration_s
        while time.monotonic() < end:
            chunk = [address_ids[rng.randrange(len(address_ids))]
                     for _ in range(MP_BATCH)]
            for response in router.query_batch(chunk):
                if response.status is ServeStatus.OK:
                    counts[k] += 1
                else:
                    bad.append((response.status.value, response.error))

    threads = [threading.Thread(target=client, args=(k,))
               for k in range(n_clients)]
    t0 = time.monotonic()
    for thread in threads:
        thread.start()
    stop = threading.Event()
    n_refreshes = 0
    if churn is not None:
        while any(t.is_alive() for t in threads):
            if stop.wait(0.1):
                break
            churn()
            n_refreshes += 1
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - t0
    return sum(counts) / elapsed, sum(counts), n_refreshes, bad


def _multiprocess_section(workload, locations, snapshot_dir,
                          single_process_cold_qps):
    """Worker-pool numbers: per-request + batched cold QPS at 1/2/4 workers,
    refresh churn through the durable publish path, snapshot-load tail."""
    address_ids = sorted(workload.addresses)
    store = ShardedLocationStore(
        locations, workload.addresses,
        strategy=GeohashShardStrategy(8, precision=6),
    )
    publisher = SnapshotPublisher(snapshot_dir)
    publisher.publish(store)

    workers = {}
    for n_workers in (1, 2, 4):
        with ProcessRouter(snapshot_dir, n_workers=n_workers,
                           config=MP_CONFIG) as router:
            per_request = LoadGenerator(
                router, address_ids, random.Random(0)
            ).run_closed(n_clients=4, duration_s=0.75)
            batched_qps, n_ok, _, bad = _closed_batched(
                router, address_ids, seed=n_workers
            )
            stats = router.stats()
        workers[str(n_workers)] = {
            "per_request_qps": per_request.throughput_rps,
            "per_request_errors": per_request.n_errors,
            "batched_ids_per_s": batched_qps,
            "batched_n_ok": n_ok,
            "batched_not_ok": bad[:5],
            "snapshot_load_ms": stats["snapshot_load_ms"],
        }

    # Refresh churn through the full durable protocol (log -> swap ->
    # snapshot file -> version-counter flip) while two clients hammer the
    # pool: the acceptance bar is zero non-OK responses.
    with ProcessRouter(snapshot_dir, n_workers=2, config=MP_CONFIG) as router:
        churn_qps, churn_ok, n_refreshes, churn_bad = _closed_batched(
            router, address_ids, seed=99, duration_s=1.0,
            churn=lambda: publisher.refresh(store, locations),
        )
        churn_stats = router.stats()

    # Ring-search parity: the published snapshot's geohash spatial index
    # must agree with the exhaustive linear scan on every probe.
    index = load_snapshot(publisher.path_for(store.version)).spatial_index()
    rng = random.Random(5)
    parity = True
    for _ in range(40):
        aid = address_ids[rng.randrange(len(address_ids))]
        probe = workload.addresses[aid].geocode
        ring = index.nearest(probe.lng, probe.lat)
        linear = index.nearest_linear(probe.lng, probe.lat)
        if ring is None or linear is None or abs(ring[1] - linear[1]) > 1e-6:
            parity = False
            break

    cold_4w = workers["4"]["batched_ids_per_s"]
    return {
        "cpu_count": os.cpu_count(),
        "batch_size": MP_BATCH,
        "workers": workers,
        "single_process_cold_qps": single_process_cold_qps,
        "cold_qps_4w": cold_4w,
        "cold_speedup_4w_vs_single_process": (
            cold_4w / max(single_process_cold_qps, 1e-9)
        ),
        "refresh_churn": {
            "n_refreshes": n_refreshes,
            "n_ok": churn_ok,
            "ids_per_s": churn_qps,
            "not_ok": churn_bad[:5],
            "final_store_version": churn_stats["store_version"],
            "worker_restarts": churn_stats["worker_restarts"],
        },
        "snapshot_load_ms": churn_stats["snapshot_load_ms"],
        "nearest_ring_parity": parity,
        "note": (
            "Cold path resolves batches against the mmap'd columnar "
            "snapshot (vectorized lookup) vs. the single-process "
            "uncached cold scenario above (per-object dict walk). "
            f"On a {os.cpu_count()}-core runner the worker count buys "
            "isolation and page-cache sharing, not CPU parallelism; "
            "per-worker scaling numbers are reported unmassaged."
        ),
    }


def _observability_section(workload, locations, snapshot_dir, trace_dir):
    """Fleet observability on a *dedicated, fresh* snapshot dir.

    The shared-memory planes attach-preserve across runs, so the exact
    count-conservation assertion (per-worker counters summing to the
    router's totals) is only meaningful here, where nothing else has
    written to the planes — not in ``_multiprocess_section``, whose
    snapshot dir is reused across the 1/2/4-worker scenarios.
    """
    address_ids = sorted(workload.addresses)
    store = ShardedLocationStore(
        locations, workload.addresses,
        strategy=GeohashShardStrategy(8, precision=6),
    )
    publisher = SnapshotPublisher(snapshot_dir)
    publisher.publish(store)

    os.makedirs(trace_dir, exist_ok=True)
    merged_trace = os.path.join(trace_dir, "merged-trace.jsonl")
    configure_tracing(os.path.join(trace_dir, "router-trace.jsonl"))
    try:
        with ProcessRouter(snapshot_dir, n_workers=2,
                           config=MP_CONFIG) as router:
            rng = random.Random(7)
            n_issued = 0
            for _ in range(6):
                chunk = [address_ids[rng.randrange(len(address_ids))]
                         for _ in range(64)]
                n_issued += len(router.query_batch(chunk))
            router.stop()  # flush worker planes + span files before scraping
            merged = router.metrics().to_dict()
            fleet = router.fleet_verdict(BENCH_SLOS + [
                SLO(name="worker-restarts",
                    metric="serve_worker_restarts_total",
                    kind="max", objective=0),
            ]).to_dict()
            trace_stats = router.trace_dump(merged_trace)
    finally:
        disable_tracing()

    families = {m["name"]: m for m in merged["metrics"]}

    def status_sums(name):
        out = {}
        for sample in families.get(name, {}).get("samples", []):
            status = sample["labels"].get("status", "")
            out[status] = out.get(status, 0.0) + sample["value"]
        return out

    with open(merged_trace) as fh:
        spans = [json.loads(line) for line in fh]
    routes = {s["span_id"]: s for s in spans if s["name"] == "serve.route"}
    linked = [
        s for s in spans
        if s["name"] == "serve.request"
        and s.get("parent_id") in routes
        and s["trace_id"] == routes[s["parent_id"]]["trace_id"]
    ]

    return {
        "n_issued": n_issued,
        "router_requests_by_status": status_sums("serve_requests_total"),
        "worker_requests_by_status": status_sums(
            "serve_worker_requests_total"
        ),
        "fleet_slo": fleet,
        "trace": trace_stats,
        "n_cross_process_links": len(linked),
    }


def test_serve_qps(dow_workload, write_result, write_json, tmp_path):
    workload = dow_workload
    locations = dict(workload.ground_truth)
    address_ids = sorted(workload.addresses)

    scenarios = {}
    rows = []
    configs = [
        ("cached", ServerConfig(n_workers=4, queue_capacity=256)),
        ("uncached", ServerConfig(n_workers=4, queue_capacity=256,
                                  cache_capacity=0)),
    ]
    for name, config in configs:
        store = ShardedLocationStore(locations, workload.addresses, n_shards=8)
        report = _run(store, config, address_ids, seed=0)
        scenarios[name] = report.to_dict()
        rows.append((name, report.throughput_rps, report.latency_ms["p50"],
                     report.latency_ms["p99"], report.cache_hit_rate * 100.0))

    # Refresh churn: swaps every 50 ms while the closed loop hammers away.
    store = ShardedLocationStore(locations, workload.addresses, n_shards=8)
    churn_report = _run(store, configs[0][1], address_ids, seed=0,
                        refresh_with=locations)
    scenarios["cached+refresh-churn"] = churn_report.to_dict()
    rows.append(("cached+refresh-churn", churn_report.throughput_rps,
                 churn_report.latency_ms["p50"], churn_report.latency_ms["p99"],
                 churn_report.cache_hit_rate * 100.0))

    # Open loop at a fixed rate for honest tail latency.
    store = ShardedLocationStore(locations, workload.addresses, n_shards=8)
    open_report = _run(store, configs[0][1], address_ids, seed=0,
                       workload="open", rate=500.0)
    scenarios["open-500rps"] = open_report.to_dict()
    rows.append(("open-500rps", open_report.throughput_rps,
                 open_report.latency_ms["p50"], open_report.latency_ms["p99"],
                 open_report.cache_hit_rate * 100.0))

    multiprocess = _multiprocess_section(
        workload, locations, str(tmp_path / "snapshots"),
        single_process_cold_qps=scenarios["uncached"]["throughput_rps"],
    )
    observability = _observability_section(
        workload, locations, str(tmp_path / "obs-snapshots"),
        str(tmp_path / "obs-traces"),
    )
    multiprocess["observability"] = observability
    for n_workers in ("1", "2", "4"):
        w = multiprocess["workers"][n_workers]
        rows.append((f"process-cold-{n_workers}w (batched)",
                     w["batched_ids_per_s"], 0.0, 0.0, 0.0))

    text = series_table(
        rows,
        headers=["scenario", "qps", "p50(ms)", "p99(ms)", "cache-hit(%)"],
        title="Serving tier: throughput / latency by configuration",
    )
    write_result("BENCH_serve", text)
    write_json("BENCH_serve", {
        "duration_s": DURATION_S,
        "scenarios": scenarios,
        "multiprocess": multiprocess,
    })

    for name, report_dict in scenarios.items():
        assert report_dict["n_errors"] == 0, (name, report_dict)
        assert report_dict["n_ok"] > 0, (name, report_dict)
        # Each scenario carries its queue-depth series and live SLO verdict.
        assert report_dict["queue_depth_series"], (name, report_dict)
        verdict = report_dict["slo"]
        assert verdict is not None and verdict["ok"], (name, verdict)
        assert len(verdict["results"]) == len(BENCH_SLOS), (name, verdict)
    # The swap is invisible to readers: zero non-OK outcomes during churn.
    assert churn_report.n_ok == churn_report.n_issued

    # -- worker-pool acceptance gates -----------------------------------
    for n_workers, w in multiprocess["workers"].items():
        assert w["per_request_errors"] == 0, (n_workers, w)
        assert w["batched_not_ok"] == [], (n_workers, w)
        assert w["snapshot_load_ms"]["p95"] >= 0.0, (n_workers, w)
    churn_mp = multiprocess["refresh_churn"]
    assert churn_mp["n_refreshes"] >= 2, churn_mp
    assert churn_mp["not_ok"] == [], churn_mp
    assert churn_mp["final_store_version"] > 1, churn_mp
    assert multiprocess["nearest_ring_parity"] is True
    assert multiprocess["cold_speedup_4w_vs_single_process"] >= 3.0, multiprocess

    # -- fleet observability gates (fresh planes, exact conservation) ---
    router_counts = observability["router_requests_by_status"]
    worker_counts = observability["worker_requests_by_status"]
    n_issued = observability["n_issued"]
    assert n_issued > 0
    assert sum(router_counts.values()) == n_issued, observability
    assert sum(worker_counts.values()) == n_issued, observability
    assert router_counts.get("ok") == worker_counts.get("ok") == n_issued, \
        observability
    assert observability["fleet_slo"]["ok"], observability["fleet_slo"]
    assert observability["n_cross_process_links"] >= 1, observability
    assert observability["trace"]["n_kept_spans"] >= 2, observability["trace"]
