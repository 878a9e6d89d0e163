"""Command-line interface.

Workflow:

.. code-block:: bash

    python -m repro generate --preset downbj --out data/
    python -m repro evaluate --data data/ --methods Geocoding,DLInfMA
    python -m repro infer    --data data/ --out data/locations.json
    python -m repro query    --data data/ --locations data/locations.json \
                             --address-id a00042
    python -m repro serve-bench --data data/ --locations data/locations.json \
                             --workload open --rate 500 --duration 2

``generate`` writes trips/addresses/ground-truth/split files; ``evaluate``
reproduces a Table II-style comparison on them; ``infer`` runs the full
DLInfMA pipeline and dumps the address→location table; ``query`` answers a
single lookup through the deployed store's fallback chain; ``serve-bench``
load-tests the concurrent sharded serving tier (:mod:`repro.serve`) and
reports p50/p95/p99 latency, throughput, cache hit rate, and rejections.

Observability: ``evaluate``, ``update``, and ``serve-bench`` accept
``--trace PATH`` (write a JSON-lines span trace), ``--metrics-out PATH``
(export the metrics registry as JSON, or Prometheus text for
``.prom``/``.txt`` suffixes), ``--memory PATH`` (per-stage tracemalloc
snapshots), and ``--json`` (machine-readable report on stdout);
``repro metrics PATH`` renders a saved metrics file as a table.

Health: ``repro health --metrics m.json --slo slo.yaml`` evaluates
declarative SLOs against an exported metrics file and exits nonzero on any
violation; ``serve-bench --slo slo.yaml`` applies the same engine to the
server's live registry; ``update --drift-out d.json``
compares pool/matcher fingerprints before and after the incremental batch;
``repro profile -- <subcommand ...>`` wraps any subcommand in the sampling
profiler.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from collections import defaultdict

from repro import obs
from repro.core import DLInfMA, DLInfMAConfig
from repro.core.persistence import load_locations, save_locations
from repro.durable import write_text
from repro.eval import Workload, evaluate, metrics_table, run_methods
from repro.geo import BBox, LocalProjection
from repro.synth import (
    AddressSplit,
    downbj_config,
    generate_dataset,
    split_addresses_by_region,
    subbj_config,
    tiny_config,
)
from repro.synth.io import (
    load_addresses,
    load_ground_truth,
    load_trips,
    save_addresses,
    save_ground_truth,
    save_trips,
)

PRESETS = {"downbj": downbj_config, "subbj": subbj_config, "tiny": tiny_config}


def _cmd_generate(args: argparse.Namespace) -> int:
    factory = PRESETS[args.preset]
    config = factory(seed=args.seed) if args.preset == "tiny" else factory(
        scale=args.scale, seed=args.seed
    )
    dataset = generate_dataset(config)
    split = split_addresses_by_region(dataset)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_trips(dataset.trips, out / "trips.jsonl")
    save_addresses(dataset.addresses, out / "addresses.json")
    save_ground_truth(dataset.ground_truth, out / "ground_truth.json")
    write_text(
        out / "split.json",
        json.dumps({"train": split.train, "val": split.val, "test": split.test}),
    )
    stats = dataset.stats()
    print(f"generated {dataset.name}-like dataset into {out}/")
    for key, value in stats.items():
        print(f"  {key:<12} {value:.0f}")
    return 0


def _load_workload(data_dir: pathlib.Path) -> Workload:
    trips = load_trips(data_dir / "trips.jsonl")
    addresses = load_addresses(data_dir / "addresses.json")
    ground_truth = load_ground_truth(data_dir / "ground_truth.json")
    split_payload = json.loads((data_dir / "split.json").read_text())
    split = AddressSplit(
        tuple(split_payload["train"]),
        tuple(split_payload["val"]),
        tuple(split_payload["test"]),
    )
    box = BBox.from_points([a.geocode for a in addresses.values()])
    projection = LocalProjection(box.center)
    return Workload(
        trips=trips,
        addresses=addresses,
        ground_truth=ground_truth,
        split=split,
        projection=projection,
    )


def _print_stage_timings(rows, indent: str = "  ") -> None:
    """Print ``(stage, seconds)`` rows."""
    for stage, seconds in rows:
        print(f"{indent}{stage:<24} {seconds * 1000.0:9.1f} ms")


def _begin_observability(args: argparse.Namespace) -> None:
    if getattr(args, "trace", None):
        obs.configure_tracing(args.trace)
    if getattr(args, "memory", None):
        obs.configure_memory_profiling()


def _end_observability(args: argparse.Namespace, config=None) -> None:
    quiet = getattr(args, "json", False)
    if getattr(args, "metrics_out", None):
        obs.export_metrics(args.metrics_out, meta=obs.run_metadata(config))
        if not quiet:
            print(f"metrics -> {args.metrics_out}")
    if getattr(args, "trace", None):
        obs.disable_tracing()
        if not quiet:
            print(f"trace -> {args.trace}")
    if getattr(args, "memory", None):
        memory = obs.disable_memory_profiling()
        if memory is not None:
            memory.save(args.memory)
            if not quiet:
                print(f"memory -> {args.memory} "
                      f"({len(memory.snapshots)} stage snapshots)")


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """The shared --trace/--metrics-out/--memory flag group."""
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a JSON-lines span trace to PATH")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="export metrics to PATH (.json, or .prom/.txt "
                             "for Prometheus text format)")
    parser.add_argument("--memory", default=None, metavar="PATH",
                        help="per-stage tracemalloc snapshots to PATH (JSON)")


def _cmd_evaluate(args: argparse.Namespace) -> int:
    _begin_observability(args)
    workload = _load_workload(pathlib.Path(args.data))
    names = [n.strip() for n in args.methods.split(",") if n.strip()]
    runs = run_methods(workload, names, seed=args.seed, fast=args.fast)
    results = {
        name: evaluate(run.predictions, workload.ground_truth)
        for name, run in runs.items()
    }
    if args.json:
        payload = {
            "data": args.data,
            "seed": args.seed,
            "fast": args.fast,
            "methods": {
                name: {
                    "mae_m": results[name].mae,
                    "p95_m": results[name].p95,
                    "beta50_pct": results[name].beta50,
                    "n": results[name].n,
                    "fit_seconds": runs[name].fit_seconds,
                    "predict_seconds": runs[name].predict_seconds,
                    "stage_timings_s": [
                        [stage, seconds] for stage, seconds in runs[name].stage_rows
                    ],
                }
                for name in names
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        print(metrics_table(
            results, title=f"Evaluation on {args.data} (test addresses)", order=names
        ))
        if args.timings:
            print()
            print("Per-stage engine timings:")
            for name in names:
                run = runs[name]
                if not run.stage_rows:
                    continue
                print(f"{name}:")
                _print_stage_timings(run.stage_rows)
    _end_observability(
        args, config={"command": "evaluate", "methods": names, "seed": args.seed,
                      "fast": args.fast}
    )
    return 0


def _model_fingerprints(model: DLInfMA) -> list:
    """Pool + (when scorable) matcher fingerprints of a fitted pipeline."""
    from repro.obs.drift import matcher_fingerprint, pool_fingerprint

    fingerprints = [
        pool_fingerprint(model.pool, model.extractor.profiles, model.examples)
    ]
    if model.selector is not None and model.examples:
        fingerprints.append(matcher_fingerprint(model.selector, model.examples))
    return fingerprints


def _cmd_update(args: argparse.Namespace) -> int:
    _begin_observability(args)
    workload = _load_workload(pathlib.Path(args.data))
    new_trips = load_trips(args.new_trips)
    model = DLInfMA(DLInfMAConfig(selector=args.selector))
    model.fit(
        workload.trips,
        workload.addresses,
        workload.ground_truth,
        workload.train_ids,
        workload.val_ids,
        projection=workload.projection,
    )
    fit_rows = [(r.name, r.seconds) for r in model.context.records]
    baseline_fps = _model_fingerprints(model) if args.drift_out else []
    model.update(
        new_trips, workload.ground_truth, workload.train_ids, workload.val_ids
    )
    update_rows = [(r.name, r.seconds) for r in model.context.records]
    drift_reports = []
    if args.drift_out:
        from repro.obs.drift import compare_fingerprints, save_drift_report

        current = {fp.kind: fp for fp in _model_fingerprints(model)}
        drift_reports = [
            compare_fingerprints(base, current[base.kind])
            for base in baseline_fps
            if base.kind in current
        ]
        save_drift_report(drift_reports, args.drift_out)
    delivered = model.extractor.delivered
    locations = model.predict(delivered)
    save_locations(locations, args.out)
    n_new = model.counters.get("stay_point_extraction.trips", len(new_trips))
    n_examples = model.counters.get("feature_extraction.examples_built", 0)
    if args.json:
        payload = {
            "submitted": len(new_trips),
            "absorbed": n_new,
            "total_trips": len(model.extractor.trips),
            "locations_out": str(args.out),
            "n_locations": len(locations),
            "examples": n_examples,
            "fit_stage_timings_s": [[s, t] for s, t in fit_rows],
            "update_stage_timings_s": [[s, t] for s, t in update_rows],
        }
        if args.drift_out:
            payload["drift"] = {
                "out": str(args.drift_out),
                "drifted": any(r.drifted for r in drift_reports),
                "reports": [r.to_dict() for r in drift_reports],
            }
        print(json.dumps(payload, indent=2))
    else:
        print(f"absorbed {n_new} new trips of {len(new_trips)} submitted "
              f"({len(model.extractor.trips)} total) -> {args.out}")
        print(f"{n_examples} address examples")
        for report in drift_reports:
            print(report.render())
        if args.drift_out:
            print(f"drift report -> {args.drift_out}")
        if args.timings:
            print()
            print("initial fit:")
            _print_stage_timings(fit_rows)
            print(f"incremental update ({n_new} trips):")
            _print_stage_timings(update_rows)
    _end_observability(
        args, config={"command": "update", "selector": args.selector}
    )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    path = pathlib.Path(args.path)
    if not path.exists():
        print(f"no such metrics file: {path}", file=sys.stderr)
        return 1
    try:
        payload = obs.load_metrics(path)
    except json.JSONDecodeError:
        print(f"not a JSON metrics file: {path} "
              "(Prometheus text exports are already human-readable)", file=sys.stderr)
        return 1
    try:
        print(obs.render_metrics(payload))
    except TypeError as exc:
        print(f"malformed metrics file {path}: {exc}", file=sys.stderr)
        return 1
    return 0


def _load_slos(path) -> list | None:
    """The SLOs of spec file ``path``; ``None`` after printing why not
    (the caller exits 2)."""
    from repro.obs.health import load_slo_file

    try:
        return load_slo_file(path)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot load SLO spec {path}: {exc}", file=sys.stderr)
        return None


def _print_verdict(title: str, verdict: dict) -> None:
    """One line per SLO of a verdict dict, under ``title``."""
    print()
    print(title)
    for result in verdict.get("results", []):
        observed = result.get("observed")
        shown = "no data" if observed is None else f"{observed:.6g}"
        print(f"  {'OK ' if result.get('ok') else 'VIOLATED':<9} "
              f"{result.get('name')}  observed {shown}  "
              f"<= {result.get('objective')}")


def _cmd_health(args: argparse.Namespace) -> int:
    """Evaluate an SLO spec against an exported metrics file.

    Exit codes: 0 healthy, 1 any objective violated (or no data for it),
    2 unreadable inputs — so CI can gate on the verdict directly.
    """
    from repro.obs.health import evaluate_slos

    metrics_path = pathlib.Path(args.metrics)
    slos = _load_slos(pathlib.Path(args.slo))
    if slos is None:
        return 2
    try:
        payload = obs.load_metrics(metrics_path)
    except OSError as exc:
        print(f"cannot read metrics file {metrics_path}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError:
        print(f"not a JSON metrics file: {metrics_path} "
              "(point --metrics at a --metrics-out .json export)", file=sys.stderr)
        return 2
    report = evaluate_slos(payload, slos, source=str(metrics_path))
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return report.exit_code


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run any subcommand under the sampling profiler."""
    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        print("profile: missing subcommand (usage: repro profile [-- ] "
              "<subcommand> ...)", file=sys.stderr)
        return 2
    sampler = obs.SamplingProfiler(hz=args.hz).start()
    try:
        code = main(rest)
    finally:
        profile = sampler.stop()
    if args.out:
        profile.save(args.out)
        print(f"profile -> {args.out} "
              f"({profile.n_ticks} ticks @ {profile.hz:.0f} Hz, "
              f"{profile.duration_s:.2f} s)")
    rows = profile.top(args.top)
    if rows:
        print(f"top {len(rows)} frames by self time:")
        for frame, self_s, total_s in rows:
            print(f"  {frame:<48} self {self_s:7.3f} s  total {total_s:7.3f} s")
    return code


def _cmd_infer(args: argparse.Namespace) -> int:
    workload = _load_workload(pathlib.Path(args.data))
    model = DLInfMA(DLInfMAConfig(selector=args.selector))
    model.fit(
        workload.trips,
        workload.addresses,
        workload.ground_truth,
        workload.train_ids,
        workload.val_ids,
        projection=workload.projection,
    )
    delivered = sorted({a for trip in workload.trips for a in trip.address_ids})
    locations = model.predict(delivered)
    save_locations(locations, args.out)
    errors = evaluate(
        {a: p for a, p in locations.items() if a in workload.test_ids},
        workload.ground_truth,
    )
    print(f"inferred {len(locations)} delivery locations -> {args.out}")
    print(f"held-out test MAE {errors.mae:.1f} m, P95 {errors.p95:.1f} m, "
          f"β50 {errors.beta50:.1f}%")
    return 0


def _cmd_crossval(args: argparse.Namespace) -> int:
    from repro.eval import cross_validate, series_table

    factory = PRESETS[args.preset]
    config = factory(seed=args.seed) if args.preset == "tiny" else factory(
        scale=args.scale, seed=args.seed
    )
    dataset = generate_dataset(config)
    methods = [n.strip() for n in args.methods.split(",") if n.strip()]
    results = cross_validate(dataset, methods, n_folds=args.folds, fast=args.fast)
    rows = []
    for name in methods:
        cv = results[name]
        lo, hi = cv.mae_ci
        rows.append((name, cv.mae_mean, lo, hi, cv.beta50_mean))
    print(series_table(
        rows,
        headers=["method", "MAE(m)", "CI lo", "CI hi", "β50(%)"],
        title=f"{args.folds}-fold spatial cross-validation ({dataset.name}-like)",
    ))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from collections import Counter

    from repro.core import DLInfMAConfig, build_artifacts, extract_trip_stay_points
    from repro.eval import histogram_text, series_table

    workload = _load_workload(pathlib.Path(args.data))
    trips = workload.trips
    n_waybills = sum(len(t.waybills) for t in trips)
    n_points = sum(len(t.trajectory) for t in trips)
    print(series_table(
        [
            ("trips", len(trips)),
            ("couriers", len({t.courier_id for t in trips})),
            ("addresses", len({a for t in trips for a in t.address_ids})),
            ("waybills", n_waybills),
            ("gps points", n_points),
        ],
        headers=["quantity", "value"],
        title=f"Dataset statistics for {args.data}",
    ))

    deliveries = Counter()
    for trip in trips:
        for address_id in trip.address_ids:
            deliveries[address_id] += 1
    per_addr = Counter(deliveries.values())
    print()
    print(histogram_text(per_addr, title="Deliveries per address"))

    stays = extract_trip_stay_points(trips)
    per_trip = Counter(len(v) for v in stays.values())
    print()
    print(histogram_text(per_trip, title="Stay points per trip"))

    artifacts = build_artifacts(trips, workload.addresses, workload.projection, DLInfMAConfig())
    per_example = Counter(e.n_candidates for e in artifacts.examples.values())
    print()
    print(histogram_text(per_example, title=f"Candidates per address (pool={len(artifacts.pool)})"))
    return 0


def _cmd_export_geojson(args: argparse.Namespace) -> int:
    from repro.core import DLInfMAConfig, build_artifacts
    from repro.eval import pool_to_geojson, predictions_to_geojson, write_geojson

    workload = _load_workload(pathlib.Path(args.data))
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = build_artifacts(
        workload.trips, workload.addresses, workload.projection, DLInfMAConfig()
    )
    write_geojson(pool_to_geojson(artifacts.pool), out_dir / "candidates.geojson")
    written = ["candidates.geojson"]
    if args.locations:
        locations = load_locations(args.locations)
        write_geojson(
            predictions_to_geojson(locations, workload.ground_truth),
            out_dir / "predictions.geojson",
        )
        written.append("predictions.geojson")
    print(f"wrote {', '.join(written)} to {out_dir}/")
    return 0


def _counter_totals(registry: obs.MetricsRegistry) -> dict[str, float]:
    """Each counter family's samples summed, by name (0.0 when absent)."""
    totals: dict[str, float] = defaultdict(float)
    for family in registry.to_dict()["metrics"]:
        if family["type"] == "counter":
            totals[family["name"]] = sum(s["value"] for s in family["samples"])
    return totals


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import contextlib
    import random
    import tempfile
    import threading
    import time as _time

    from repro.serve import (
        GeohashShardStrategy,
        HashShardStrategy,
        LoadGenerator,
        ProcessRouter,
        QueryServer,
        ServerConfig,
        ShardedLocationStore,
    )

    slos = _load_slos(args.slo) if args.slo else []
    if slos is None:
        return 2
    _begin_observability(args)
    data_dir = pathlib.Path(args.data)
    addresses = load_addresses(data_dir / "addresses.json")
    locations = load_locations(args.locations)
    if args.strategy == "geohash":
        strategy = GeohashShardStrategy(args.shards)
    else:
        strategy = HashShardStrategy(args.shards)
    store = ShardedLocationStore(locations, addresses, strategy=strategy)
    config = ServerConfig(
        n_workers=args.workers,
        queue_capacity=args.queue,
        default_timeout_s=args.timeout,
        cache_capacity=args.cache_size,
        cache_ttl_s=args.cache_ttl,
    )
    rng = random.Random(args.seed)
    with contextlib.ExitStack() as stack:
        if args.backend == "process":
            # Worker processes mmap a published columnar snapshot; the
            # mid-run churn goes through the durable publish protocol
            # (log → swap → snapshot file → version-counter flip).
            snapshot_dir = args.snapshot_dir or stack.enter_context(
                tempfile.TemporaryDirectory(prefix="serve-bench-snap-")
            )
            server = stack.enter_context(ProcessRouter.from_store(
                store, snapshot_dir, n_workers=args.workers, config=config
            ))
        else:
            server = stack.enter_context(QueryServer(store, config))

        generator = LoadGenerator(server, sorted(addresses), rng)
        stop_churn = threading.Event()
        churn_thread = None
        refreshes = [0]
        if args.refresh_every > 0:
            def churn() -> None:
                while not stop_churn.wait(args.refresh_every):
                    server.apply_refresh(locations)
                    refreshes[0] += 1

            churn_thread = threading.Thread(target=churn, name="serve-churn")
            churn_thread.start()
        t0 = _time.perf_counter()
        if args.workload == "closed":
            report = generator.run_closed(
                n_clients=args.clients, duration_s=args.duration, slos=slos
            )
        else:
            report = generator.run_open(
                rate_rps=args.rate, duration_s=args.duration, slos=slos
            )
        wall = _time.perf_counter() - t0
        if churn_thread is not None:
            stop_churn.set()
            churn_thread.join()
        fleet = None
        fleet_registry = None
        if args.backend == "process":
            # Stop the pool first so every worker has flushed its final
            # spans and closed its metrics plane, then scrape the planes
            # (zero IPC — and the snapshot tempdir is still alive here).
            server.stop()
            fleet_registry = server.metrics()
            totals = _counter_totals(fleet_registry)
            fleet = {
                "requests_total": totals["serve_requests_total"],
                "worker_requests_total": totals["serve_worker_requests_total"],
                "worker_restarts": totals["serve_worker_restarts_total"],
                "heartbeat_misses": totals["serve_worker_heartbeat_misses_total"],
                "slo": None,
                "trace": None,
            }
            if slos:
                fleet_report = server.fleet_verdict(slos)
                fleet["slo"] = fleet_report.to_dict()
            if args.trace_merged:
                fleet["trace"] = server.trace_dump(args.trace_merged)
        if args.snapshot_dir:
            # Persist the in-process provenance ring so `repro explain
            # --obs-dir <snapshot-dir>/obs` works for the thread backend
            # too (process workers already persisted theirs at stop()).
            obs.get_provenance_ring().persist(
                pathlib.Path(args.snapshot_dir) / "obs" / "provenance-server.jsonl"
            )
    bench_config = {
        "command": "serve-bench", "workload": args.workload,
        "backend": args.backend,
        "seed": args.seed, "shards": args.shards,
        "strategy": args.strategy, "workers": args.workers,
        "queue": args.queue, "cache_size": args.cache_size,
        "refresh_every_s": args.refresh_every,
    }
    payload = {
        "run_meta": obs.run_metadata(bench_config),
        "config": bench_config,
        "wall_s": wall,
        "refreshes_mid_run": refreshes[0],
        "report": report.to_dict(),
        "fleet": fleet,
    }
    if args.out:
        write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        title = (f"serve-bench: {args.workload} loop, {args.workers} "
                 f"{args.backend} workers, {args.shards} {args.strategy} shards")
        print(title)
        print("-" * len(title))
        print(report.render())
        if args.refresh_every > 0:
            print(f"refreshes       {refreshes[0]} (mid-run, atomic swap)")
        if report.slo is not None:
            _print_verdict("live SLO verdict:", report.slo)
        if fleet is not None and fleet["slo"] is not None:
            _print_verdict("fleet SLO verdict (merged shared-memory planes):",
                           fleet["slo"])
        if fleet is not None and fleet["trace"] is not None:
            t = fleet["trace"]
            print(f"merged trace -> {args.trace_merged} "
                  f"({t['n_kept_spans']} spans from {t['n_kept_traces']} "
                  f"sampled traces)")
        if args.out:
            print(f"report -> {args.out}")
    _end_observability(args, config={"command": "serve-bench"})
    if fleet_registry is not None and getattr(args, "metrics_out", None):
        # The process backend's authoritative export is the merged fleet
        # view, not the front-end process's registry alone — overwrite
        # what _end_observability just wrote with the merged registry so
        # `repro health --metrics` gates the whole fleet.
        obs.export_metrics(args.metrics_out, registry=fleet_registry,
                           meta=obs.run_metadata(bench_config))
    slo_ok = report.slo is None or bool(report.slo.get("ok"))
    fleet_ok = (
        fleet is None or fleet["slo"] is None or bool(fleet["slo"].get("ok"))
    )
    return 0 if report.n_errors == 0 and slo_ok and fleet_ok else 1


def _cmd_stream_bench(args: argparse.Namespace) -> int:
    """Benchmark the streaming ingestion tier (``repro.stream``).

    Exit code gates the streaming acceptance criteria directly: zero
    event loss, online-vs-batch stay parity, at least one promotion, and
    — when the poison probe runs — the drifted batch rejected with the
    served snapshot version unchanged.
    """
    import contextlib
    import tempfile

    from repro.stream.bench import StreamBenchConfig, run_stream_bench

    slos = _load_slos(args.slo) if args.slo else []
    if slos is None:
        return 2
    _begin_observability(args)
    fleet = None
    with contextlib.ExitStack() as stack:
        snapshot_dir = None
        if args.backend == "process":
            snapshot_dir = args.snapshot_dir or stack.enter_context(
                tempfile.TemporaryDirectory(prefix="stream-bench-snap-")
            )
        cfg = StreamBenchConfig(
            preset=args.preset,
            scale=args.scale,
            seed=args.seed,
            duration_s=args.duration,
            event_rate=args.event_rate,
            serve_rate_rps=args.serve_rate,
            backend=args.backend,
            workers=args.workers,
            refresh_interval_s=args.refresh_interval,
            bus_capacity=args.bus_capacity,
            overflow=args.overflow,
            lateness_s=args.lateness,
            disorder_s=args.disorder,
            p_duplicate=args.p_duplicate,
            warmup_promotions=args.warmup,
            psi_threshold=args.psi_threshold,
            poison=not args.no_poison,
            n_poison_sites=args.poison_sites,
            parity_check=not args.no_parity,
            snapshot_dir=snapshot_dir,
            blackbox_dir=args.blackbox_dir,
        )
        payload = run_stream_bench(cfg, slos=slos)
        if args.backend == "process":
            # Post-mortem fleet scrape: the shared-memory planes outlive
            # the worker processes, and metrics-stream.shm sits next to
            # the router/worker planes — prove the streaming tier joined
            # the fleet view.
            from repro.obs.shm import merge_snapshots, scrape_planes

            obs_dir = str(pathlib.Path(snapshot_dir) / "obs")
            snapshots = scrape_planes(obs_dir)
            totals = _counter_totals(merge_snapshots(snapshots))
            fleet = {
                name: totals[name]
                for name in ("stream_events_total", "stream_promotions_total",
                             "serve_requests_total")
            }
            fleet["n_planes"] = len(snapshots)
    payload["run_meta"] = obs.run_metadata({"command": "stream-bench",
                                            **payload["config"]})
    payload["fleet"] = fleet
    if args.out:
        write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        ingest = payload["ingest"]
        freshness = payload["freshness"]
        promos = payload["promotions"]
        title = (f"stream-bench: {cfg.preset} preset, {args.backend} "
                 f"backend, {cfg.duration_s:g}s")
        print(title)
        print("-" * len(title))
        print(f"offered         {ingest['offered']} events "
              f"({ingest['events_per_sec']:.0f}/s)")
        print(f"accepted        {ingest.get('accepted', 0)}   "
              f"duplicate {ingest.get('duplicate', 0)}   "
              f"late {ingest.get('late', 0)}   shed {ingest.get('shed', 0)}")
        print(f"lost            {ingest['lost']} "
              f"({'zero loss' if payload['zero_loss'] else 'LOSS'})")
        print(f"stays emitted   {ingest['stays_emitted']}")
        if freshness["n_samples"]:
            print(f"freshness lag   p50 {freshness['p50_s']:.3f}s   "
                  f"p95 {freshness['p95_s']:.3f}s   "
                  f"max {freshness['max_s']:.3f}s")
        print(f"promotions      {promos['n_promoted']} promoted, "
              f"{promos['n_rejected']} rejected "
              f"{promos['by_outcome']}")
        print(f"final version   {promos['final_version']}")
        if payload["parity"] is not None:
            p = payload["parity"]
            verdict = "EQUAL" if p["equal"] else "MISMATCH"
            print(f"parity          {verdict} "
                  f"(online {p['n_online']} vs batch {p['n_batch']})")
        if payload["poison"] is not None:
            poison = payload["poison"]
            verdict = "rejected" if poison["rejected"] else "NOT REJECTED"
            print(f"poison probe    {verdict} ({poison['outcome']}); "
                  f"served version "
                  f"{'unchanged' if poison['served_version_unchanged'] else 'MOVED'}")
        if payload["serve"] is not None:
            serve = payload["serve"]
            print(f"serve load      {serve['n_issued']} requests, "
                  f"{serve['n_errors']} errors")
        if payload.get("blackbox") is not None:
            bb = payload["blackbox"]
            print(f"black boxes     {len(bb['dumps'])} dump(s) in "
                  f"{bb['dir']}")
            for dump_path in bb["dumps"]:
                print(f"                {dump_path}")
        if fleet is not None:
            print(f"fleet scrape    stream_events_total="
                  f"{fleet['stream_events_total']:.0f}  "
                  f"stream_promotions_total="
                  f"{fleet['stream_promotions_total']:.0f}")
        if args.out:
            print(f"report -> {args.out}")
    _end_observability(args, config={"command": "stream-bench"})
    poison = payload["poison"]
    ok = (
        payload["zero_loss"]
        and (payload["parity"] is None or payload["parity"]["equal"])
        and payload["promotions"]["n_promoted"] >= 1
        and (poison is None
             or (poison["rejected"] and poison["served_version_unchanged"]))
    )
    return 0 if ok else 1


def _cmd_obs_export(args: argparse.Namespace) -> int:
    """Scrape metrics planes post-mortem and render the merged registry.

    The planes (and per-worker span files) outlive the processes that
    wrote them, so a crashed or finished serving run is still exportable:
    point ``--obs-dir`` at the snapshot directory's ``obs/`` subdir.
    """
    import glob as _glob

    from repro.obs.shm import merged_registry, scrape_planes
    from repro.obs.trace import merge_traces

    if not pathlib.Path(args.obs_dir).is_dir():
        print(f"not a directory: {args.obs_dir}", file=sys.stderr)
        return 2
    snapshots = scrape_planes(args.obs_dir)
    if not snapshots:
        print(f"no metrics planes (metrics-*.shm) in {args.obs_dir}",
              file=sys.stderr)
        return 2
    registry = merged_registry(args.obs_dir)
    meta = obs.run_metadata({"command": "obs-export",
                             "obs_dir": args.obs_dir,
                             "n_planes": len(snapshots)})
    torn = sum(s.n_torn for s in snapshots)
    if args.out:
        obs.export_metrics(args.out, registry=registry, meta=meta,
                           exemplars=args.exemplars)
        if not args.json:
            print(f"merged metrics ({len(snapshots)} planes"
                  + (f", {torn} torn slots skipped" if torn else "")
                  + f") -> {args.out}")
    if args.trace_out:
        paths = sorted(_glob.glob(
            str(pathlib.Path(args.obs_dir) / "trace-worker-*.jsonl")
        ))
        stats = merge_traces(paths, args.trace_out)
        if not args.json:
            print(f"merged trace ({stats['n_kept_spans']} spans from "
                  f"{stats['n_kept_traces']} sampled traces) -> "
                  f"{args.trace_out}")
    if args.json:
        print(registry.to_json(meta))
    elif not args.out:
        print(obs.render_metrics(registry.to_dict(meta)))
    if args.slo:
        from repro.obs.health import evaluate_slos

        slos = _load_slos(args.slo)
        if slos is None:
            return 2
        report = evaluate_slos(registry.to_dict(meta), slos, source="fleet")
        if not args.json:
            print()
            print(report.render())
        return report.exit_code
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Explain served answers for one address from persisted provenance.

    Merges every ``provenance-*.jsonl`` file under ``--obs-dir`` (workers
    persist their rings on snapshot rotation and shutdown; benches persist
    the in-process ring at teardown), then renders the records minted for
    the requested address id — location, confidence, snapshot version,
    trace id, and the serving tier that answered.
    """
    from repro.obs.provenance import merge_provenance, render_record

    obs_dir = pathlib.Path(args.obs_dir)
    if not obs_dir.is_dir():
        print(f"not a directory: {args.obs_dir}", file=sys.stderr)
        return 2
    paths = sorted(str(p) for p in obs_dir.glob("provenance-*.jsonl"))
    if not paths:
        print(f"no provenance files (provenance-*.jsonl) in {args.obs_dir}",
              file=sys.stderr)
        return 2
    records, stats = merge_provenance(paths)
    matched = [r for r in records if r.address_id == args.address_id]
    matched = matched[: args.limit]
    if args.json:
        print(json.dumps(
            {
                "address_id": args.address_id,
                "n_matched": len(matched),
                "merge_stats": stats,
                "records": [r.to_dict() for r in matched],
            },
            indent=2, sort_keys=True,
        ))
        return 0 if matched else 1
    if not matched:
        print(f"no provenance records for {args.address_id!r} "
              f"({stats['n_records']} records from {stats['n_files']} files)",
              file=sys.stderr)
        return 1
    print(f"{len(matched)} record(s) for {args.address_id} "
          f"(newest first; {stats['n_records']} total from "
          f"{stats['n_files']} files"
          + (f", {stats['n_torn_lines']} torn lines skipped"
             if stats["n_torn_lines"] else "")
          + ")")
    for record in matched:
        print()
        print(render_record(record))
    return 0


def _cmd_blackbox(args: argparse.Namespace) -> int:
    """Render a flight-recorder black-box dump for post-incident reading."""
    from repro.obs.recorder import load_blackbox, render_blackbox

    try:
        payload = load_blackbox(args.path)
    except (OSError, ValueError) as exc:
        print(f"cannot load black box {args.path}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_blackbox(payload))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.serve import ShardedLocationStore

    data_dir = pathlib.Path(args.data)
    addresses = load_addresses(data_dir / "addresses.json")
    locations = load_locations(args.locations)
    store = ShardedLocationStore(locations, addresses)
    address = addresses.get(args.address_id)
    if address is None:
        print(f"unknown address id: {args.address_id}", file=sys.stderr)
        return 1
    result = store.query(address)
    print(f"address   {address.address_id}: {address.text!r}")
    print(f"location  lng={result.location.lng:.6f} lat={result.location.lat:.6f}")
    print(f"source    {result.source.value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="DLInfMA reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a synthetic dataset")
    p_gen.add_argument("--preset", choices=sorted(PRESETS), default="downbj")
    p_gen.add_argument("--scale", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_eval = sub.add_parser("evaluate", help="compare methods on a dataset")
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--methods", default="Geocoding,GeoCloud,GeoRank,DLInfMA")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--fast", action="store_true")
    p_eval.add_argument("--timings", action="store_true",
                        help="print per-stage engine timings per method")
    p_eval.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON report on stdout")
    _add_obs_flags(p_eval)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_infer = sub.add_parser("infer", help="run DLInfMA and dump locations")
    p_infer.add_argument("--data", required=True)
    p_infer.add_argument("--out", required=True)
    p_infer.add_argument("--selector", default="locmatcher")
    p_infer.set_defaults(func=_cmd_infer)

    p_upd = sub.add_parser(
        "update", help="fit on a dataset, then absorb a new trip batch incrementally"
    )
    p_upd.add_argument("--data", required=True)
    p_upd.add_argument("--new-trips", required=True,
                       help="trips.jsonl with the batch to absorb")
    p_upd.add_argument("--out", required=True)
    p_upd.add_argument("--selector", default="locmatcher")
    p_upd.add_argument("--timings", action="store_true",
                       help="print fit vs. update per-stage timings")
    p_upd.add_argument("--json", action="store_true",
                       help="emit a machine-readable JSON report on stdout")
    p_upd.add_argument("--drift-out", default=None, metavar="PATH",
                       help="compare pool/matcher fingerprints before vs. "
                            "after the batch and write a drift report JSON")
    _add_obs_flags(p_upd)
    p_upd.set_defaults(func=_cmd_update)

    p_metrics = sub.add_parser(
        "metrics", help="render an exported metrics JSON file as a table"
    )
    p_metrics.add_argument("path", help="metrics file written by --metrics-out")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_health = sub.add_parser(
        "health", help="evaluate an SLO spec against an exported metrics file"
    )
    p_health.add_argument("--metrics", required=True,
                          help="metrics JSON written by --metrics-out")
    p_health.add_argument("--slo", required=True,
                          help="SLO spec (YAML or JSON)")
    p_health.add_argument("--json", action="store_true",
                          help="emit the machine-readable verdict on stdout")
    p_health.set_defaults(func=_cmd_health)

    p_prof = sub.add_parser(
        "profile", help="run any subcommand under the sampling profiler"
    )
    p_prof.add_argument("--hz", type=float, default=100.0,
                        help="sampling frequency (samples per second)")
    p_prof.add_argument("--out", default=None, metavar="PATH",
                        help="write the profile (speedscope JSON, or "
                             "collapsed text for .txt/.collapsed)")
    p_prof.add_argument("--top", type=int, default=15,
                        help="print the N heaviest frames by self time")
    p_prof.add_argument("rest", nargs=argparse.REMAINDER,
                        help="subcommand to profile (prefix with --)")
    p_prof.set_defaults(func=_cmd_profile)

    p_cv = sub.add_parser("crossval", help="spatial cross-validation on a preset")
    p_cv.add_argument("--preset", choices=sorted(PRESETS), default="downbj")
    p_cv.add_argument("--scale", type=float, default=1.0)
    p_cv.add_argument("--seed", type=int, default=0)
    p_cv.add_argument("--folds", type=int, default=3)
    p_cv.add_argument("--methods", default="Geocoding,GeoCloud,DLInfMA")
    p_cv.add_argument("--fast", action="store_true")
    p_cv.set_defaults(func=_cmd_crossval)

    p_stats = sub.add_parser("stats", help="print dataset distribution stats")
    p_stats.add_argument("--data", required=True)
    p_stats.set_defaults(func=_cmd_stats)

    p_geo = sub.add_parser("export-geojson", help="export candidates/predictions as GeoJSON")
    p_geo.add_argument("--data", required=True)
    p_geo.add_argument("--out", required=True)
    p_geo.add_argument("--locations", default=None)
    p_geo.set_defaults(func=_cmd_export_geojson)

    p_serve = sub.add_parser(
        "serve-bench",
        help="load-test the concurrent serving tier over a locations table",
    )
    p_serve.add_argument("--data", required=True)
    p_serve.add_argument("--locations", required=True,
                         help="address→location JSON (infer output or ground truth)")
    p_serve.add_argument("--workload", choices=("closed", "open"), default="closed")
    p_serve.add_argument("--backend", choices=("thread", "process"),
                         default="thread",
                         help="thread: in-process QueryServer pool; process: "
                              "worker processes over a mmap'd columnar snapshot")
    p_serve.add_argument("--snapshot-dir", default=None, metavar="DIR",
                         help="snapshot directory for --backend process "
                              "(default: a temporary directory)")
    p_serve.add_argument("--clients", type=int, default=4,
                         help="closed-loop concurrent clients")
    p_serve.add_argument("--rate", type=float, default=200.0,
                         help="open-loop Poisson arrival rate (req/s)")
    p_serve.add_argument("--duration", type=float, default=2.0,
                         help="load duration in seconds")
    p_serve.add_argument("--workers", type=int, default=4)
    p_serve.add_argument("--queue", type=int, default=64,
                         help="admission queue capacity (backpressure bound)")
    p_serve.add_argument("--timeout", type=float, default=1.0,
                         help="per-request deadline in seconds")
    p_serve.add_argument("--shards", type=int, default=4,
                         help="shard count: groups the columnar snapshot's "
                              "rows and routes ids to worker processes")
    p_serve.add_argument("--strategy", choices=("hash", "geohash"), default="hash",
                         help="shard key (address-id hash or geocode geohash) "
                              "for the snapshot's row grouping and the "
                              "process routing")
    p_serve.add_argument("--cache-size", type=int, default=2048,
                         help="result-cache capacity (0 disables)")
    p_serve.add_argument("--cache-ttl", type=float, default=30.0)
    p_serve.add_argument("--refresh-every", type=float, default=0.0,
                         help="re-apply the locations table every N seconds "
                              "mid-run (exercises the atomic snapshot swap)")
    p_serve.add_argument("--seed", type=int, default=0,
                         help="loadgen rng seed (schedules are deterministic)")
    p_serve.add_argument("--json", action="store_true",
                         help="emit the machine-readable report on stdout")
    p_serve.add_argument("--out", default=None, metavar="PATH",
                         help="also write the JSON report to PATH")
    p_serve.add_argument("--slo", default=None, metavar="PATH",
                         help="SLO spec to verdict the server's live "
                              "metrics against (nonzero exit on violation); "
                              "with --backend process the same objectives are "
                              "also evaluated against the merged fleet "
                              "metrics scraped from shared memory")
    p_serve.add_argument("--trace-merged", default=None, metavar="PATH",
                         help="with --backend process: merge router + "
                              "per-worker span files into one tail-sampled "
                              "trace at PATH")
    _add_obs_flags(p_serve)
    p_serve.set_defaults(func=_cmd_serve_bench)

    p_stream = sub.add_parser(
        "stream-bench",
        help="benchmark the streaming ingestion tier: online stay "
             "extraction, gate-checked promotion, freshness lag",
    )
    p_stream.add_argument("--preset", choices=("tiny", "downbj", "subbj"),
                          default="tiny")
    p_stream.add_argument("--scale", type=float, default=1.0,
                          help="preset scale factor (downbj/subbj)")
    p_stream.add_argument("--seed", type=int, default=0,
                          help="dataset + event-stream rng seed")
    p_stream.add_argument("--duration", type=float, default=4.0,
                          help="event-production duration in seconds")
    p_stream.add_argument("--event-rate", type=float, default=0.0,
                          help="offered events/s (0 = as fast as possible)")
    p_stream.add_argument("--serve-rate", type=float, default=100.0,
                          help="concurrent open-loop query load in req/s "
                               "(0 disables)")
    p_stream.add_argument("--backend", choices=("thread", "process"),
                          default="thread",
                          help="promotion target: in-process QueryServer or "
                               "worker processes over published snapshots")
    p_stream.add_argument("--snapshot-dir", default=None, metavar="DIR",
                          help="snapshot directory for --backend process "
                               "(default: a temporary directory)")
    p_stream.add_argument("--workers", type=int, default=2)
    p_stream.add_argument("--refresh-interval", type=float, default=0.5,
                          help="scheduler tick interval in seconds")
    p_stream.add_argument("--bus-capacity", type=int, default=8192)
    p_stream.add_argument("--overflow",
                          choices=("block", "shed_newest", "shed_oldest"),
                          default="block",
                          help="bus policy when full: backpressure or shed")
    p_stream.add_argument("--lateness", type=float, default=30.0,
                          help="watermark lateness bound in seconds")
    p_stream.add_argument("--disorder", type=float, default=20.0,
                          help="generator arrival-disorder bound in seconds")
    p_stream.add_argument("--p-duplicate", type=float, default=0.02,
                          help="per-fix duplicate re-emission probability")
    p_stream.add_argument("--warmup", type=int, default=2,
                          help="promotions before the drift gate arms")
    p_stream.add_argument("--psi-threshold", type=float, default=1.0,
                          help="drift-gate PSI threshold (replay compression "
                               "runs hotter than real time; see bench docs)")
    p_stream.add_argument("--no-poison", action="store_true",
                          help="skip the poisoned-batch rejection probe")
    p_stream.add_argument("--poison-sites", type=int, default=32)
    p_stream.add_argument("--no-parity", action="store_true",
                          help="skip the online-vs-batch parity replay")
    p_stream.add_argument("--json", action="store_true",
                          help="emit the machine-readable report on stdout")
    p_stream.add_argument("--out", default=None, metavar="PATH",
                          help="also write the JSON report to PATH "
                               "(BENCH_stream.json)")
    p_stream.add_argument("--slo", default=None, metavar="PATH",
                          help="SLO spec the promotion gate evaluates each "
                               "tick (ci/slo-stream.yaml)")
    p_stream.add_argument("--blackbox-dir", default=None, metavar="DIR",
                          help="arm the flight recorder: every gate refusal "
                               "or anomaly during the run dumps a black box "
                               "(blackbox-*.json) into DIR; render with "
                               "`repro blackbox`")
    _add_obs_flags(p_stream)
    p_stream.set_defaults(func=_cmd_stream_bench)

    p_obs = sub.add_parser(
        "obs-export",
        help="scrape shared-memory metrics planes into one merged export",
    )
    p_obs.add_argument("--obs-dir", required=True, metavar="DIR",
                       help="observability directory holding metrics-*.shm "
                            "planes (a snapshot dir's obs/ subdirectory)")
    p_obs.add_argument("--out", default=None, metavar="PATH",
                       help="write the merged registry to PATH (.json, or "
                            ".prom/.txt for Prometheus text format)")
    p_obs.add_argument("--trace-out", default=None, metavar="PATH",
                       help="also merge trace-worker-*.jsonl span files "
                            "into one tail-sampled trace at PATH")
    p_obs.add_argument("--slo", default=None, metavar="PATH",
                       help="evaluate an SLO spec against the merged "
                            "registry (nonzero exit on violation)")
    p_obs.add_argument("--exemplars", action="store_true",
                       help="attach OpenMetrics exemplars (trace id + "
                            "provenance key) to histogram bucket lines in "
                            ".prom/.txt output")
    p_obs.add_argument("--json", action="store_true",
                       help="emit the merged registry JSON on stdout")
    p_obs.set_defaults(func=_cmd_obs_export)

    p_explain = sub.add_parser(
        "explain",
        help="explain served answers for an address from provenance records",
    )
    p_explain.add_argument("address_id", help="address id to explain")
    p_explain.add_argument("--obs-dir", required=True, metavar="DIR",
                           help="observability directory holding "
                                "provenance-*.jsonl files (a snapshot "
                                "dir's obs/ subdirectory)")
    p_explain.add_argument("--limit", type=int, default=5,
                           help="show at most N records (newest first)")
    p_explain.add_argument("--json", action="store_true",
                           help="emit the matched records as JSON")
    p_explain.set_defaults(func=_cmd_explain)

    p_bb = sub.add_parser(
        "blackbox",
        help="render a flight-recorder black-box dump",
    )
    p_bb.add_argument("path", help="blackbox-*.json dump file")
    p_bb.add_argument("--json", action="store_true",
                      help="emit the raw dump JSON on stdout")
    p_bb.set_defaults(func=_cmd_blackbox)

    p_query = sub.add_parser("query", help="resolve one address via the store")
    p_query.add_argument("--data", required=True)
    p_query.add_argument("--locations", required=True)
    p_query.add_argument("--address-id", required=True)
    p_query.set_defaults(func=_cmd_query)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
