"""The request path: address id in, delivery location out.

``serve-thread`` drives the in-process :class:`~repro.serve.QueryServer`,
so the result cache, router and provenance layers do the per-request
work.  ``serve-process`` drives a :class:`~repro.serve.ProcessRouter`
with no result cache, so every id goes through the pipe to a worker and
is resolved against the memory-mapped columnar snapshot; its last phase
refreshes the snapshot durably beside a batched reader.

The address book is a fixed DowBJ-like city at scale 4 (3,310 ids).
Each id is asked for in proportion to its deliveries (waybills) in the
simulated corpus of that city: a courier looks an address up once per
parcel.  ``--seed`` draws the request stream from that demand: the
order ids are asked for and the arrival times.  Request *rates* have no
source (there is no production trace); they are load levels, stated
against the capacity measured at the commit that set them.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import shutil
import threading
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np

from harness import (
    GcMonitor,
    LoadResult,
    Outcome,
    Speedometer,
    Trace,
    at_reference_speed,
    cached_input,
    closed_loop,
    demand_indices,
    median_latency,
    open_loop,
    perf,
    pinned_and_awake,
    process_peak_kb,
    poisson_offsets,
    quantile,
    report_layers,
    timed_setup,
)
from repro.geo import Point
from repro.obs import ProvenanceRing, set_provenance_ring
from repro.serve import (
    GeohashShardStrategy,
    ProcessRouter,
    QueryRouter,
    QueryServer,
    ServerConfig,
    ServeStatus,
    ShardedLocationStore,
    SnapshotPublisher,
    TTLLRUCache,
    load_snapshot,
)
from repro.synth import downbj_config, generate_dataset
from repro.synth.io import load_addresses, load_ground_truth, save_addresses, save_ground_truth

BOOK_SCALE = 4.0
CORPUS_SEED = 0
MIN_ROUNDS = 3
# Every round sends a fixed number of requests, and a run has a fixed
# number of rounds: the servers keep a sample per request for their
# trailing 60 s health windows, so with rounds of fixed length, peak
# memory followed how many requests the host's speed let through
# (correlation 1.00 over ten runs, spread 6-8%).  The number of rounds is
# the run length over a round's typical length on the reference host; a
# slower host stretches the run instead.

# serve-thread: 2 closed-loop clients, then Poisson arrivals.  3,000 rps
# is a load level, about a fifth of the closed-loop capacity (15-17k/s
# on a 2-vCPU VM), so the open loop reads latency below saturation; at 6,000
# rps the 256-deep queue overflowed in traced runs.
THREAD_CONFIG = ServerConfig(queue_capacity=256)
THREAD_CLIENTS = 2
CLOSED_REQUESTS = 2400  # ~0.15 s at the reference speed
OPEN_RATE_RPS = 3000.0
ROUND_OPEN_S = 0.25
THREAD_ROUND_S = 0.55

# serve-process: batches of 512 ids, then per-request calls, then refresh.
PROCESS_CONFIG = ServerConfig(queue_capacity=256, cache_capacity=0,
                              default_timeout_s=10.0)
BATCH = 512
BATCHES = 8  # ~0.15 s at the reference speed
PROCESS_CLIENTS = 2
SINGLE_REQUESTS = 1100  # ~0.15 s at the reference speed
PROCESS_ROUND_S = 0.65
#: A pool takes ~0.2 s to start and stop, so it is set up every few rounds.
SETUP_EVERY = 4
N_REFRESHES = 30
CHURN_SHARE = 0.25
#: The reader beside the refreshes sends a batch every so often, so it
#: sends as many in every run (a batch takes ~20-35 ms).
CHURN_READ_EVERY_S = 0.05
#: Refresh ``k`` of the churn phase serves every id this far east of its
#: geocode, ``k`` times (~0.85 m per step in Beijing), and the last one
#: serves the geocodes again: each published version has its own table,
#: so an answer tells which version it came from.
SHIFT_DEG = 1e-5

THREAD_LAYERS = {
    "loadgen.lateness": "loadgen.lateness_pct",
    "cache": "cache.self_pct",
    "router": "router.self_pct",
    "shard.lookup": "shard.self_pct",
    "obs.mint": "obs.mint_self_pct",
}
PROCESS_LAYERS = {
    "mp.route": "mp.route_self_pct",
    "columnar.resolve": "columnar.self_pct",
    "mp.log": "mp.log_self_pct",
    "shard.update": "shard.update_self_pct",
    "columnar.publish": "columnar.publish_self_pct",
}


BOOK_FILES = ("addresses.json", "locations.json", "deliveries.json")


def _write_book(directory: pathlib.Path) -> None:
    """Write the book, its served locations (the geocodes) and the
    waybills per address over the city's simulated days."""
    ds = generate_dataset(downbj_config(scale=BOOK_SCALE, seed=CORPUS_SEED))
    save_addresses(ds.addresses, directory / "addresses.json")
    save_ground_truth({a: address.geocode for a, address in ds.addresses.items()},
                      directory / "locations.json")
    deliveries = Counter(w.address_id for trip in ds.trips for w in trip.waybills)
    (directory / "deliveries.json").write_text(json.dumps(deliveries))


def make_book(workdir: pathlib.Path) -> tuple[list[str], dict, np.ndarray]:
    """Sorted ids, their served locations, and each id's demand (deliveries).

    The simulation holds 1.6M fixes (~400 MB), so it runs in a child
    process and stays out of this process's peak resident set.  Its
    output does not depend on ``--seed``, so it is kept in the work cache
    and copied into ``workdir``, where the set-up reads it.
    """
    def build(directory: pathlib.Path) -> None:
        with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
            pool.submit(_write_book, directory).result()

    cache = cached_input(workdir, f"book-{BOOK_SCALE}-{CORPUS_SEED}", build)
    for name in BOOK_FILES:
        shutil.copyfile(cache / name, workdir / name)
    book, locations = load_book(workdir)
    deliveries = json.loads((workdir / "deliveries.json").read_text())
    ids = sorted(book)
    return ids, locations, np.array([deliveries.get(a, 0) for a in ids], dtype=float)


def load_book(workdir: pathlib.Path) -> tuple[dict, dict]:
    return (load_addresses(workdir / "addresses.json"),
            load_ground_truth(workdir / "locations.json"))


# ---------------------------------------------------------------------------
# Benchmark-side subclasses: each times calls into one layer
# ---------------------------------------------------------------------------
class TimedStore(ShardedLocationStore):
    def __init__(self, trace: Trace, *args, **kwargs) -> None:
        self.trace = trace
        super().__init__(*args, **kwargs)

    def query_id(self, address_id):
        with self.trace.span("shard.lookup"):
            return super().query_id(address_id)


class TimedCache(TTLLRUCache):
    def __init__(self, trace: Trace, *args, **kwargs) -> None:
        self.trace = trace
        super().__init__(*args, **kwargs)

    def get(self, key):
        with self.trace.span("cache"):
            return super().get(key)

    def put(self, key, value) -> None:
        with self.trace.span("cache"):
            super().put(key, value)


class TimedRouter(QueryRouter):
    def __init__(self, trace: Trace, *args, **kwargs) -> None:
        self.trace = trace
        super().__init__(*args, **kwargs)

    def resolve(self, address_id):
        with self.trace.span("router"):
            return super().resolve(address_id)


class TimedRing(ProvenanceRing):
    def __init__(self, trace: Trace, *args, **kwargs) -> None:
        self.trace = trace
        super().__init__(*args, **kwargs)

    def mint(self, address_id, status, **fields):
        with self.trace.span("obs.mint"):
            return super().mint(address_id, status, **fields)


def _answer_check(expected: dict):
    """``(ok, correct)`` of one ServeResponse against the served table.

    Booleans, so the closed loop can add them up as counts.
    """
    def check(address_id: str, response) -> tuple[bool, bool]:
        if response.status is not ServeStatus.OK:
            return False, False
        return True, response.result.location == expected[address_id]
    return check


def _tally(out: Outcome, loads: list[LoadResult]) -> None:
    """Count every id sent, and every one not answered OK and correctly."""
    for load in loads:
        sent, _ok, right = load.units
        out.attempted += sent
        out.failed += sent - right
        wrong = int(load.wrong.sum())
        out.check(wrong == 0, f"{wrong} calls got an answer that was not served")


def _latencies(loads: list[LoadResult]) -> np.ndarray:
    return np.concatenate([load.latencies_ok() for load in loads])


# ---------------------------------------------------------------------------
# serve-thread
# ---------------------------------------------------------------------------
def _thread_server(workdir: pathlib.Path, trace: Trace | None) -> QueryServer:
    book, locations = load_book(workdir)
    cfg = THREAD_CONFIG
    if trace is None:
        return QueryServer(ShardedLocationStore(locations, book), cfg).start()
    store = TimedStore(trace, locations, book)
    router = TimedRouter(trace, store, cache=TimedCache(trace, cfg.cache_capacity,
                                                        cfg.cache_ttl_s))
    return QueryServer(store, cfg, router=router).start()


def _thread_rounds(server: QueryServer, workdir: pathlib.Path, ids: list[str],
                   expected: dict, demand: np.ndarray, seed: int, budget_s: float,
                   trace: Trace | None, setup_times: list[float],
                   speed: Speedometer) -> dict:
    """Rounds of: a closed loop, an open loop, one more timed set-up."""
    check = _answer_check(expected)
    closed: list[LoadResult] = []
    opened: list[LoadResult] = []
    slowdowns: list[float] = []
    for k in range(max(MIN_ROUNDS, round(budget_s / THREAD_ROUND_S))):
        rng = np.random.default_rng([seed, k])
        sequences = [demand_indices(demand, CLOSED_REQUESTS // THREAD_CLIENTS, rng)
                     for _ in range(THREAD_CLIENTS)]
        offsets = poisson_offsets(OPEN_RATE_RPS, ROUND_OPEN_S, rng)
        draws = demand_indices(demand, len(offsets), rng)
        t0 = perf()
        closed.append(closed_loop(
            lambda i: server.query(ids[i]), sequences, math.inf,
            lambda i, r: check(ids[i], r), trace=trace, cap=CLOSED_REQUESTS))
        slowdowns.append(speed.slowdown(t0, perf()))
        opened.append(open_loop(server.submit, ids, draws, offsets,
                                lambda i, r: check(ids[draws[i]], r), trace=trace))
        timed_setup(lambda: _thread_server(workdir, None), setup_times, speed).stop()
    return {"closed": closed, "open": opened, "slowdowns": slowdowns,
            "qps": [c.n / c.wall_s for c in closed],
            "p50_s": [quantile(o.latencies_ok(), 0.5) for o in opened]}


def run_thread(seed: int, seconds: float, traced: bool, workdir: pathlib.Path,
               speed: Speedometer) -> Outcome:
    out = Outcome()
    ids, expected, demand = make_book(workdir)
    setup_times: list[float] = []
    server = timed_setup(lambda: _thread_server(workdir, None), setup_times, speed)
    gc_monitor = GcMonitor()
    halves = [(None, seconds / 2), (Trace(), seconds / 2)] if traced else [(None, seconds)]
    results = []
    for trace, budget in halves:
        previous = None
        if trace is not None:
            previous = set_provenance_ring(TimedRing(trace))
            server = _thread_server(workdir, trace)
        try:
            with gc_monitor.installed():
                results.append(_thread_rounds(server, workdir, ids, expected, demand, seed,
                                              budget, trace, setup_times, speed))
        finally:
            server.stop()
            if trace is not None:
                set_provenance_ring(previous)

    result = results[-1]
    out.rounds = {key: result[key] for key in ("qps", "slowdowns", "p50_s")}
    for r in results:
        _tally(out, r["closed"] + r["open"])

    def qps_of(r: dict) -> float:
        return at_reference_speed(r["qps"], r["slowdowns"], rate=True)

    qps = qps_of(result)
    # The gated latency is the closed loop's: an open-loop request wakes
    # three threads on an otherwise idle CPU, and that cost does not follow
    # the host's speed as interpreted code does (its latency grew as the
    # slowdown to the power 1.3-1.8, and differently from run to run), so
    # over ten runs even its normalized median spread by 12-17%.  The
    # open loop's numbers are recorded below, as measured.
    p50_s, n_closed = median_latency(result["closed"], speed)
    out.e2e["setup_s"] = (quantile(setup_times, 0.5), "s", len(setup_times))
    out.e2e["throughput_per_s"] = (qps, "1/s", len(result["qps"]))
    out.e2e["latency_ms"] = (p50_s * 1e3, "ms", n_closed)
    out.extra["host.slowdown"] = (quantile(result["slowdowns"], 0.5), "x",
                                  len(result["slowdowns"]))
    closed_lat, open_lat = _latencies(result["closed"]), _latencies(result["open"])
    out.extra["closed.p50_ms"] = (quantile(closed_lat, 0.5) * 1e3, "ms", len(closed_lat))
    out.extra["closed.p99_ms"] = (quantile(closed_lat, 0.99) * 1e3, "ms", len(closed_lat))
    out.extra["open.p50_ms"] = (quantile(open_lat, 0.5) * 1e3, "ms", len(open_lat))
    out.extra["open.p99_ms"] = (quantile(open_lat, 0.99) * 1e3, "ms", len(open_lat))
    out.extra["open.p999_ms"] = (quantile(open_lat, 0.999) * 1e3, "ms", len(open_lat))
    lateness = np.concatenate([o.lateness_s for o in result["open"]])
    out.extra["loadgen.lateness_p99_ms"] = (quantile(lateness, 0.99) * 1e3, "ms",
                                            len(lateness))
    stats = server.stats()
    cache = stats.get("cache", {})
    out.extra["cache.hit_pct"] = (100.0 * cache.get("hit_rate", 0.0), "%",
                                  cache.get("hits", 0) + cache.get("misses", 0))
    if traced:
        out.layers["trace.overhead_pct"] = (
            100.0 * (qps_of(results[0]) / qps - 1.0), "%", len(result["qps"]))
        report_layers(out, halves[1][0], THREAD_LAYERS)
        out.layers["cache.hit_pct"] = out.extra.pop("cache.hit_pct")
        out.layers["cache.evictions"] = (cache.get("evictions", 0), "count", 1)
        # report_layers puts each layer's span count in its share's n.
        out.layers["shard.calls"] = (out.layers["shard.self_pct"][2], "count", 1)
        out.layers["obs.calls"] = (out.layers["obs.mint_self_pct"][2], "count", 1)
        depths = server.health.queue_depth_series()
        out.layers["server.queue_depth_max"] = (max((d for _, d in depths), default=0),
                                                "count", len(depths))
        by_status = stats["requests_by_status"]
        out.layers["server.rejected"] = (by_status.get("rejected", 0), "count", 1)
        out.layers["server.timed_out"] = (by_status.get("timed_out", 0), "count", 1)
    gc_monitor.report(out)
    return out


# ---------------------------------------------------------------------------
# serve-process
# ---------------------------------------------------------------------------
def _n_workers() -> int:
    return max(1, (os.cpu_count() or 2) - 1)


def _process_pool(workdir: pathlib.Path, counter: list[int], worker_cpus: set[int]):
    """Load, publish a snapshot, start the pool, answer a first batch.

    The router keeps the benchmark's CPU and the workers get the others,
    so router threads and workers do not trade places between runs.
    """
    book, locations = load_book(workdir)
    store = ShardedLocationStore(locations, book,
                                 strategy=GeohashShardStrategy(8, precision=6))
    counter[0] += 1
    snapshot_dir = workdir / f"snapshots-{counter[0]}"
    publisher = SnapshotPublisher(str(snapshot_dir))
    publisher.publish(store)
    router = ProcessRouter(str(snapshot_dir), n_workers=_n_workers(),
                           config=PROCESS_CONFIG).start()
    for worker in router.worker_stats():
        os.sched_setaffinity(worker["pid"], worker_cpus)
    router.query_batch(sorted(locations)[:8])
    return router, publisher, store, locations


def _stop_pool(pool) -> None:
    router, publisher, _store, _locations = pool
    router.stop()
    publisher.close()


def _refresh(publisher: SnapshotPublisher, store: ShardedLocationStore,
             locations: dict, trace: Trace | None, key: int) -> None:
    if trace is None:
        publisher.refresh(store, locations)
        return
    # SnapshotPublisher.refresh, one call per layer: log, swap, publish.
    with trace.span("refresh", key=key, root=True):
        with trace.span("mp.log", key=key):
            publisher.log_update(locations, store.version + 1)
        with trace.span("shard.update", key=key):
            store.update(locations)
        with trace.span("columnar.publish", key=key):
            publisher.publish(store)


def _shifted(p: Point, k: int) -> Point:
    """Where churn table ``k`` serves an id whose geocode is ``p``."""
    return Point(p.lng + k * SHIFT_DEG, p.lat)


class ChurnCheck:
    """Batch answers read while the churn phase publishes version after version.

    An OK answer must come from one published table; the answers one
    worker gives for a batch must all come from the same table; and no
    worker may serve a table published before one it already served.
    Table 0 (the geocodes) is published first and again last.
    """

    def __init__(self, locations: dict, worker_of: dict[str, int]) -> None:
        self.locations = locations
        self.worker_of = worker_of
        #: Per worker, the publish position of the latest table it served.
        self.position: dict[int, int] = {}
        #: Publish positions of every table read, so the check is not vacuous.
        self.read: set[int] = set()
        self.faults: Counter = Counter()

    def _table(self, address_id: str, location: Point) -> int:
        """Which table ``location`` is from; -1 when none."""
        p = self.locations[address_id]
        k = round((location.lng - p.lng) / SHIFT_DEG)
        return k if 0 <= k < N_REFRESHES and location == _shifted(p, k) else -1

    def __call__(self, batch: list[str], responses) -> tuple[int, int]:
        tables: dict[int, list[int]] = {}
        for a, r in zip(batch, responses):
            if r.status is ServeStatus.OK:
                tables.setdefault(self.worker_of[a], []).append(
                    self._table(a, r.result.location))
        n_ok = sum(len(t) for t in tables.values())
        n_right = 0
        for worker, seen in tables.items():
            k = seen[0]
            last = self.position.get(worker, 0)
            position = N_REFRESHES if k == 0 and last > 0 else k
            if k < 0 or seen.count(k) != len(seen):
                self.faults["answers from no table, or from mixed tables"] += 1
            elif position < last:
                self.faults["a table older than one already served"] += 1
            else:
                self.position[worker] = position
                self.read.add(position)
                n_right += len(seen)
        return n_ok, n_right


def _process_rounds(pool, new_pool, ids: list[str], demand: np.ndarray, seed: int,
                    budget_s: float, trace: Trace | None,
                    setup_times: list[float], speed: Speedometer) -> dict:
    """Rounds of batched and per-request loops, then refreshes beside reads."""
    router, publisher, store, locations = pool
    check = _answer_check(locations)

    def check_batch(batch, responses) -> tuple[int, int]:
        verdicts = [check(a, r) for a, r in zip(batch, responses)]
        return sum(v[0] for v in verdicts), sum(v[1] for v in verdicts)

    def draw(rng: np.random.Generator, n: int) -> list[str]:
        return [ids[j] for j in demand_indices(demand, n, rng)]

    batched: list[LoadResult] = []
    single: list[LoadResult] = []
    slowdowns: list[float] = []
    n_rounds = round(budget_s * (1.0 - CHURN_SHARE) / PROCESS_ROUND_S)
    for k in range(max(MIN_ROUNDS, n_rounds)):
        rng = np.random.default_rng([seed, k])
        batches = [draw(rng, BATCH) for _ in range(BATCHES)]
        sequences = [draw(rng, SINGLE_REQUESTS // PROCESS_CLIENTS)
                     for _ in range(PROCESS_CLIENTS)]
        t0 = perf()
        batched.append(closed_loop(router.query_batch, [batches], math.inf,
                                   check_batch, size_of=len, trace=trace,
                                   root_name="batch", cap=BATCHES))
        slowdowns.append(speed.slowdown(t0, perf()))
        single.append(closed_loop(router.query, sequences, math.inf, check,
                                  trace=trace, cap=SINGLE_REQUESTS))
        if len(batched) % SETUP_EVERY == 0:
            _stop_pool(timed_setup(new_pool, setup_times, speed))

    # Durable refreshes of the whole table beside a batched reader.
    rng = np.random.default_rng([seed, 10**6])  # apart from the rounds' streams
    batches = [draw(rng, BATCH) for _ in range(200)]
    churn_check = ChurnCheck(locations, {
        a: router.worker_for_shard(router.shard_for(a)) for a in ids})
    churn_s = budget_s * CHURN_SHARE
    refresh_times: list[float] = []

    def churn() -> None:
        gap = churn_s / N_REFRESHES
        t_start = perf()
        for k in range(1, N_REFRESHES + 1):
            table = {a: _shifted(p, k % N_REFRESHES) for a, p in locations.items()}
            t0 = perf()
            _refresh(publisher, store, table, trace, k)
            refresh_times.append(perf() - t0)
            pause = t_start + k * gap - perf()
            if pause > 0:
                time.sleep(pause)

    writer = threading.Thread(target=churn, name="perf-refresh")
    writer.start()
    reader = closed_loop(router.query_batch, [batches], churn_s, churn_check,
                         size_of=len, trace=trace, root_name="batch",
                         every_s=CHURN_READ_EVERY_S)
    writer.join()
    return {"batched": batched, "single": single, "reader": reader,
            "churn_faults": churn_check.faults, "churn_tables": len(churn_check.read),
            "refresh_times": refresh_times, "slowdowns": slowdowns,
            "ids_per_s": [b.units[2] / b.wall_s for b in batched],
            "p50_s": [quantile(r.latencies_ok(), 0.5) for r in single]}


def _replay(trace: Trace, snapshot_path: str, result: dict, n_workers: int) -> None:
    """Time routing and columnar resolution of the same ids in-process.

    The router groups ids by snapshot shard and worker; each worker
    resolves its group against the columnar snapshot.  Replaying both on
    the same snapshot and the same batches attributes that share of the
    round trip; what remains of it is the pipe and the worker wake-up.
    """
    snap = load_snapshot(snapshot_path)
    sent = [b for load in result["batched"] + [result["reader"]] for b in load.items]
    sent += [[a] for load in result["single"] for a in load.items]
    for batch in sent:
        t0 = perf()
        groups: dict[int, list[str]] = {}
        for address_id, shard in zip(batch, snap.shards_for_ids(list(batch))):
            groups.setdefault(int(shard) % n_workers, []).append(address_id)
        t1 = perf()
        for group in groups.values():
            snap.resolve_batch(list(dict.fromkeys(group)))
        t2 = perf()
        trace.add("mp.route", t0, t1)
        trace.add("columnar.resolve", t1, t2)


def run_process(seed: int, seconds: float, traced: bool, workdir: pathlib.Path,
                worker_cpus: set[int], speed: Speedometer) -> Outcome:
    out = Outcome()
    ids, _expected, demand = make_book(workdir)
    counter = [0]

    def new_pool():
        return _process_pool(workdir, counter, worker_cpus)

    setup_times: list[float] = []
    pool = timed_setup(new_pool, setup_times, speed)
    gc_monitor = GcMonitor()
    trace = Trace() if traced else None
    halves = [(None, seconds / 2), (trace, seconds / 2)] if traced else [(None, seconds)]
    results = []
    try:
        with gc_monitor.installed():
            for half_trace, budget in halves:
                results.append(_process_rounds(pool, new_pool, ids, demand, seed, budget,
                                               half_trace, setup_times, speed))
        stats = pool[0].stats()
        current = pool[1].current_path()
        out.children_peak_kb = sum(process_peak_kb(w["pid"]) for w in stats["workers"])
    finally:
        _stop_pool(pool)

    result = results[-1]
    out.rounds = {key: result[key] for key in ("ids_per_s", "slowdowns", "p50_s")}
    for r in results:
        _tally(out, r["batched"] + r["single"] + [r["reader"]])
        for fault, n in r["churn_faults"].items():
            out.check(False, f"{n} worker shares of a batch during refresh churn: {fault}")
        out.check(r["churn_tables"] > 1,
                  f"the churn reader saw {r['churn_tables']} published table(s)")
        out.attempted += len(r["refresh_times"])
        out.check(len(r["refresh_times"]) == N_REFRESHES,
                  f"{len(r['refresh_times'])} of {N_REFRESHES} refreshes completed")
    out.check(stats["store_version"] > N_REFRESHES,
              f"published version {stats['store_version']} after {N_REFRESHES} refreshes")

    def ids_per_s_of(r: dict) -> float:
        return at_reference_speed(r["ids_per_s"], r["slowdowns"], rate=True)

    ids_per_s = ids_per_s_of(result)
    # A request's latency follows the speed of the router's CPU, where both
    # clients and the reply reader run: normalized by it, the latency spread
    # by 6% over 17 runs; by the mean over both CPUs, by 12%.
    (router_cpu,) = os.sched_getaffinity(0)
    p50_s, n_single = median_latency(result["single"], speed, cpu=router_cpu)
    out.e2e["setup_s"] = (quantile(setup_times, 0.5), "s", len(setup_times))
    out.e2e["throughput_per_s"] = (ids_per_s, "1/s", len(result["ids_per_s"]))
    out.e2e["latency_ms"] = (p50_s * 1e3, "ms", n_single)
    out.extra["host.slowdown"] = (quantile(result["slowdowns"], 0.5), "x",
                                  len(result["slowdowns"]))
    single_lat = _latencies(result["single"])
    n_single = sum(r.n for r in result["single"])
    out.extra["single.qps"] = (n_single / sum(r.wall_s for r in result["single"]), "1/s",
                               n_single)
    out.extra["single.p50_ms"] = (quantile(single_lat, 0.5) * 1e3, "ms", len(single_lat))
    out.extra["single.p99_ms"] = (quantile(single_lat, 0.99) * 1e3, "ms", len(single_lat))
    reader = result["reader"]
    out.extra["churn.reader_ids_per_s"] = (reader.units[2] / reader.wall_s, "1/s",
                                           reader.units[0])
    out.extra["churn.tables_read"] = (result["churn_tables"], "count", reader.n)
    refresh_ms = np.asarray(result["refresh_times"]) * 1e3
    out.extra["mp.refresh_ms_p50"] = (quantile(refresh_ms, 0.5), "ms", len(refresh_ms))
    out.extra["mp.refresh_ms_p90"] = (quantile(refresh_ms, 0.9), "ms", len(refresh_ms))
    out.extra["mp.workers"] = (_n_workers(), "count", 1)
    if traced:
        out.layers["trace.overhead_pct"] = (
            100.0 * (ids_per_s_of(results[0]) / ids_per_s - 1.0), "%",
            len(result["ids_per_s"]))
        _replay(trace, current, result, _n_workers())
        report_layers(out, trace, PROCESS_LAYERS)
        out.layers["columnar.loads"] = (stats["snapshot_load_ms"]["count"], "count", 1)
        out.layers["mp.refreshes"] = (len(result["refresh_times"]), "count", 1)
        out.layers["mp.worker_restarts"] = (stats["worker_restarts"], "count", 1)
    gc_monitor.report(out)
    return out


def run(name: str, seed: int, seconds: float, traced: bool,
        workdir: pathlib.Path) -> Outcome:
    with pinned_and_awake(workers=name == "serve-process") as (others, speed):
        if name == "serve-thread":
            return run_thread(seed, seconds, traced, workdir, speed)
        return run_process(seed, seconds, traced, workdir, others, speed)
