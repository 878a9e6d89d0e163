"""The data path: a GPS fix in, visible in a served answer (freshness).

``stream-ingest`` wires the streaming tier from its public classes, as
``repro.stream.bench.run_stream_bench`` does: a seeded
:class:`~repro.synth.FixEventStream` feeds the bus, the
:class:`~repro.stream.extractor.OnlineStayExtractor` turns fixes into
stays, the :class:`~repro.stream.merge.ShardedPoolMerger` folds them into
the candidate pool and the :class:`~repro.stream.scheduler.RefreshScheduler`
promotes gate-checked locations into a live
:class:`~repro.serve.QueryServer` every 0.5 s, while 100 queries per
second read from it, each id asked for in proportion to its deliveries
in the corpus.

Fixes arrive open loop at a fixed 7,500 per second with ``SHED_NEWEST``,
so the generator never blocks and every run offers the scheduler the same
work per tick.  Both rates are load levels, not measured traffic: the
fix rate is about a tenth of what the ingest thread sustains (about
69k fixes per CPU-second on a 2-vCPU VM), a replay of event time far faster than
real time (the paper's 66.1 M fixes over 20 months average ~1.3 per
second); the reads only need to be frequent enough to catch answers
while promotions land.  At 15,000 fixes per second the pipeline's
threads kept its CPU 60% busy, and while the host ran at half speed a
backlog built up and freshness grew through the run (0.35 s to 2.5 s).
The corpus (a DowBJ-like city at scale 1) is fixed; ``--seed`` drives the
arrival disorder and duplicates of the event stream and the query ids.
"""

from __future__ import annotations

import gc
import pathlib
import threading
import time
from collections import Counter, defaultdict

import numpy as np

from harness import (
    ROOT,
    GcMonitor,
    Outcome,
    Speedometer,
    Trace,
    at_reference_speed,
    demand_indices,
    open_loop,
    perf,
    pinned_and_awake,
    poisson_offsets,
    quantile,
    report_layers,
    timed_setup,
)
from repro.obs import MetricsRegistry
from repro.serve import QueryServer, ServerConfig, ServeStatus, ShardedLocationStore
from repro.stream import (
    OnlineExtractorConfig,
    OnlineStayExtractor,
    OverflowPolicy,
    RefreshScheduler,
    ShardedPoolMerger,
    StreamBus,
    StreamIngestor,
    StreamMetrics,
)
from repro.stream.scheduler import GateConfig
from repro.synth import (
    EventStreamConfig,
    FixEventStream,
    build_day_streams,
    downbj_config,
    generate_dataset,
)
from repro.synth.io import load_addresses, save_addresses
from repro.trajectory import TrajPoint, Trajectory, detect_stay_points

CORPUS_SEED = 0
EVENT_RATE = 7_500.0
QUERY_RATE = 100.0
BUS_CAPACITY = 32_768
REFRESH_S = 0.5
WINDOW_S = 0.5
# As in run_stream_bench: replay squeezes days of event time into
# seconds, so legitimate batches score PSI ~0.5 and the default 0.25
# gate would reject them.
GATE = GateConfig(psi_threshold=1.0, warmup_promotions=2)
# The 30 s lateness budget covers the stream's 20 s disorder: no fix is late.
EXTRACTOR = OnlineExtractorConfig(lateness_s=30.0, idle_timeout_s=30 * 86_400.0)
EVENTS = EventStreamConfig(disorder_s=20.0, p_duplicate=0.02)

LAYERS = {
    "extractor.window": "extractor.window_pct",
    "scheduler.wait": "scheduler.wait_pct",
    "tick": "scheduler.gate_pct",
    "merge.stage": "merge.stage_pct",
    "merge.commit": "merge.commit_pct",
    "merge.snap": "merge.snap_pct",
    "promote": "promote.self_pct",
}


def make_inputs(seed: int, n_events: int, workdir: pathlib.Path) -> dict:
    ds = generate_dataset(downbj_config(scale=1.0, seed=CORPUS_SEED))
    streams = build_day_streams(ds.sim_trips, ds.city,
                                rng=np.random.default_rng(CORPUS_SEED))
    events = FixEventStream(streams, seed=seed, config=EVENTS).take(n_events)
    save_addresses(ds.addresses, workdir / "addresses.json")
    deliveries = Counter(w.address_id for trip in ds.trips for w in trip.waybills)
    demand = np.array([deliveries[a] for a in sorted(ds.addresses)], dtype=float)
    return {"events": events, "projection": ds.city.projection, "demand": demand}


# ---------------------------------------------------------------------------
# Benchmark-side subclasses: stamps for the freshness breakdown
# ---------------------------------------------------------------------------
class RecordingMetrics(StreamMetrics):
    """Keeps every freshness sample, in order, and where each tick ended."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.freshness_samples: list[float] = []
        self.tick_ends: list[int] = []

    def observe_freshness(self, seconds: float) -> None:
        self.freshness_samples.append(seconds)
        super().observe_freshness(seconds)

    def count_promotion(self, outcome: str) -> None:
        # Called once per tick, after the tick's freshness samples.
        self.tick_ends.append(len(self.freshness_samples))
        super().count_promotion(outcome)

    def per_tick(self, n_samples: int) -> list[list[float]]:
        """The samples of each tick that promoted within the first ``n_samples``."""
        out, begin = [], 0
        for end in self.tick_ends:
            if end > n_samples:
                break
            if end > begin:
                out.append(self.freshness_samples[begin:end])
            begin = end
        return out


class TimedMerger(ShardedPoolMerger):
    """Stamps each merge phase into the current tick's record."""

    def __init__(self, ticks: dict, *args, **kwargs) -> None:
        self.ticks = ticks
        super().__init__(*args, **kwargs)

    def _stamp(self, phase: str, fn, *args, **kwargs):
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            record = self.ticks.get("current")
            if record is not None:
                record[phase] = (t0, perf())

    def stage(self, stays):
        return self._stamp("merge.stage", super().stage, stays)

    def commit(self) -> None:
        self._stamp("merge.commit", super().commit)

    def snap_locations(self, addresses, snap_radius_m=100.0, min_weight=2.0):
        return self._stamp("merge.snap", super().snap_locations, addresses,
                           snap_radius_m=snap_radius_m, min_weight=min_weight)


class TimedIngestor(StreamIngestor):
    """Records which stays each tick drained."""

    def __init__(self, ticks: dict, *args, **kwargs) -> None:
        self.ticks = ticks
        super().__init__(*args, **kwargs)

    def drain_stays(self):
        stays = super().drain_stays()
        record = self.ticks.get("current")
        if record is not None:
            record["stays"] = stays
        return stays


class TimedScheduler(RefreshScheduler):
    """Opens a record per tick: start, outcome, phase stamps."""

    def __init__(self, ticks: dict, *args, **kwargs) -> None:
        self.ticks = ticks
        super().__init__(*args, **kwargs)

    def tick(self):
        record = {"start": perf()}
        self.ticks["current"] = record
        result = super().tick()
        record["outcome"] = result.outcome
        self.ticks.setdefault("done", []).append(record)
        self.ticks["current"] = None
        return result


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------
class Pipeline:
    """One wired, running streaming tier plus the server it promotes into."""

    def __init__(self, workdir: pathlib.Path, projection, traced: bool) -> None:
        book = load_addresses(workdir / "addresses.json")
        self.geocodes = {a: address.geocode for a, address in book.items()}
        store = ShardedLocationStore(self.geocodes, book)
        self.server = QueryServer(store, ServerConfig(n_workers=2)).start()
        #: Every location an id was ever served at: the initial geocode
        #: plus each promoted value.  A correct answer is one of these.
        self.allowed = {a: {(p.lng, p.lat)} for a, p in self.geocodes.items()}
        self.ticks: dict = {}
        self.emitted: list = []
        self.emit_t: dict[int, float] = {}
        self.metrics = RecordingMetrics(registry=MetricsRegistry())
        self.bus = StreamBus(capacity=BUS_CAPACITY, policy=OverflowPolicy.SHED_NEWEST)
        self.extractor = OnlineStayExtractor(EXTRACTOR, on_stay=self._on_stay)
        ingestor_cls = TimedIngestor if traced else StreamIngestor
        merger_cls = TimedMerger if traced else ShardedPoolMerger
        scheduler_cls = TimedScheduler if traced else RefreshScheduler
        extra = (self.ticks,) if traced else ()
        self.ingestor = ingestor_cls(*extra, self.bus, self.extractor, self.metrics)
        self.scheduler = scheduler_cls(
            *extra, self.ingestor, merger_cls(*extra, projection), self.metrics,
            addresses=self.geocodes, promote=self._promote, gate=GATE,
            interval_s=REFRESH_S,
        )
        self.ingestor.start()
        self.scheduler.start()

    def _on_stay(self, emitted) -> None:
        self.emitted.append(emitted)
        self.emit_t[id(emitted)] = perf()

    def _promote(self, locations) -> int:
        for a, p in locations.items():
            self.allowed[a].add((p.lng, p.lat))
        record = self.ticks.get("current")
        t0 = perf()
        version = self.server.apply_refresh(locations)
        if record is not None:
            record["promote"] = (t0, perf())
        return version

    def consumer_clock(self) -> int:
        """CPU clock of the ingest thread (the only consumer of the bus).

        Ingest capacity is fixes per CPU second of this thread: time it
        spends waiting for the interpreter lock or for fixes is not CPU
        time, so the rate is what one core sustains, not the offered rate.
        """
        ingest = [t for t in threading.enumerate() if t.name == "stream-ingest"]
        if len(ingest) != 1:
            raise RuntimeError(f"expected one ingest thread, found {len(ingest)}")
        return time.pthread_getcpuclockid(ingest[0].ident)

    def close(self) -> None:
        self.scheduler.stop(final_tick=False)
        self.ingestor.close(flush=False)
        self.server.stop()
        self.metrics.close()


def _batch_reference(offered, stay_config) -> list[tuple]:
    """The batch stay detector over the fixes offered, duplicates dropped.

    With no fix shed or late, these are exactly the fixes the extractor
    accepted, so the reference needs no recording inside the pipeline
    (which would grow the heap every collection has to walk).
    """
    by_courier = defaultdict(dict)
    for fix in offered:
        by_courier[fix.courier_id].setdefault(fix.t, fix)
    out = []
    for courier_id in sorted(by_courier):
        points = sorted(by_courier[courier_id].values(), key=lambda f: f.t)
        trajectory = Trajectory(courier_id, [TrajPoint(f.lng, f.lat, f.t) for f in points])
        out.extend((s.courier_id, s.lng, s.lat, s.t_arrive, s.t_leave, s.n_points)
                   for s in detect_stay_points(trajectory, stay_config))
    return sorted(out)


def _measure(p: Pipeline, events: list, demand: np.ndarray, seed: int, new_pipeline,
             setup_times: list[float], speed: Speedometer) -> dict:
    """Offer fixes at the fixed rate while the query load runs beside.

    Every window the ingest thread's CPU time is sampled and
    the program is set up once more, timed and torn down, so set-up
    samples are spread over the run like every other measurement.
    """
    duration_s = len(events) / EVENT_RATE
    rng = np.random.default_rng([seed, 1])
    ids = sorted(p.geocodes)
    offsets = poisson_offsets(QUERY_RATE, duration_s, rng)
    draws = demand_indices(demand, len(offsets), rng)

    def check(i, response) -> tuple[bool, bool]:
        if response.status is not ServeStatus.OK:
            return False, False
        loc = response.result.location
        return True, (loc.lng, loc.lat) in p.allowed[ids[draws[i]]]

    def processed() -> float:
        counts = p.metrics.event_counts()
        return counts["accepted"] + counts["duplicate"] + counts["late"]

    queries: dict = {}
    reader = threading.Thread(
        target=lambda: queries.setdefault(
            "load", open_loop(p.server.submit, ids, draws, offsets, check)),
        name="perf-queries")
    clock = p.consumer_clock()
    capacities: list[float] = []
    slowdowns: list[float] = []
    window = (time.clock_gettime(clock), processed(), perf())
    depth_max = 0
    reader.start()
    t0 = perf()
    next_window = t0 + WINDOW_S
    sent = 0
    n = len(events)
    offer = p.ingestor.offer
    while sent < n:
        due = min(n, int((perf() - t0) * EVENT_RATE) + 1)
        while sent < due:
            offer(events[sent])
            sent += 1
        depth_max = max(depth_max, len(p.bus))
        if perf() >= next_window:
            now = (time.clock_gettime(clock), processed(), perf())
            if now[0] > window[0]:
                capacities.append((now[1] - window[1]) / (now[0] - window[0]))
                slowdowns.append(speed.slowdown(window[2], now[2]))
            window = now
            timed_setup(new_pipeline, setup_times, speed).close()
            next_window += WINDOW_S
        time.sleep(0.001)
    produce_s = perf() - t0
    deadline = perf() + 30.0
    while len(p.bus) and perf() < deadline:
        time.sleep(0.005)
    n_fresh = len(p.metrics.freshness_samples)
    reader.join()
    return {"offered": n, "produce_s": produce_s, "capacities": capacities,
            "slowdowns": slowdowns, "n_fresh": n_fresh, "depth_max": depth_max,
            "queries": queries["load"]}


def _finish(p: Pipeline) -> None:
    """Promote the in-order tail, then flush open windows and promote them."""
    p.scheduler.stop(final_tick=True)
    p.ingestor.close(flush=True)
    p.scheduler.tick()


def _freshness_trace(p: Pipeline, n_fresh: int) -> Trace:
    """Each promoted stay is a root from its last fix's arrival to served.

    Children: waiting in the extractor for its window to close (bus wait
    and watermark included), waiting for the next scheduler tick, and the
    tick itself (drain and drift gate as the tick's own time, then the
    merge phases and the promotion into the server).
    """
    trace = Trace()
    offset = time.time() - perf()
    samples = iter(p.metrics.freshness_samples[:n_fresh])
    for record in p.ticks.get("done", []):
        if record["outcome"] not in ("warmup", "promoted"):
            continue
        for emitted in record.get("stays", []):
            try:
                fresh = next(samples)
            except StopIteration:
                return trace
            arrive = emitted.wall_t - offset
            end = max(arrive + fresh, record["promote"][1])
            root = trace.add("stay", arrive, end, parent=ROOT, key=record["start"])
            emit = min(max(p.emit_t[id(emitted)], arrive), record["start"])
            trace.add("extractor.window", arrive, emit, parent=root)
            trace.add("scheduler.wait", emit, record["start"], parent=root)
            tick = trace.add("tick", record["start"], record["promote"][1], parent=root)
            for phase in ("merge.stage", "merge.commit", "merge.snap", "promote"):
                a, b = record[phase]
                trace.add(phase, a, b, parent=tick)
    return trace


def run(name: str, seed: int, seconds: float, traced: bool,
        workdir: pathlib.Path) -> Outcome:
    with pinned_and_awake() as (_, speed):
        return _run(seed, seconds, traced, workdir, speed)


def _run(seed: int, seconds: float, traced: bool, workdir: pathlib.Path,
         speed: Speedometer) -> Outcome:
    out = Outcome()
    half = seconds / 2 if traced else seconds
    inputs = make_inputs(seed, int(EVENT_RATE * half), workdir)
    projection, events = inputs["projection"], inputs["events"]
    # The pregenerated fixes stand in for a source outside the process;
    # frozen, they add nothing to the collector's full passes.
    gc.collect()
    gc.freeze()

    def new_pipeline(timed: bool = False) -> Pipeline:
        return Pipeline(workdir, projection, timed)

    setup_times: list[float] = []
    gc_monitor = GcMonitor()
    runs = []
    for tracing in ((False, True) if traced else (False,)):
        pipeline = timed_setup(lambda: new_pipeline(tracing), setup_times, speed)
        with gc_monitor.installed():
            result = _measure(pipeline, events, inputs["demand"], seed, new_pipeline,
                              setup_times, speed)
        _finish(pipeline)
        runs.append((pipeline, result))
        pipeline.close()

    for p, result in runs:
        counts = p.metrics.event_counts()
        queries = result["queries"]
        out.attempted += result["offered"] + queries.n
        out.failed += int(counts["shed"]) + queries.n_failed
        out.check(p.ingestor.n_offered == sum(counts.values()),
                  f"offered {p.ingestor.n_offered} != accepted+duplicate+late+shed "
                  f"{sum(counts.values())}")
        out.check(counts["late"] == 0, f"{counts['late']:.0f} fixes arrived late")
        out.check(int(queries.wrong.sum()) == 0,
                  f"{int(queries.wrong.sum())} answers were never a served location")
        if counts["shed"] == 0:
            online = sorted((e.stay.courier_id, e.stay.lng, e.stay.lat, e.stay.t_arrive,
                             e.stay.t_leave, e.stay.n_points) for e in p.emitted)
            reference = _batch_reference(events[: result["offered"]], EXTRACTOR.stay)
            out.check(online == reference,
                      f"online stays ({len(online)}) differ from the batch detector's "
                      f"({len(reference)})")

    p, result = runs[-1]
    ticks = p.metrics.per_tick(result["n_fresh"])
    out.check(len(ticks) > 0, "no stay was promoted while fixes were arriving")
    tick_p50 = [quantile(t, 0.5) for t in ticks]
    out.rounds = {"capacity": result["capacities"], "slowdowns": result["slowdowns"],
                  "tick_p50_s": tick_p50}
    fresh = p.metrics.freshness_samples[: result["n_fresh"]]

    def capacity_of(r: dict) -> float:
        return at_reference_speed(r["capacities"], r["slowdowns"], rate=True)

    capacity = capacity_of(result)
    out.e2e["setup_s"] = (quantile(setup_times, 0.5), "s", len(setup_times))
    out.e2e["throughput_per_s"] = (capacity, "1/s", len(result["capacities"]))
    # Freshness is mostly waiting (for a stay's window to close at the
    # replay's pace, then for the next tick), so it is reported as
    # measured: across ten runs it moved with the host's speed to the
    # power 0.18, and dividing it by the slowdown would add noise.
    out.e2e["latency_ms"] = (quantile(tick_p50, 0.5) * 1e3, "ms", len(tick_p50))
    out.extra["host.slowdown"] = (quantile(result["slowdowns"], 0.5), "x",
                                  len(result["slowdowns"]))
    out.extra["freshness_p50_ms"] = (quantile(fresh, 0.5) * 1e3, "ms", len(fresh))
    out.extra["freshness_p95_ms"] = (quantile(fresh, 0.95) * 1e3, "ms", len(fresh))
    out.extra["offered_per_s"] = (result["offered"] / result["produce_s"], "1/s",
                                  result["offered"])
    served = result["queries"].latencies_ok()
    out.extra["query.p50_ms"] = (quantile(served, 0.5) * 1e3, "ms", len(served))
    if traced:
        plain = runs[0][1]
        out.layers["trace.overhead_pct"] = (
            100.0 * (capacity_of(plain) / capacity - 1.0), "%",
            len(result["capacities"]))
        report_layers(out, _freshness_trace(p, result["n_fresh"]), LAYERS)
        counts = p.metrics.event_counts()
        records = p.scheduler.records
        out.layers["bus.depth_max"] = (result["depth_max"], "count", result["offered"])
        out.layers["bus.shed"] = (int(counts["shed"]), "count", result["offered"])
        out.layers["extractor.duplicates"] = (int(counts["duplicate"]), "count",
                                              result["offered"])
        out.layers["extractor.late"] = (int(counts["late"]), "count", result["offered"])
        out.layers["extractor.stays"] = (len(p.emitted), "count", result["offered"])
        out.layers["scheduler.ticks"] = (len(records), "count", len(records))
        out.layers["scheduler.promoted"] = (p.scheduler.n_promoted, "count", len(records))
        out.layers["scheduler.rejected_drift"] = (
            sum(1 for r in records if r.outcome == "rejected_drift"), "count", len(records))
    gc_monitor.report(out)
    return out
