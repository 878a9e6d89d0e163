"""The offline path: ``DLInfMA.fit`` and ``predict`` on a DowBJ-like city.

Two workloads share this module.  ``fit-locmatcher`` trains the neural
selector, so ``core.locmatcher`` and ``nn`` do most of the work;
``fit-generate`` uses the ``maxtc-ilc`` heuristic, so training is almost
free and candidate generation (stay points, pool, profiles, features) is
nearly the whole fit.

The city is fixed (preset seed 0), so every run does the same amount of
work; ``--seed`` shuffles the order trips reach the pipeline and seeds the
selector.  Accuracy would swing by a third between cities of this size,
which is why the corpus does not move with the seed.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

import numpy as np

from harness import (
    ROOT,
    GcMonitor,
    Outcome,
    Speedometer,
    Trace,
    at_reference_speed,
    perf,
    pinned_and_awake,
    quantile,
    report_layers,
    timed_setup,
)
from repro.core import DLInfMA, DLInfMAConfig, LocMatcherConfig
from repro.eval import Workload
from repro.eval.metrics import evaluate
from repro.geo import LocalProjection, Point
from repro.synth import (
    AddressSplit,
    downbj_config,
    generate_dataset,
    split_addresses_by_region,
)
from repro.synth.io import (
    load_addresses,
    load_ground_truth,
    load_trips,
    save_addresses,
    save_ground_truth,
    save_trips,
)

CORPUS_SEED = 0
MIN_ROUNDS = 3
#: LocMatcher's scoring runs mostly inside numpy, which the host's slow
#: spells slow less than interpreted code: over 74 rounds of ten runs its
#: time grew as the host slowdown to the power 0.64 (a fit's, 0.93).
PREDICT_SENSITIVITY = 0.65

#: Span name -> per-layer metric (share of the traced fit + predict time).
#: The fit's spans are the engine's own stage records.
LAYERS = {
    "stay_point_extraction": "staypoints.self_pct",
    "pool_construction": "candidates.pool_self_pct",
    "profile_build": "candidates.profile_self_pct",
    "feature_extraction": "features.self_pct",
    "training": "train.self_pct",
    "locmatcher.predict": "locmatcher.predict_self_pct",
}


@dataclass(frozen=True)
class FitSpec:
    scale: float
    selector: str
    #: ``predict`` passes over every address after each fit.
    predict_passes: int
    #: LocMatcher epochs, fixed (no early stop) so every fit does equal work.
    epochs: int = 24


SPECS = {
    # 191 addresses, 88 trips, 16k fixes: training is over 80% of a ~1 s fit.
    "fit-locmatcher": FitSpec(scale=1.0, selector="locmatcher", predict_passes=15),
    # 452 addresses, 297 trips, 59k fixes: generation is ~99% of a ~0.8 s
    # fit, and profiles and features grow faster than linearly with scale.
    "fit-generate": FitSpec(scale=1.5, selector="maxtc-ilc", predict_passes=1),
}


def make_inputs(spec: FitSpec, seed: int, workdir: pathlib.Path) -> int:
    """Generate the corpus and write it where the set-up will read it."""
    ds = generate_dataset(downbj_config(scale=spec.scale, seed=CORPUS_SEED))
    split = split_addresses_by_region(ds)
    order = np.random.default_rng(seed).permutation(len(ds.trips))
    save_trips([ds.trips[i] for i in order], workdir / "trips.jsonl")
    save_addresses(ds.addresses, workdir / "addresses.json")
    save_ground_truth(ds.ground_truth, workdir / "truth.json")
    meta = {
        "origin": list(ds.city.config.origin.as_tuple()),
        "train": list(split.train),
        "val": list(split.val),
        "test": list(split.test),
    }
    (workdir / "meta.json").write_text(json.dumps(meta))
    return ds.stats()["gps_points"]


def load_inputs(workdir: pathlib.Path) -> Workload:
    """The timed set-up: read the corpus the way ``repro evaluate`` does."""
    meta = json.loads((workdir / "meta.json").read_text())
    return Workload(
        trips=load_trips(workdir / "trips.jsonl"),
        addresses=load_addresses(workdir / "addresses.json"),
        ground_truth=load_ground_truth(workdir / "truth.json"),
        split=AddressSplit(tuple(meta["train"]), tuple(meta["val"]), tuple(meta["test"])),
        projection=LocalProjection(Point(*meta["origin"])),
    )


def _config(spec: FitSpec, seed: int) -> DLInfMAConfig:
    if spec.selector == "locmatcher":
        return DLInfMAConfig(
            selector="locmatcher",
            locmatcher=LocMatcherConfig(
                max_epochs=spec.epochs, patience=spec.epochs, seed=seed
            ),
        )
    return DLInfMAConfig(selector=spec.selector, seed=seed)


def _fit(w: Workload, cfg: DLInfMAConfig) -> DLInfMA:
    return DLInfMA(cfg).fit(
        w.trips, w.addresses, w.ground_truth, w.train_ids, w.val_ids,
        projection=w.projection,
    )


def _trace_fit(trace: Trace, model: DLInfMA, t0: float, t1: float, key: int) -> None:
    """Lay a finished fit's stage records out as spans under one fit root.

    ``DLInfMA.fit`` times each stage itself (``model.context.records``, in
    execution order).  The stages run one after another, so each becomes
    a child span starting where the previous one ended; what the fit does
    between stages is the residual.
    """
    root = trace.add("fit", t0, t1, parent=ROOT, key=key)
    start = t0
    for record in model.context.records:
        trace.add(record.name, start, start + record.seconds, parent=root, key=key)
        start += record.seconds


def _wrap_scoring(model: DLInfMA, trace: Trace) -> None:
    """Time the selector's batched scoring inside ``predict``."""
    inner = getattr(model.selector, "predict_index_batch", None)
    if inner is None:
        return

    def timed(examples):
        with trace.span("locmatcher.predict"):
            return inner(examples)

    model.selector.predict_index_batch = timed


def _rounds(w: Workload, workdir: pathlib.Path, spec: FitSpec, seed: int,
            budget_s: float, trace: Trace | None, out: Outcome, reference: dict,
            setup_times: list[float], speed: Speedometer, gc_monitor: GcMonitor) -> dict:
    """Rounds of: one fit, predict passes, one more timed set-up.

    A round's predict time is the mean over its passes, timed together;
    the fit and the passes each start from a collected heap.
    """
    cfg = _config(spec, seed)
    ids = sorted({a for trip in w.trips for a in trip.address_ids})
    fit_times: list[float] = []
    predict_times: list[float] = []
    fit_slowdowns: list[float] = []
    predict_slowdowns: list[float] = []
    start = perf()
    while len(fit_times) < MIN_ROUNDS or perf() - start < budget_s:
        gc_monitor.collect()
        t0 = perf()
        model = _fit(w, cfg)
        t1 = perf()
        fit_times.append(t1 - t0)
        fit_slowdowns.append(speed.slowdown(t0, t1))
        if trace is not None:
            _trace_fit(trace, model, t0, t1, key=len(fit_times))
            _wrap_scoring(model, trace)
        out.attempted += 1
        gc_monitor.collect()
        t0 = perf()
        for k in range(spec.predict_passes):
            if trace is None:
                preds = model.predict(ids)
            else:
                with trace.span("predict", key=(len(fit_times), k), root=True):
                    preds = model.predict(ids)
            out.attempted += 1
            reference.setdefault("predictions", preds)
            out.check(len(preds) == len(ids),
                      f"{len(ids) - len(preds)} ids without a prediction")
            out.check(preds == reference["predictions"],
                      f"round {len(fit_times)}: predictions differ from the first fit's")
        t1 = perf()
        predict_times.append((t1 - t0) / spec.predict_passes)
        predict_slowdowns.append(speed.slowdown(t0, t1))
        timed_setup(lambda: load_inputs(workdir), setup_times, speed)
    return {"model": model, "fit_times": fit_times, "predict_times": predict_times,
            "fit_slowdowns": fit_slowdowns, "predict_slowdowns": predict_slowdowns,
            "n_ids": len(ids)}


def run(name: str, seed: int, seconds: float, traced: bool,
        workdir: pathlib.Path) -> Outcome:
    with pinned_and_awake() as (_, speed):
        return _run(SPECS[name], seed, seconds, traced, workdir, speed)


def _run(spec: FitSpec, seed: int, seconds: float, traced: bool,
         workdir: pathlib.Path, speed: Speedometer) -> Outcome:
    out = Outcome()
    n_fixes = make_inputs(spec, seed, workdir)
    setup_times: list[float] = []
    w = timed_setup(lambda: load_inputs(workdir), setup_times, speed)
    reference: dict = {}
    gc_monitor = GcMonitor()
    halves = [(None, seconds / 2), (Trace(), seconds / 2)] if traced else [(None, seconds)]
    with gc_monitor.installed():
        results = [_rounds(w, workdir, spec, seed, budget, trace, out, reference, setup_times,
                           speed, gc_monitor)
                   for trace, budget in halves]
    result, trace = results[-1], halves[-1][0]

    def fit_s(r: dict) -> float:
        return at_reference_speed(r["fit_times"], r["fit_slowdowns"])

    def rate(r: dict) -> float:
        if spec.selector == "locmatcher":
            return r["n_ids"] / at_reference_speed(
                r["predict_times"], r["predict_slowdowns"],
                sensitivity=PREDICT_SENSITIVITY)
        return n_fixes / fit_s(r)

    n_fits = len(result["fit_times"])
    out.rounds = {key: result[key] for key in
                  ("fit_times", "fit_slowdowns", "predict_times", "predict_slowdowns")}
    out.e2e["setup_s"] = (quantile(setup_times, 0.5), "s", len(setup_times))
    out.e2e["throughput_per_s"] = (rate(result), "1/s", n_fits)
    out.e2e["latency_ms"] = (fit_s(result) * 1e3, "ms", n_fits)
    out.extra["host.slowdown"] = (quantile(result["fit_slowdowns"], 0.5), "x", n_fits)
    out.extra["fit_p50_ms"] = (quantile(result["fit_times"], 0.5) * 1e3, "ms", n_fits)
    out.extra["fit_max_ms"] = (max(result["fit_times"]) * 1e3, "ms", n_fits)

    test = {a: reference["predictions"][a] for a in w.test_ids}
    acc = evaluate(test, w.ground_truth)
    geo = evaluate({a: w.addresses[a].geocode for a in w.test_ids}, w.ground_truth)
    out.extra["mae_m"] = (acc.mae, "m", acc.n)
    out.extra["beta50_pct"] = (acc.beta50, "%", acc.n)
    out.extra["geocode_mae_m"] = (geo.mae, "m", geo.n)
    if spec.selector == "locmatcher":
        # The paper's headline claim, with a wide margin at this size.
        out.check(acc.mae < geo.mae,
                  f"LocMatcher MAE {acc.mae:.1f} m is not below geocoding {geo.mae:.1f} m")

    if traced:
        out.layers["trace.overhead_pct"] = (100.0 * (rate(results[0]) / rate(result) - 1.0),
                                            "%", n_fits)
        report_layers(out, trace, LAYERS)
        model = result["model"]
        counters = model.counters
        out.layers["staypoints.stays"] = (
            counters["stay_point_extraction.stay_points"], "count", n_fits)
        out.layers["candidates.pool_size"] = (
            counters["pool_construction.candidates"], "count", n_fits)
        out.layers["features.examples"] = (
            counters["feature_extraction.examples_built"], "count", n_fits)
        epochs = len(getattr(model.selector, "history", []))
        out.layers["locmatcher.epochs"] = (epochs, "count", n_fits)
    gc_monitor.report(out)
    return out
