"""Experiment harness: run any method on a workload, collect metrics.

A :class:`Workload` bundles what every method consumes — trips, the address
book, ground truth and a spatially disjoint split.  ``run_methods`` shares
candidate-generation artifacts among the DLInfMA-family methods (the
candidate pool is identical across selectors, so computing it once is both
faster and exactly what the paper's variants comparison does).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.baselines import (
    AnnotationBaseline,
    GeoCloudBaseline,
    GeocodingBaseline,
    GeoRankBaseline,
    UNetBaseline,
)
from repro.core import (
    DLInfMA,
    DLInfMAConfig,
    FeatureConfig,
    LocMatcherConfig,
    PipelineArtifacts,
    build_artifacts,
)
from repro.geo import LocalProjection, Point
from repro.obs import event, get_registry
from repro.obs import span as obs_span
from repro.synth import AddressSplit, SynthDataset, split_addresses_by_region
from repro.trajectory import Address, DeliveryTrip


@dataclass
class Workload:
    """One evaluation setup: data + split."""

    trips: list[DeliveryTrip]
    addresses: dict[str, Address]
    ground_truth: dict[str, Point]
    split: AddressSplit
    projection: LocalProjection

    @classmethod
    def from_dataset(
        cls,
        dataset: SynthDataset,
        trips: list[DeliveryTrip] | None = None,
        split: AddressSplit | None = None,
    ) -> "Workload":
        """Build a workload from a synthetic dataset (optionally overriding
        the trips, e.g. with re-injected delays for Table III)."""
        return cls(
            trips=list(trips if trips is not None else dataset.trips),
            addresses=dict(dataset.addresses),
            ground_truth=dict(dataset.ground_truth),
            split=split or split_addresses_by_region(dataset),
            projection=dataset.city.projection,
        )

    @property
    def train_ids(self) -> list[str]:
        return list(self.split.train)

    @property
    def val_ids(self) -> list[str]:
        return list(self.split.val)

    @property
    def test_ids(self) -> list[str]:
        return list(self.split.test)


def _dlinfma(selector: str = "locmatcher", features: FeatureConfig | None = None,
             locmatcher: LocMatcherConfig | None = None, **kwargs) -> DLInfMA:
    config = DLInfMAConfig(
        selector=selector,
        features=features or FeatureConfig(),
        locmatcher=locmatcher or LocMatcherConfig(),
        **kwargs,
    )
    return DLInfMA(config)


def method_registry(seed: int = 0, fast: bool = False) -> dict[str, callable]:
    """Factories for every method of Table II, keyed by the paper's names.

    ``fast`` shrinks training schedules for unit tests.
    """
    lm = LocMatcherConfig(seed=seed)
    if fast:
        lm = replace(lm, max_epochs=60, patience=10, lr_step=15)
    unet_epochs = 8 if fast else 30

    def locmatcher_with(features: FeatureConfig) -> callable:
        return lambda: _dlinfma("locmatcher", features=features, locmatcher=lm)

    return {
        # Baselines.
        "Geocoding": GeocodingBaseline,
        "Annotation": AnnotationBaseline,
        "GeoCloud": GeoCloudBaseline,
        "GeoRank": lambda: GeoRankBaseline(seed=seed),
        "UNet-based": lambda: UNetBaseline(epochs=unet_epochs, seed=seed),
        "MinDist": lambda: _dlinfma("mindist"),
        "MaxTC": lambda: _dlinfma("maxtc"),
        "MaxTC-ILC": lambda: _dlinfma("maxtc-ilc"),
        # Ours.
        "DLInfMA": lambda: _dlinfma("locmatcher", locmatcher=lm),
        # Selector variants.
        "DLInfMA-GBDT": lambda: _dlinfma("gbdt", seed=seed),
        "DLInfMA-RF": lambda: _dlinfma("rf", seed=seed),
        "DLInfMA-MLP": lambda: _dlinfma("mlp", seed=seed),
        "DLInfMA-RkDT": lambda: _dlinfma("rkdt", seed=seed),
        "DLInfMA-RkNet": lambda: _dlinfma("rknet", seed=seed),
        "DLInfMA-PN": lambda: _dlinfma(
            "locmatcher", locmatcher=replace(lm, encoder="lstm")
        ),
        "DLInfMA-Grid": lambda: _dlinfma("locmatcher", locmatcher=lm, pool_method="grid"),
        # Feature ablations.
        "DLInfMA-nTC": locmatcher_with(FeatureConfig(use_tc=False)),
        "DLInfMA-nD": locmatcher_with(FeatureConfig(use_dist=False)),
        "DLInfMA-nP": locmatcher_with(FeatureConfig(use_profile=False)),
        "DLInfMA-nLC": locmatcher_with(FeatureConfig(use_lc=False)),
        "DLInfMA-nA": locmatcher_with(FeatureConfig(use_address=False)),
        "DLInfMA-LCaddr": locmatcher_with(FeatureConfig(lc_mode="address")),
    }


#: Method names whose pipelines share the default candidate pool.
SHARED_ARTIFACT_METHODS = frozenset(
    {
        "MinDist",
        "MaxTC",
        "MaxTC-ILC",
        "DLInfMA",
        "DLInfMA-GBDT",
        "DLInfMA-RF",
        "DLInfMA-MLP",
        "DLInfMA-RkDT",
        "DLInfMA-RkNet",
        "DLInfMA-PN",
        "DLInfMA-nTC",
        "DLInfMA-nD",
        "DLInfMA-nP",
        "DLInfMA-nLC",
        "DLInfMA-nA",
        "DLInfMA-LCaddr",
    }
)


@dataclass
class MethodRun:
    """Predictions and timing of one fitted method.

    ``stage_rows`` holds the DLInfMA stages as ``(stage, seconds)`` pairs in
    execution order (empty for other methods).
    """

    name: str
    predictions: dict[str, Point]
    fit_seconds: float
    predict_seconds: float
    method: object = field(repr=False, default=None)
    stage_rows: list[tuple[str, float]] = field(default_factory=list)


def run_method(
    name: str,
    factory: callable,
    workload: Workload,
    artifacts: PipelineArtifacts | None = None,
) -> MethodRun:
    """Fit on train+val, predict the test addresses."""
    method = factory() if callable(factory) else factory
    kwargs = {}
    if isinstance(method, DLInfMA) and artifacts is not None:
        kwargs["artifacts"] = artifacts
    with obs_span(
        "eval.run_method", method=name, shared_artifacts=artifacts is not None
    ):
        t0 = time.perf_counter()
        method.fit(
            workload.trips,
            workload.addresses,
            workload.ground_truth,
            workload.train_ids,
            workload.val_ids,
            projection=workload.projection,
            **kwargs,
        )
        t1 = time.perf_counter()
        predictions = method.predict(workload.test_ids)
        t2 = time.perf_counter()
    get_registry().histogram(
        "eval_fit_seconds", "Wall-clock fit time per harness method run"
    ).observe(t1 - t0, method=name)
    event(
        "eval.method.complete", level="debug", component="eval",
        method=name, fit_seconds=t1 - t0, predict_seconds=t2 - t1,
        n_predictions=len(predictions),
    )
    stage_rows = (
        [(r.name, r.seconds) for r in method.context.records]
        if isinstance(method, DLInfMA)
        else []
    )
    return MethodRun(
        name=name,
        predictions=predictions,
        fit_seconds=t1 - t0,
        predict_seconds=t2 - t1,
        method=method,
        stage_rows=stage_rows,
    )


def run_methods(
    workload: Workload,
    names: list[str] | None = None,
    seed: int = 0,
    fast: bool = False,
) -> dict[str, MethodRun]:
    """Run many methods, sharing candidate artifacts where possible."""
    registry = method_registry(seed=seed, fast=fast)
    names = names or list(registry)
    unknown = set(names) - set(registry)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")

    artifacts = None
    if any(n in SHARED_ARTIFACT_METHODS for n in names):
        artifacts = build_artifacts(
            workload.trips, workload.addresses, workload.projection, DLInfMAConfig()
        )
    runs: dict[str, MethodRun] = {}
    for name in names:
        shared = artifacts if name in SHARED_ARTIFACT_METHODS else None
        runs[name] = run_method(name, registry[name], workload, artifacts=shared)
    return runs
