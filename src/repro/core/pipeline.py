"""The end-to-end DLInfMA pipeline (Figure 3).

The two components of the framework — location candidate generation
(stay-point extraction, candidate-pool construction, profile build,
candidate retrieval/feature extraction) and delivery location discovery
(selector training) — run as five stages, each inside
:meth:`~repro.core.run.RunContext.stage`, which records the Section V-F
per-stage wall-clock timings; the stages add their own item counters.

Besides the one-shot :meth:`DLInfMA.fit`, the pipeline has an incremental
path: the deployed system builds candidate pools "in a bi-weekly manner and
then merged with existing ones" and re-runs inference periodically as new
trips land (Sections III-B, VI-A).  :meth:`DLInfMA.update` extracts stay
points only for the new trips and merges them into the pool through a
:class:`~repro.core.candidates.CandidatePoolBuilder`; the profile and
feature stages then run over the union of trips exactly as in
:func:`build_artifacts`, and the selector is warm-started.  An update
costs new-trip extraction, one merge and a feature build over the union.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.candidates import (
    CandidatePool,
    CandidatePoolBuilder,
    build_candidate_pool,
    project_stays,
)
from repro.core.features import AddressExample, FeatureConfig, FeatureExtractor
from repro.core.locmatcher import LocMatcherConfig, LocMatcherSelector
from repro.core.run import RunContext
from repro.core.selectors import make_variant_selector
from repro.core.staypoints import ExtractionConfig, extract_trip_stay_points
from repro.geo import LocalProjection, Point
from repro.obs import event
from repro.obs import span as obs_span
from repro.trajectory import Address, DeliveryTrip


@dataclass(frozen=True)
class DLInfMAConfig:
    """Pipeline configuration; defaults follow the paper."""

    cluster_distance_m: float = 40.0
    pool_method: str = "hierarchical"  # or "grid" (DLInfMA-Grid)
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    selector: str = "locmatcher"  # or gbdt/rf/mlp/rkdt/rknet/mindist/maxtc/maxtc-ilc
    locmatcher: LocMatcherConfig = field(default_factory=LocMatcherConfig)
    seed: int = 0


@dataclass
class PipelineArtifacts:
    """Everything candidate generation produces, shareable across methods.

    Table II compares ~20 selectors over the *same* candidate pool; building
    artifacts once and passing them to each :class:`DLInfMA` avoids redoing
    stay-point extraction / clustering / feature extraction per method.
    ``context`` holds the generation stages' records and counters.
    """

    pool: CandidatePool
    extractor: FeatureExtractor
    examples: dict[str, AddressExample]
    stay_points_by_trip: dict[str, list]
    context: RunContext


# ----------------------------------------------------------------------
# Stages shared by fit and update
# ----------------------------------------------------------------------
def _flatten(stay_points_by_trip: dict[str, list]) -> list:
    return [sp for stays in stay_points_by_trip.values() for sp in stays]


def _extract_stays(
    ctx: RunContext, trips: list[DeliveryTrip], config: ExtractionConfig
) -> dict[str, list]:
    with ctx.stage("stay_point_extraction"):
        stays = extract_trip_stay_points(trips, config)
    ctx.count("stay_point_extraction", "trips", len(trips))
    ctx.count("stay_point_extraction", "stay_points", sum(len(v) for v in stays.values()))
    return stays


def _features(
    ctx: RunContext,
    trips: list[DeliveryTrip],
    stays: dict[str, list],
    pool: CandidatePool,
    addresses: dict[str, Address],
) -> tuple[FeatureExtractor, dict[str, AddressExample]]:
    """Profile and feature stages: one example per delivered address.

    The extractor assigns every stay to its nearest candidate (the one
    ``nearest_ids`` call of the run) and computes the profiles from it.
    """
    with ctx.stage("profile_build"):
        extractor = FeatureExtractor(trips, stays, pool, addresses)
    ctx.count("profile_build", "profiles", len(extractor.profiles))

    with ctx.stage("feature_extraction"):
        delivered = extractor.delivered
        examples = extractor.build_examples(delivered)
    ctx.count("feature_extraction", "addresses", len(delivered))
    ctx.count("feature_extraction", "examples_built", len(examples))
    return extractor, examples


def _labeled_examples(
    extractor: FeatureExtractor,
    examples: dict[str, AddressExample],
    address_ids: list[str],
    ground_truth: dict[str, Point],
) -> list[AddressExample]:
    out = []
    for address_id in address_ids:
        example = examples.get(address_id)
        truth = ground_truth.get(address_id)
        if example is None or truth is None:
            continue
        extractor.label_example(example, truth)
        out.append(example)
    return out


def _make_selector(config: DLInfMAConfig):
    if config.selector == "locmatcher":
        return LocMatcherSelector(config.features, config.locmatcher)
    return make_variant_selector(config.selector, config.features, seed=config.seed)


def _train(
    ctx: RunContext,
    config: DLInfMAConfig,
    extractor: FeatureExtractor,
    examples: dict[str, AddressExample],
    ground_truth: dict[str, Point],
    train_ids: list[str],
    val_ids: list[str] | None,
    selector=None,
):
    """Fit ``selector`` (a new one when None) on the labeled examples."""
    with ctx.stage("training"):
        train = _labeled_examples(extractor, examples, train_ids, ground_truth)
        val = _labeled_examples(extractor, examples, val_ids or [], ground_truth)
        ctx.count("training", "train_examples", len(train))
        ctx.count("training", "val_examples", len(val))
        if selector is None:
            selector = _make_selector(config)
            selector.fit(train, val or None)
        elif isinstance(selector, LocMatcherSelector):
            # LocMatcher continues from its current weights; every other
            # selector simply refits on the union of labels.
            selector.fit(train, val or None, warm_start=True)
        else:
            selector.fit(train, val or None)
    return selector


def build_artifacts(
    trips: list[DeliveryTrip],
    addresses: dict[str, Address],
    projection: LocalProjection,
    config: DLInfMAConfig | None = None,
    context: RunContext | None = None,
) -> PipelineArtifacts:
    """Run the location-candidate-generation component (Section III)."""
    cfg = config or DLInfMAConfig()
    ctx = context or RunContext("build_artifacts")
    trips = list(trips)
    with obs_span("dlinfma.build_artifacts", n_trips=len(trips), run=ctx.label):
        stays = _extract_stays(ctx, trips, cfg.extraction)

        with ctx.stage("pool_construction"):
            all_stays = _flatten(stays)
            pool = build_candidate_pool(
                all_stays,
                projection,
                distance_threshold_m=cfg.cluster_distance_m,
                method=cfg.pool_method,
            )
        ctx.count("pool_construction", "stay_points", len(all_stays))
        ctx.count("pool_construction", "candidates", len(pool))

        extractor, examples = _features(ctx, trips, stays, pool, addresses)
    return PipelineArtifacts(pool, extractor, examples, stays, ctx)


class DLInfMA:
    """Delivery Location Inference under Mis-Annotation."""

    def __init__(self, config: DLInfMAConfig | None = None) -> None:
        self.config = config or DLInfMAConfig()
        self.pool: CandidatePool | None = None
        self.extractor: FeatureExtractor | None = None
        self.selector = None
        self.examples: dict[str, AddressExample] = {}
        self.addresses: dict[str, Address] = {}
        self.context: RunContext | None = None
        self._stays_by_trip: dict[str, list] = {}

    @property
    def timings(self) -> dict[str, float]:
        """Per-stage wall-clock seconds of the latest run."""
        return self.context.timings if self.context is not None else {}

    @property
    def counters(self) -> dict[str, int]:
        """Per-stage item counters of the latest run."""
        return dict(self.context.counters) if self.context is not None else {}

    # ------------------------------------------------------------------
    def fit(
        self,
        trips: list[DeliveryTrip],
        addresses: dict[str, Address],
        ground_truth: dict[str, Point],
        train_ids: list[str],
        val_ids: list[str] | None = None,
        projection: LocalProjection | None = None,
        artifacts: PipelineArtifacts | None = None,
    ) -> "DLInfMA":
        """Run candidate generation (unless ``artifacts`` are supplied) and
        train the selector.

        ``ground_truth`` only needs to cover ``train_ids``/``val_ids`` —
        the labeled delivery locations couriers provided (Section V-A).
        """
        self.addresses = dict(addresses)
        if projection is None:
            first = next(iter(addresses.values()))
            projection = LocalProjection(first.geocode)
        ctx = RunContext("fit")
        with obs_span(
            "dlinfma.fit", selector=self.config.selector, n_trips=len(trips)
        ):
            if artifacts is None:
                artifacts = build_artifacts(
                    trips, addresses, projection, self.config, context=ctx
                )
            else:
                # Shared artifacts were built under another context; their
                # stage records go first so this run reports every stage.
                ctx.records = list(artifacts.context.records)
            self.context = ctx
            self.pool = artifacts.pool
            self.extractor = artifacts.extractor
            self.examples = artifacts.examples
            self._stays_by_trip = dict(artifacts.stay_points_by_trip)
            self.selector = _train(
                ctx, self.config, self.extractor, self.examples,
                ground_truth, train_ids, val_ids,
            )
        event(
            "dlinfma.fit.complete", component="pipeline",
            selector=self.config.selector, n_trips=len(trips),
            n_candidates=len(self.pool) if self.pool is not None else 0,
            n_examples=len(self.examples),
        )
        return self

    # ------------------------------------------------------------------
    def update(
        self,
        new_trips: list[DeliveryTrip],
        ground_truth: dict[str, Point] | None = None,
        train_ids: list[str] | None = None,
        val_ids: list[str] | None = None,
    ) -> "DLInfMA":
        """Absorb a batch of new trips (Section VI-A).

        Stay points are extracted *only* for the new trips.  A hierarchical
        pool is merged forward with one
        :class:`~repro.core.candidates.CandidatePoolBuilder` batch seeded
        from the current pool (so all centroids stay >= D apart); a grid
        pool has no incremental merge and is binned again from all stays.
        The profile and feature stages then run over the union of trips,
        as in :func:`build_artifacts`.  The selector is warm-started on the
        union of labels when ``ground_truth``/``train_ids`` are given;
        otherwise the current selector keeps serving.

        Trips whose ids are already known are ignored, so callers may pass
        overlapping batches.
        """
        if self.extractor is None or self.pool is None:
            raise RuntimeError("pipeline is not fitted; call fit() before update()")
        known = self.extractor.trips
        new_trips = [t for t in new_trips if t.trip_id not in known]
        all_trips = list(known.values()) + new_trips
        cfg = self.config
        ctx = RunContext("update")
        with obs_span("dlinfma.update", n_new_trips=len(new_trips)):
            new_stays = _extract_stays(ctx, new_trips, cfg.extraction)
            self._stays_by_trip.update(new_stays)

            with ctx.stage("pool_construction"):
                if cfg.pool_method == "grid":
                    clustered = _flatten(self._stays_by_trip)
                    pool = build_candidate_pool(
                        clustered, self.pool.projection,
                        distance_threshold_m=cfg.cluster_distance_m, method="grid",
                    )
                else:
                    clustered = _flatten(new_stays)
                    builder = CandidatePoolBuilder.from_pool(
                        self.pool, cfg.cluster_distance_m
                    )
                    builder.add_batch(project_stays(clustered, self.pool.projection))
                    pool = builder.build()
            ctx.count("pool_construction", "stay_points", len(clustered))
            ctx.count("pool_construction", "candidates", len(pool))

            extractor, examples = _features(
                ctx, all_trips, self._stays_by_trip, pool, self.addresses
            )
            self.context = ctx
            self.pool = pool
            self.extractor = extractor
            self.examples = examples

            if ground_truth is not None and train_ids:
                self.selector = _train(
                    ctx, cfg, extractor, examples,
                    ground_truth, train_ids, val_ids, self.selector,
                )
        event(
            "dlinfma.update.complete", component="pipeline",
            n_new_trips=len(new_trips), n_candidates=len(pool),
            n_examples=len(examples),
        )
        return self

    # ------------------------------------------------------------------
    def predict_one(self, address_id: str) -> Point | None:
        """Inferred delivery location for one address.

        Falls back to the geocode when the address has no candidates, and
        to ``None`` when it is entirely unknown.
        """
        example = self.examples.get(address_id)
        if example is not None:
            index = self.selector.predict_index(example)
            return self.extractor.candidate_point(example.candidate_ids[index])
        address = self.addresses.get(address_id)
        return address.geocode if address is not None else None

    def predict(self, address_ids: list[str]) -> dict[str, Point]:
        """Inferred delivery locations for many addresses.

        Uses the selector's batched scoring when available (LocMatcher),
        falling back to per-address prediction otherwise; the with/without-
        example split is computed once and both paths return identical
        predictions.
        """
        if self.selector is None:
            raise RuntimeError("pipeline is not fitted")
        out: dict[str, Point] = {}
        with_examples = [a for a in address_ids if a in self.examples]
        without = [a for a in address_ids if a not in self.examples]
        if with_examples and hasattr(self.selector, "predict_index_batch"):
            examples = [self.examples[a] for a in with_examples]
            indices = self.selector.predict_index_batch(examples)
            for address_id, example, index in zip(with_examples, examples, indices):
                out[address_id] = self.extractor.candidate_point(
                    example.candidate_ids[index]
                )
        else:
            for address_id in with_examples:
                example = self.examples[address_id]
                index = self.selector.predict_index(example)
                out[address_id] = self.extractor.candidate_point(
                    example.candidate_ids[index]
                )
        for address_id in without:
            point = self.predict_one(address_id)
            if point is not None:
                out[address_id] = point
        return out
