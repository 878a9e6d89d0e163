"""The deployed delivery-location service (Figure 14).

Wires the offline DLInfMA inference to the online query store.  The first
batch of trips fits the pipeline from scratch; every later batch goes
through the incremental :meth:`~repro.core.DLInfMA.update` path — stay
points are extracted only for the new trips and the candidate pool is
merged forward, exactly how the deployed system absorbs data "in a
bi-weekly manner" (Section VI-A) — so refresh cost is O(new data), not
O(all data).  Online lookups go through the address -> building -> geocode
fallback chain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.apps.store import QueryResult
from repro.core import DLInfMA, DLInfMAConfig
from repro.geo import LocalProjection, Point
from repro.obs import event, get_registry
from repro.obs import span as obs_span
from repro.obs.drift import DriftMonitor, matcher_fingerprint, pool_fingerprint
from repro.serve.shard import ShardedLocationStore
from repro.trajectory import Address, DeliveryTrip


@dataclass
class ServiceStats:
    """Bookkeeping about the last inference refresh."""

    n_trips: int
    n_addresses_inferred: int
    timings: dict[str, float]
    n_new_trips: int = 0
    incremental: bool = False
    counters: dict[str, int] = field(default_factory=dict)
    #: Drift reports keyed by fingerprint kind ("pool" / "matcher");
    #: empty on the first refresh (no baseline to compare against yet).
    drift: dict[str, dict] = field(default_factory=dict)

    @property
    def drifted(self) -> bool:
        return any(report.get("drifted") for report in self.drift.values())


class DeliveryLocationService:
    """Offline-inference + online-query facade."""

    def __init__(
        self,
        addresses: dict[str, Address],
        projection: LocalProjection,
        config: DLInfMAConfig | None = None,
    ) -> None:
        self.addresses = dict(addresses)
        self.projection = projection
        self.config = config or DLInfMAConfig()
        self.store = ShardedLocationStore({}, self.addresses)
        self.pipeline: DLInfMA | None = None
        self.last_refresh: ServiceStats | None = None
        #: Fingerprints every refresh; compares each against the previous
        #: one (PSI + scalar ratios) and flags silent model/pool drift.
        self.drift = DriftMonitor()

    def refresh(
        self,
        trips: list[DeliveryTrip],
        ground_truth: dict[str, Point],
        train_ids: list[str],
        val_ids: list[str] | None = None,
    ) -> ServiceStats:
        """Absorb a batch of trips and update the store.

        The first call fits the pipeline from scratch; later calls treat
        ``trips`` as the batch that landed since the previous refresh and
        run the incremental update (already-known trip ids are skipped, so
        overlapping batches are safe).
        """
        with obs_span("service.refresh", n_trips=len(trips)) as sp:
            if self.pipeline is None:
                pipeline = DLInfMA(self.config)
                pipeline.fit(
                    trips,
                    self.addresses,
                    ground_truth,
                    train_ids,
                    val_ids,
                    projection=self.projection,
                )
                self.pipeline = pipeline
                incremental = False
                n_new = len(trips)
            else:
                pipeline = self.pipeline
                known = pipeline.extractor.trips
                n_new = sum(1 for t in trips if t.trip_id not in known)
                pipeline.update(trips, ground_truth, train_ids, val_ids)
                incremental = True

            delivered = sorted(pipeline.extractor.trips_by_address)
            inferred = pipeline.predict(delivered)
            self.store.update(inferred)
            if sp is not None:
                sp.set("incremental", incremental)
                sp.set("n_new_trips", n_new)
                sp.set("n_addresses_inferred", len(inferred))

        registry = get_registry()
        registry.counter(
            "service_refreshes_total", "Refresh batches absorbed, by kind"
        ).inc(kind="incremental" if incremental else "full")
        registry.gauge(
            "service_store_size", "Address-keyed locations currently served"
        ).set(len(self.store))
        registry.gauge(
            "service_pool_size", "Candidate locations in the current pool"
        ).set(len(pipeline.pool) if pipeline.pool is not None else 0)
        registry.gauge(
            "service_trips_absorbed", "Total trips the pipeline has absorbed"
        ).set(len(pipeline.extractor.trips))
        event(
            "service.refresh.complete", component="service",
            incremental=incremental, n_new_trips=n_new,
            n_addresses_inferred=len(inferred), store_size=len(self.store),
        )
        self.last_refresh = ServiceStats(
            n_trips=len(pipeline.extractor.trips),
            n_addresses_inferred=len(inferred),
            timings=dict(pipeline.timings),
            n_new_trips=n_new,
            incremental=incremental,
            counters=dict(pipeline.counters),
            drift=self._check_drift(pipeline),
        )
        return self.last_refresh

    def _check_drift(self, pipeline: DLInfMA) -> dict[str, dict]:
        """Fingerprint this refresh and compare against the previous one.

        The monitor handles gauge/event emission; here we just collect
        the report dicts for :class:`ServiceStats` (empty on the first
        refresh, when there is no baseline yet).
        """
        fingerprints = [
            pool_fingerprint(
                pipeline.pool, pipeline.extractor.profiles, pipeline.examples
            )
        ]
        if pipeline.selector is not None and pipeline.examples:
            fingerprints.append(
                matcher_fingerprint(pipeline.selector, pipeline.examples)
            )
        reports: dict[str, dict] = {}
        for fingerprint in fingerprints:
            report = self.drift.observe(fingerprint)
            if report is not None:
                reports[report.kind] = report.to_dict()
        return reports

    def _observe_query(self, seconds: float, result: QueryResult) -> None:
        get_registry().histogram(
            "service_query_latency_seconds",
            "Online store lookup latency, labeled by answering tier",
        ).observe(seconds, source=result.source.value)

    def query(self, address: Address) -> QueryResult:
        """Online lookup with the three-tier fallback."""
        t0 = time.perf_counter()
        result = self.store.query(address)
        self._observe_query(time.perf_counter() - t0, result)
        return result

    def query_id(self, address_id: str) -> QueryResult:
        """Online lookup by known address id.

        Raises :class:`~repro.apps.store.UnknownAddressError` (a
        :class:`KeyError` subclass) when ``address_id`` is not in the
        service's address book; the serving tier's router maps that to a
        structured ``UNKNOWN_ADDRESS`` response instead of a crash.
        """
        t0 = time.perf_counter()
        result = self.store.query_id(address_id)
        self._observe_query(time.perf_counter() - t0, result)
        return result

    def server(self, server_config=None, live_scoring: bool = False):
        """A :class:`~repro.serve.server.QueryServer` over this store.

        The server shares the service's store by reference, so a
        later :meth:`refresh` becomes visible to the serving tier at the
        next snapshot swap (callers should also drop the server's result
        cache via ``QueryServer.apply_refresh`` or ``router.on_refresh``
        for immediate visibility).

        With ``live_scoring=True`` each cold cache miss is answered by
        running LocMatcher in the serving path: the router's lookup is a
        :class:`~repro.serve.scoring.ModelScoringTier`, which scores an
        example-backed id with the model and falls back to the store for
        the rest.  Requires a fitted pipeline.
        """
        from repro.serve.server import QueryServer, ServerConfig
        from repro.serve.router import QueryRouter

        config = server_config or ServerConfig()
        router = None
        if live_scoring:
            if self.pipeline is None or self.pipeline.selector is None:
                raise RuntimeError("live scoring requires a fitted pipeline")
            from repro.serve.scoring import ModelScoringTier

            tier = ModelScoringTier(self.pipeline, self.store)
            router = QueryRouter.build(
                tier,
                cache_capacity=config.cache_capacity,
                cache_ttl_s=config.cache_ttl_s,
            )
        return QueryServer(self.store, config=config, router=router)

    def save(self, directory) -> None:
        """Persist the serving payload (location table) to a directory."""
        import pathlib

        from repro.core.persistence import save_locations

        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        save_locations(self.store.address_locations, directory / "locations.json")

    def load(self, directory) -> None:
        """Restore a previously saved location table into the store."""
        import pathlib

        from repro.core.persistence import load_locations

        directory = pathlib.Path(directory)
        self.store.update(load_locations(directory / "locations.json"))
