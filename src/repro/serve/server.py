"""Concurrent query server: worker pool, bounded admission, deadlines.

This is the online half of Figure 14 as an in-process subsystem: requests
enter a *bounded* admission queue (when it is full the submitter gets an
explicit ``REJECTED`` response immediately — backpressure, never an
unbounded pile-up), a pool of worker threads drains the queue through the
:class:`~repro.serve.router.QueryRouter`, and every request carries a
deadline that is honored both while queued (a worker discards expired
work without evaluating it) and on the client side (waiters give up and
report ``TIMED_OUT`` even if a worker is still busy).

Observability: a queue-depth gauge, a request counter by terminal status,
a latency histogram labeled by answering tier and cache state, and a
``serve.request`` span per evaluated request — all through
:mod:`repro.obs`, so ``--trace``/``--metrics-out`` cover the serving tier
for free.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Mapping

from repro.apps.store import QueryResult, QuerySource, UnknownAddressError
from repro.geo import Point
from repro.obs import current_span, event, get_registry
from repro.obs import span as obs_span
from repro.obs.exemplar import Exemplar
from repro.obs.health import SLO, HealthReport, QueueDepthSeries, evaluate_slos
from repro.obs.provenance import ProvenanceRing, get_provenance_ring
from repro.obs.shm import SlotSpec, TierMetrics
from repro.serve.router import CACHE_STATES, QueryRouter
from repro.serve.shard import ShardedLocationStore


class ServeStatus(Enum):
    """Terminal status of one served request."""

    OK = "ok"
    REJECTED = "rejected"            # admission queue full (backpressure)
    TIMED_OUT = "timed_out"          # deadline passed before completion
    UNKNOWN_ADDRESS = "unknown_address"
    ERROR = "error"


@dataclass(frozen=True)
class ServeResponse:
    """What a client gets back for one request."""

    address_id: str
    status: ServeStatus
    result: QueryResult | None
    cache_state: str | None
    latency_s: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status is ServeStatus.OK


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of the serving tier (defaults sized for the tiny preset)."""

    n_workers: int = 4
    queue_capacity: int = 64
    default_timeout_s: float = 1.0
    cache_capacity: int = 2048
    cache_ttl_s: float = 30.0

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1: {self.n_workers}")
        if self.queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1: {self.queue_capacity}")
        if self.default_timeout_s <= 0:
            raise ValueError(
                f"default_timeout_s must be > 0: {self.default_timeout_s}"
            )


def serve_specs() -> list[SlotSpec]:
    """The request families both serving front ends declare."""
    specs = [
        SlotSpec("counter", "serve_requests_total", (("status", s.value),),
                 help="Served requests by terminal status")
        for s in ServeStatus
    ]
    specs += [
        SlotSpec("histogram", "serve_request_latency_seconds",
                 (("cache", c), ("source", s.value)),
                 help="End-to-end request latency by answering tier and "
                      "cache state")
        for s in QuerySource for c in CACHE_STATES
    ]
    specs.append(
        SlotSpec("gauge", "serve_queue_depth", (),
                 help="Requests waiting for a worker: queued requests "
                      "(threads) or sub-batches in flight (processes)")
    )
    return specs


def account_response(
    metrics: TierMetrics,
    latency_s: float,
    counts: Mapping[tuple[ServeStatus, QuerySource | None, str | None], int],
    exemplar: Exemplar | None = None,
) -> None:
    """Count the terminal responses of one call at a serving front end.

    ``counts`` maps ``(status, source, cache state)`` to how many of the
    call's responses ended so (source and cache state ``None`` without an
    answer): the thread server passes its one response, the process
    router a batch, whose responses share ``latency_s``.  Each group is
    one counter add and, if answered, one latency observation by tier
    and cache state carrying the group's count and ``exemplar``.
    """
    for (status, source, cache), n in counts.items():
        metrics.inc("serve_requests_total", n, status=status.value)
        if source is not None:
            metrics.observe("serve_request_latency_seconds", latency_s,
                            exemplar, n, source=source.value, cache=cache)


def mint_answer(ring: ProvenanceRing, address_id: str, status: str,
                answer: tuple | None, cache_state: str | None, error: str | None,
                snapshot_version: int | None, trace_id: str) -> str:
    """Mint the provenance of one terminal response into ``ring``;
    returns its key.  ``answer`` is ``(lng, lat, source, confidence)``,
    ``None`` for an id not answered.

    The thread server's mapping from a served answer to
    :meth:`ProvenanceRing.mint`; a process worker mints its sub-batch's
    rows as columns with :meth:`ProvenanceRing.mint_rows`.
    """
    lng, lat, source, confidence = answer or (None, None, "", None)
    return ring.mint(address_id, status, lng=lng, lat=lat, source=source,
                     cache_state=cache_state or "", confidence=confidence,
                     snapshot_version=snapshot_version, trace_id=trace_id,
                     error=error or "")


class PendingQuery:
    """Future-like handle for one admitted (or rejected) request."""

    __slots__ = ("address_id", "t_submit", "deadline", "parent_span",
                 "_event", "_lock", "_response", "_on_finish")

    def __init__(
        self,
        address_id: str,
        t_submit: float,
        deadline: float,
        on_finish: Callable[[ServeResponse, str | None], None],
    ) -> None:
        self.address_id = address_id
        self.t_submit = t_submit
        self.deadline = deadline
        # The submitter's active span (contextvars don't cross the worker
        # thread boundary; the worker re-parents serve.request under it).
        self.parent_span = current_span()
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._response: ServeResponse | None = None
        self._on_finish = on_finish

    def finish(self, response: ServeResponse, trace_id: str | None = None) -> bool:
        """Install the terminal response; first writer wins.

        Only the winner is accounted (``on_finish``), and before the
        waiter wakes: a worker answer that arrives after the client gave
        up leaves no trace in the metrics or the provenance ring.
        ``trace_id`` is set for a response a worker evaluated.
        """
        with self._lock:
            if self._response is not None:
                return False
            self._response = response
        self._on_finish(response, trace_id)
        self._event.set()
        return True

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, grace_s: float = 0.050) -> ServeResponse:
        """Block until finished or the deadline (+``grace_s``) passes.

        If the deadline expires first the request is finished as
        ``TIMED_OUT`` from the client side; a worker completing the same
        request concurrently loses the race and its answer is discarded.
        """
        remaining = self.deadline + grace_s - time.monotonic()
        if not self._event.wait(max(0.0, remaining)):
            self.finish(
                ServeResponse(
                    self.address_id,
                    ServeStatus.TIMED_OUT,
                    None,
                    None,
                    time.monotonic() - self.t_submit,
                    error="deadline exceeded while waiting",
                )
            )
            self._event.wait()
        assert self._response is not None
        return self._response


_STOP = object()


class QueryServer:
    """Thread-pool server over the location store and a result cache."""

    def __init__(
        self,
        store: ShardedLocationStore,
        config: ServerConfig | None = None,
        router: QueryRouter | None = None,
    ) -> None:
        self.config = config or ServerConfig()
        self.store = store
        self.router = router or QueryRouter.build(
            store,
            cache_capacity=self.config.cache_capacity,
            cache_ttl_s=self.config.cache_ttl_s,
        )
        self._queue: queue.Queue = queue.Queue(maxsize=self.config.queue_capacity)
        self._threads: list[threading.Thread] = []
        self._started = False
        #: Queue depth over time (the registry gauge holds only the
        #: current depth).
        self.health = QueueDepthSeries()
        #: The request families of :func:`serve_specs`, registry only.
        self.telemetry = TierMetrics(get_registry(), serve_specs())
        #: Per-query evidence chains (the `repro explain` data source).
        self.provenance = get_provenance_ring()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "QueryServer":
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        for i in range(self.config.n_workers):
            thread = threading.Thread(
                target=self._worker, name=f"serve-worker-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        event(
            "serve.start", component="serve",
            n_workers=self.config.n_workers,
            queue_capacity=self.config.queue_capacity,
            n_shards=self.store.n_shards,
        )
        return self

    def stop(self) -> None:
        if not self._started:
            return
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join()
        self._threads.clear()
        self._started = False
        event("serve.stop", component="serve")

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def _account(self, response: ServeResponse, trace_id: str | None) -> None:
        """Count the one terminal response of a request.

        A response a worker evaluated (``trace_id`` is not None) first
        mints its provenance; its latency exemplar carries that key.
        Then :func:`account_response` counts it.
        """
        result = response.result
        exemplar = None
        if trace_id is not None:
            answer = None if result is None else (
                result.location.lng, result.location.lat, result.source.value,
                result.confidence)
            key = mint_answer(self.provenance, response.address_id,
                              response.status.value, answer,
                              response.cache_state, response.error,
                              self.store.version, trace_id)
            exemplar = Exemplar.now(response.latency_s, trace_id=trace_id,
                                    provenance_key=key)
        source = None if result is None else result.source
        account_response(
            self.telemetry, response.latency_s,
            {(response.status, source, response.cache_state): 1}, exemplar)

    def _note_depth(self) -> None:
        depth = self._queue.qsize()
        self.telemetry.set("serve_queue_depth", depth)
        self.health.note_queue_depth(depth)

    def submit(self, address_id: str, timeout_s: float | None = None) -> PendingQuery:
        """Enqueue one request; rejects immediately when the queue is full."""
        if not self._started:
            raise RuntimeError("server is not running (call start())")
        now = time.monotonic()
        deadline = now + (timeout_s if timeout_s is not None else
                          self.config.default_timeout_s)
        pending = PendingQuery(address_id, now, deadline, self._account)
        try:
            self._queue.put_nowait(pending)
        except queue.Full:
            pending.finish(
                ServeResponse(
                    address_id, ServeStatus.REJECTED, None, None,
                    time.monotonic() - now, error="admission queue full",
                )
            )
            return pending
        self._note_depth()
        return pending

    def query(self, address_id: str, timeout_s: float | None = None) -> ServeResponse:
        """Synchronous convenience: submit and wait out the deadline."""
        return self.submit(address_id, timeout_s).result()

    # ------------------------------------------------------------------
    # Refresh seam
    # ------------------------------------------------------------------
    def apply_refresh(self, address_locations: dict[str, Point]) -> int:
        """Merge a refresh batch into the store and invalidate the cache.

        Queries in flight keep reading the old snapshot; the next request
        sees the new one.  Returns the new store version.
        """
        snapshot = self.store.update(address_locations)
        dropped = self.router.on_refresh()
        event(
            "serve.refresh", component="serve", version=snapshot.version,
            size=snapshot.size, cache_dropped=dropped,
        )
        return snapshot.version

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            pending: PendingQuery = item
            self._note_depth()
            now = time.monotonic()
            if now >= pending.deadline:
                pending.finish(
                    ServeResponse(
                        pending.address_id, ServeStatus.TIMED_OUT, None, None,
                        now - pending.t_submit,
                        error="deadline exceeded in queue",
                    )
                )
                continue
            # sampled=True is the head decision the tail-based trace
            # collector (repro.obs.trace.merge_traces) honors — the
            # thread backend head-samples everything, so merged thread
            # traces keep the same shape as process-backend ones.
            with obs_span(
                "serve.request", parent=pending.parent_span,
                address_id=pending.address_id, sampled=True,
            ) as sp:
                trace_id = sp.trace_id if sp is not None else ""
                try:
                    result, cache_state = self.router.resolve(
                        pending.address_id)
                except UnknownAddressError as exc:
                    response = ServeResponse(
                        pending.address_id, ServeStatus.UNKNOWN_ADDRESS, None,
                        None, time.monotonic() - pending.t_submit,
                        error=str(exc),
                    )
                except Exception as exc:  # noqa: BLE001 — keep workers alive
                    response = ServeResponse(
                        pending.address_id, ServeStatus.ERROR, None, None,
                        time.monotonic() - pending.t_submit,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                else:
                    response = ServeResponse(
                        pending.address_id, ServeStatus.OK, result,
                        cache_state, time.monotonic() - pending.t_submit,
                    )
                if sp is not None:
                    sp.set("status", response.status.value)
                    if response.cache_state is not None:
                        sp.set("cache", response.cache_state)
            pending.finish(response, trace_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Point-in-time view for reports and the CLI."""
        requests = self.telemetry.family("serve_requests_total")
        counts = {
            status.value: requests.value(status=status.value)
            for status in ServeStatus
        }
        out: dict[str, Any] = {
            "requests_by_status": counts,
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self.config.queue_capacity,
            "n_workers": self.config.n_workers,
            "store_version": self.store.version,
            "store_size": len(self.store),
        }
        cache_stats = self.router.cache_stats()
        if cache_stats is not None:
            out["cache"] = cache_stats.to_dict()
        return out

    def verdict(self, slos: list[SLO]) -> HealthReport:
        """Evaluate SLOs against this server's live registry.

        The same computation as ``repro health`` over the registry's
        export; violations emit ``slo_violation`` events.
        """
        return evaluate_slos(self.telemetry.registry.to_dict(), slos,
                             source="live")
