"""Multi-process serving: worker pool over mmap'd columnar snapshots.

The thread-pool :class:`~repro.serve.server.QueryServer` is GIL-bound —
every lookup walks python dicts, so adding threads never buys a second
core.  This module promotes the same build-then-swap snapshot design
across process boundaries:

* A :class:`SnapshotPublisher` owns a directory of versioned columnar
  snapshot files (:mod:`repro.serve.columnar`), an append-only update
  log, and an mmap'd uint64 version counter (the ``CURRENT`` file).
  Publishing is write-new-file → fsync → atomic rename → flip counter,
  so readers can never map a torn snapshot; the update log is appended
  *before* the snapshot build, which is what makes
  :meth:`repro.serve.shard.ShardedLocationStore.restore` recover batches
  a crash separated from their snapshot.
* N worker processes (:func:`_worker_main`) each ``np.memmap`` the
  current snapshot read-only — one page-cache copy serves the whole
  pool — and answer through the same serving core as the thread tier, a
  :class:`~repro.serve.router.QueryRouter` (TTL+LRU cache of rows, then
  one ``rows_of`` lookup for the misses), under the same deadline
  semantics (:class:`~repro.serve.server.ServerConfig`).  Between
  requests a worker polls the version counter and, when it flips, remaps
  the new file and points its router at it: readers never block on a
  refresh, exactly like the in-process snapshot swap.
* A front-end :class:`ProcessRouter` hashes each id of a batch once
  (:func:`~repro.serve.columnar.hash_ids`) and dispatches by shard key
  over pipes (shard → ``shard % n_workers``, so the worker count never
  changes *shard* assignment), sending each worker its ids with their
  hashes.  The worker finds the rows by hash in its own snapshot, so
  routing needs no version hand-shake: every worker maps the *full*
  snapshot, and a stale routing table misroutes to a worker that still
  answers correctly.  The worker gathers the rows' columns and replies
  with one fixed-width row per id (an outcome code — status, answering
  tier, cache state — plus lng, lat, confidence) as bytes, and error
  text for the ids not answered; it mints the provenance of the whole
  sub-batch in one :meth:`~repro.obs.provenance.ProvenanceRing.mint_rows`
  call.  The router counts the outcomes from the codes and builds each
  distinct id's response once.  It answers a
  single query as a one-id batch, heartbeats the pool, and restarts
  dead workers automatically.  A router built
  with :meth:`ProcessRouter.from_store` keeps the store it published and
  refreshes it durably through :meth:`ProcessRouter.apply_refresh`, the
  same refresh call the thread server takes.

Failure semantics across the process boundary mirror the in-process
tier: unknown ids come back as ``UNKNOWN_ADDRESS``, worker deaths
surface as one retried request and then ``ERROR``, and deadlines are
enforced both worker-side (epoch deadline in the message) and
client-side (bounded waits).
"""

from __future__ import annotations

import glob as _glob
import itertools
import json
import mmap
import os
import re
import struct
import threading
import time
import zlib
from concurrent.futures import Future, ThreadPoolExecutor
from multiprocessing import get_context
from typing import Any, Sequence

import numpy as np

from repro.apps.store import QueryResult, UnknownAddressError
from repro.durable import append_record, atomic_write
from repro.geo import Point
from repro.obs import MetricsRegistry, get_registry
from repro.obs.exemplar import Exemplar
from repro.obs.health import (
    SLO,
    HealthReport,
    QueueDepthSeries,
    evaluate_slos,
    percentile,
)
from repro.obs.provenance import ProvenanceRing
from repro.obs.recorder import get_recorder
from repro.obs.shm import (
    PlaneSchemaError,
    SlotSpec,
    TierMetrics,
    merge_snapshots,
    merged_registry,
    scrape_planes,
)
from repro.obs.trace import (
    configure_tracing,
    current_trace_path,
    disable_tracing,
    flush_tracing,
    make_traceparent,
    merge_traces,
    parse_traceparent,
    span,
    tracing_enabled,
)
from repro.serve.columnar import (
    TIERS,
    ColumnarSnapshot,
    SnapshotCorruptError,
    SnapshotInfo,
    hash_ids,
    load_snapshot,
    write_snapshot,
)
from repro.serve.router import CACHE_STATES, QueryRouter
from repro.serve.server import (
    ServeResponse,
    ServerConfig,
    ServeStatus,
    account_response,
    serve_specs,
)
from repro.serve.shard import ShardedLocationStore, _stable_hash

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{8})\.rsnap$")
_CURRENT = "CURRENT"
_LOG = "updates.log"
_GRACE_S = 0.050

#: Observability sub-directory of a snapshot dir: per-process metrics
#: planes (``metrics-*.shm``) and per-worker span files.
_OBS_DIR = "obs"
#: Statuses a worker can emit (admission rejects never cross the pipe).
_WORKER_STATUSES = ("ok", "unknown_address", "timed_out", "error")

#: Every way a served id can end: ``(status, answering tier, cache
#: state)``, the last two ``None`` without an answer.  A reply row
#: carries its index here as ``code``.
_OUTCOMES = [(status, None, None) for status in ServeStatus] + [
    (ServeStatus.OK, tier, cache) for tier in TIERS for cache in CACHE_STATES
]
#: Code of ``(OK, TIERS[0], CACHE_STATES[0])``; tier ``t`` with cache
#: state ``c`` is ``_ANSWERED + t * len(CACHE_STATES) + c``.
_ANSWERED = len(ServeStatus)
_UNKNOWN = _OUTCOMES.index((ServeStatus.UNKNOWN_ADDRESS, None, None))
#: Each outcome's provenance strings by code: a row of statuses, one of
#: answering tiers and one of cache states ("" where there is no answer),
#: so a sub-batch's three string columns are one gather.
_STRINGS_OF = np.array([
    [s.value for s, _, _ in _OUTCOMES],
    [t.value if t else "" for _, t, _ in _OUTCOMES],
    [c or "" for _, _, c in _OUTCOMES],
], dtype=object)
#: One row per id of a worker's reply (``lng``, ``lat`` and
#: ``confidence`` NaN where there is none); the rows cross the pipe as
#: bytes.
_REPLY_ROW = np.dtype([("code", "i1"), ("lng", "<f8"), ("lat", "<f8"),
                       ("confidence", "<f4")])
#: A worker's reply to a sub-batch: its rows, and ``{position: error
#: text}`` for the ids not answered.
_SubReply = tuple[np.ndarray, dict[int, str]]
#: ``(lng, lat, confidence)`` of a reply row without an answer.
_NO_ANSWER = (np.nan, np.nan, np.nan)


def _failed_reply(n: int, status: ServeStatus, error: str) -> _SubReply:
    """The reply to a sub-batch of ``n`` ids none of which was answered."""
    rows = np.empty(n, _REPLY_ROW)
    rows[:] = (_OUTCOMES.index((status, None, None)),) + _NO_ANSWER
    return rows, dict.fromkeys(range(n), error)


def _columns(rows: np.ndarray) -> list[list]:
    """Each :data:`_REPLY_ROW` column of reply rows as a plain list."""
    return [rows[name].tolist() for name in _REPLY_ROW.names]


def worker_plane_specs(worker_id: int) -> list[SlotSpec]:
    """Fixed slot schema of one worker's shared-memory metrics plane."""
    w = str(worker_id)
    specs = [
        SlotSpec("counter", "serve_worker_requests_total",
                 (("status", s), ("worker", w)),
                 help="Rows served by this worker, by terminal status")
        for s in _WORKER_STATUSES
    ]
    specs += [
        # exemplars=True reserves seqlock-guarded per-bucket exemplar
        # bytes: a fleet latency bucket can pivot straight into the
        # trace + provenance record of a real request that landed in it.
        SlotSpec("histogram", "serve_worker_request_latency_seconds",
                 (("cache", c), ("worker", w)),
                 help="In-worker wall time per served row",
                 exemplars=True)
        for c in CACHE_STATES
    ]
    specs.append(
        SlotSpec("gauge", "serve_worker_snapshot_version_lag",
                 (("worker", w),),
                 help="Published version minus this worker's mapped version")
    )
    return specs


def router_plane_specs(n_workers: int) -> list[SlotSpec]:
    """Fixed slot schema of the router's shared-memory metrics plane: the
    request families every front end declares, plus per-worker restart
    and heartbeat counters."""
    specs = serve_specs()
    for i in range(n_workers):
        w = str(i)
        specs.append(
            SlotSpec("counter", "serve_worker_restarts_total",
                     (("worker", w),),
                     help="Worker processes restarted after death")
        )
        specs.append(
            SlotSpec("counter", "serve_worker_heartbeat_misses_total",
                     (("worker", w),),
                     help="Heartbeat pings a worker failed to answer")
        )
    return specs


# ---------------------------------------------------------------------------
# Version counter: an mmap'd uint64 every process can read without IPC
# ---------------------------------------------------------------------------
class VersionCounter:
    """8 bytes of shared truth: which snapshot version is current.

    The file is created atomically (:func:`repro.durable.atomic_write`);
    the value is a single aligned little-endian uint64 store through
    ``mmap``, which x86-64 and aarch64 both make atomic for readers on
    the same page.  Workers poll it between requests — no pipes, no
    locks, no syscalls on the read path once mapped.
    """

    def __init__(self, path: str, create: bool = False) -> None:
        self.path = path
        if create and not os.path.exists(path):
            atomic_write(path, lambda f: f.write(struct.pack("<Q", 0)))
        self._f = open(path, "r+b" if create else "rb")
        access = mmap.ACCESS_WRITE if create else mmap.ACCESS_READ
        self._mm = mmap.mmap(self._f.fileno(), 8, access=access)

    def get(self) -> int:
        return struct.unpack_from("<Q", self._mm, 0)[0]

    def set(self, version: int) -> None:
        struct.pack_into("<Q", self._mm, 0, version)
        self._mm.flush()

    def close(self) -> None:
        self._mm.close()
        self._f.close()


# ---------------------------------------------------------------------------
# Append-only update log (durability rider)
# ---------------------------------------------------------------------------
def append_log_record(
    path: str, version: int, locations: dict[str, Point]
) -> None:
    """Append one refresh batch: ``uint32 len | uint32 crc | json``.

    Appended *before* the snapshot for that version is built, so a crash
    at any later point leaves a replayable record.  A crash mid-append
    leaves a torn tail that :func:`read_log_records` detects by length or
    CRC and discards.
    """
    payload = json.dumps(
        {
            "version": version,
            "locations": {a: [p.lng, p.lat] for a, p in locations.items()},
        },
        separators=(",", ":"),
    ).encode("utf-8")
    append_record(
        path,
        struct.pack("<II", len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
        + payload,
    )


def read_log_records(path: str) -> list[tuple[int, dict[str, Point]]]:
    """All intact ``(version, locations)`` records; stops at a torn tail."""
    return _scan_log(path)[0]


def _scan_log(path: str) -> tuple[list[tuple[int, dict[str, Point]]], int, int]:
    """``(intact records, byte offset after the last one, file size)``."""
    out: list[tuple[int, dict[str, Point]]] = []
    if not os.path.exists(path):
        return out, 0, 0
    with open(path, "rb") as f:
        data = f.read()
    pos = 0
    while pos + 8 <= len(data):
        length, crc = struct.unpack_from("<II", data, pos)
        start = pos + 8
        end = start + length
        if end > len(data):
            break  # torn tail: writer died mid-append
        payload = data[start:end]
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            break
        record = json.loads(payload.decode("utf-8"))
        out.append(
            (
                record["version"],
                {
                    a: Point(lng, lat)
                    for a, (lng, lat) in record["locations"].items()
                },
            )
        )
        pos = end
    return out, pos, len(data)


# ---------------------------------------------------------------------------
# Snapshot publisher (writer side)
# ---------------------------------------------------------------------------
class SnapshotPublisher:
    """Owns a snapshot directory: versioned files, log, version counter."""

    def __init__(self, directory: str, keep: int = 3) -> None:
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.keep = max(1, keep)
        self._counter: VersionCounter | None = None
        self._reader: VersionCounter | None = None
        self._log_trimmed = False

    # -- paths ----------------------------------------------------------
    def path_for(self, version: int) -> str:
        return os.path.join(self.directory, f"snapshot-{version:08d}.rsnap")

    @property
    def log_path(self) -> str:
        return os.path.join(self.directory, _LOG)

    @property
    def counter_path(self) -> str:
        return os.path.join(self.directory, _CURRENT)

    def snapshot_versions(self) -> list[int]:
        versions = []
        for name in os.listdir(self.directory):
            match = _SNAPSHOT_RE.match(name)
            if match:
                versions.append(int(match.group(1)))
        return sorted(versions)

    # -- writer side ----------------------------------------------------
    def _writer_counter(self) -> VersionCounter:
        if self._counter is None:
            self._counter = VersionCounter(self.counter_path, create=True)
        return self._counter

    def log_update(self, locations: dict[str, Point], version: int) -> None:
        """Durable intent record for the refresh producing ``version``."""
        if not self._log_trimmed:
            # A writer killed mid-append may have left a torn tail; records
            # appended after it would be invisible to read_log_records.
            _, end, size = _scan_log(self.log_path)
            if end < size:
                os.truncate(self.log_path, end)
            self._log_trimmed = True
        append_log_record(self.log_path, version, locations)

    def publish(
        self,
        store: ShardedLocationStore,
        confidences: dict[str, float] | None = None,
    ) -> SnapshotInfo:
        """Write the store's current generation and flip the counter.

        The counter flips only after the snapshot file is fully on disk
        under its final name, so a reader that observes version *v* can
        always map an intact ``snapshot-v``.
        """
        info = write_snapshot(self.path_for(store.version), store, confidences)
        self._writer_counter().set(info.version)
        self._prune()
        return info

    def refresh(
        self,
        store: ShardedLocationStore,
        locations: dict[str, Point],
        confidences: dict[str, float] | None = None,
    ) -> SnapshotInfo:
        """Log → swap → publish: the full durable refresh protocol."""
        self.log_update(locations, store.version + 1)
        store.update(locations)
        return self.publish(store, confidences)

    def _prune(self) -> None:
        versions = self.snapshot_versions()
        current = self.current_version()
        for version in versions[: -self.keep]:
            if version != current:
                try:
                    os.unlink(self.path_for(version))
                except OSError:
                    pass

    def close(self) -> None:
        if self._counter is not None:
            self._counter.close()
            self._counter = None
        if self._reader is not None:
            self._reader.close()
            self._reader = None

    # -- reader side ----------------------------------------------------
    def current_version(self) -> int:
        """The published version, 0 if nothing was ever published.

        The read-only :class:`VersionCounter` is opened once and kept
        mapped — workers and the router poll this per request, and the
        whole point of the mmap'd counter is zero syscalls on that path.
        The CURRENT file is created atomically exactly once and then
        only ever updated in place, so a mapping never goes stale.
        """
        if self._counter is not None:
            return self._counter.get()
        if self._reader is None:
            try:
                self._reader = VersionCounter(self.counter_path)
            except (FileNotFoundError, ValueError):
                return 0  # not published yet; retry the open next call
        return self._reader.get()

    def current_path(self) -> str | None:
        version = self.current_version()
        return self.path_for(version) if version else None

    # -- crash recovery -------------------------------------------------
    @staticmethod
    def recover(
        directory: str,
    ) -> tuple[ColumnarSnapshot, list[dict[str, Point]]]:
        """Newest CRC-intact snapshot + the log suffix to replay onto it.

        Walks candidate snapshot files newest-first, fully verifying
        checksums — a file a dying writer managed to rename but not
        complete (non-atomic filesystem, truncated flush) is skipped, not
        served.  Raises :class:`FileNotFoundError` when no intact
        snapshot exists.
        """
        publisher = SnapshotPublisher(directory)
        snap: ColumnarSnapshot | None = None
        for version in reversed(publisher.snapshot_versions()):
            try:
                snap = load_snapshot(publisher.path_for(version), verify=True)
                break
            except (SnapshotCorruptError, OSError):
                continue
        if snap is None:
            raise FileNotFoundError(
                f"no intact snapshot to restore from in {directory!r}"
            )
        replay = [
            locations
            for version, locations in read_log_records(publisher.log_path)
            if version > snap.version
        ]
        return snap, replay


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------
def _worker_main(
    conn,
    directory: str,
    config: ServerConfig,
    worker_id: int,
    obs_dir: str | None = None,
    trace: bool = False,
) -> None:  # pragma: no cover - exercised in subprocesses
    """One worker: mmap current snapshot, serve query batches off a pipe."""
    # A fork-context worker inherits the parent's global tracer; writing
    # through its handle would interleave with the router's span file, so
    # drop it before (optionally) opening this worker's own sink.
    disable_tracing()
    if trace and obs_dir:
        configure_tracing(
            os.path.join(obs_dir, f"trace-worker-{worker_id}.jsonl")
        )
    # A fresh registry, not the global one: a fork-started worker must
    # never report what it inherited from its parent.
    w = str(worker_id)
    metrics = TierMetrics(
        MetricsRegistry(), worker_plane_specs(worker_id),
        os.path.join(obs_dir, f"metrics-worker-{worker_id}.shm")
        if obs_dir else None,
        meta={"kind": "worker", "worker": worker_id},
    )

    publisher = SnapshotPublisher(directory)
    snap: ColumnarSnapshot | None = None
    # The serving core the thread tier uses too, built over the first
    # snapshot this worker maps and pointed at each later one.
    router: QueryRouter | None = None
    load_seconds: list[float] = []
    # Provenance is minted worker-side (the worker is where the answer is
    # actually resolved); the ring is persisted on snapshot rotation and at
    # shutdown so `repro explain` can merge `provenance-*.jsonl` files
    # exactly like trace files.
    ring = ProvenanceRing(capacity=256, origin=f"w{worker_id}")

    def persist_ring() -> None:
        if obs_dir:
            ring.persist(os.path.join(obs_dir, f"provenance-worker-{worker_id}.jsonl"))

    def publish_lag() -> None:
        have = snap.version if snap is not None else 0
        metrics.set("serve_worker_snapshot_version_lag",
                    max(0, publisher.current_version() - have), worker=w)

    def ensure_snapshot() -> QueryRouter:
        nonlocal snap, router
        version = publisher.current_version()
        if router is not None and snap.version == version:
            return router
        for _ in range(5):
            version = publisher.current_version()
            path = publisher.path_for(version)
            t0 = time.perf_counter()
            try:
                fresh = load_snapshot(path)
            except (FileNotFoundError, SnapshotCorruptError):
                # Publisher replaced (and pruned) it mid-read; re-poll.
                time.sleep(0.005)
                continue
            dt = time.perf_counter() - t0
            load_seconds.append(dt)
            del load_seconds[:-256]
            snap = fresh
            if router is None:
                router = QueryRouter.build(
                    fresh, cache_capacity=config.cache_capacity,
                    cache_ttl_s=config.cache_ttl_s,
                )
            else:
                # Rotation boundary: flush provenance minted against the
                # outgoing snapshot before answers start citing the new one.
                persist_ring()
                router.store = fresh
                router.on_refresh()
            publish_lag()
            return router
        raise FileNotFoundError(f"no loadable snapshot in {directory!r}")

    def record_rows(ids: list[str], reply: _SubReply, elapsed: float,
                    trace_id: str = "") -> None:
        """Mint provenance and account one sub-batch, answered or not.

        The ring mints the sub-batch's rows in one call.  Every row took
        the same ``elapsed``, so the latency histogram takes one
        observation per cache label with that label's OK row count, its
        exemplar keyed by the label's last row; the request counter one
        add per status.
        """
        rows, errors = reply
        codes = rows["code"]
        statuses, sources, caches = _STRINGS_OF.take(codes, axis=1).tolist()
        keys = ring.mint_rows(
            ids, statuses, rows["lng"].tolist(), rows["lat"].tolist(),
            sources, caches, rows["confidence"].tolist(), errors,
            snap.version if snap is not None else None, trace_id,
        )
        n_status: dict[ServeStatus, int] = {}
        n_ok: dict[str, int] = {}
        last: dict[str, int] = {}
        backwards = codes[::-1].tolist()
        for code, n in enumerate(np.bincount(codes).tolist()):
            if not n:
                continue
            status, _, cache = _OUTCOMES[code]
            n_status[status] = n_status.get(status, 0) + n
            if cache is not None:
                n_ok[cache] = n_ok.get(cache, 0) + n
                # The code's last row, found by a C-level scan.
                at = len(keys) - 1 - backwards.index(code)
                last[cache] = max(last.get(cache, at), at)
        for cache, n in n_ok.items():
            metrics.observe(
                "serve_worker_request_latency_seconds", elapsed,
                Exemplar.now(elapsed, trace_id=trace_id,
                             provenance_key=keys[last[cache]]),
                n, cache=cache, worker=w,
            )
        for status, n in n_status.items():
            metrics.inc("serve_worker_requests_total", n, status=status.value,
                        worker=w)

    def resolve(ids: list[str], hashes: bytes,
                deadline: float | None) -> _SubReply:
        """Find the ids' rows by their hashes and gather their columns."""
        if deadline is not None and time.time() >= deadline:
            return _failed_reply(len(ids), ServeStatus.TIMED_OUT,
                                 "deadline exceeded before evaluation")
        router = ensure_snapshot()
        rows, cache = router.rows_of(ids, np.frombuffer(hashes, "<u8"))
        tier, lng, lat, conf = router.store.answers(rows)
        out = np.empty(len(ids), _REPLY_ROW)
        out["code"] = tier * len(CACHE_STATES) + (_ANSWERED + cache)
        out["lng"], out["lat"], out["confidence"] = lng, lat, conf
        unknown = np.flatnonzero(rows < 0)
        if len(unknown):  # a structured assignment costs µs, even empty
            out[unknown] = (_UNKNOWN,) + _NO_ANSWER
        errors = {i: str(UnknownAddressError(ids[i]))
                  for i in unknown.tolist()}
        return out, errors

    def handle_query(
        ids: list[str], hashes: bytes, deadline: float | None,
        traceparent: Any,
    ) -> tuple[bytes, dict[int, str]]:
        """Resolve one sub-batch under a (possibly remote-parented) span."""
        t0 = time.perf_counter()
        parent = parse_traceparent(traceparent)
        # Re-stamp the router's head-sampling decision onto the worker
        # span: the tail sampler must see it even when it merges worker
        # files without the router's own trace file (post-mortem
        # obs-export of a crashed run).
        sampled = {"sampled": True} if parent is not None and parent.sampled else {}
        trace_id = parent.trace_id if parent is not None else ""
        try:
            # parent=None deliberately forces a root span: a request that
            # arrived without a traceparent starts its own trace.
            with span("serve.request", parent=parent, worker=worker_id,
                      n_ids=len(ids), pid=os.getpid(), **sampled) as sp:
                if sp is not None:
                    trace_id = sp.trace_id
                reply = resolve(ids, hashes, deadline)
        except Exception as exc:  # noqa: BLE001 — keep the worker alive
            reply = _failed_reply(len(ids), ServeStatus.ERROR,
                                  f"{type(exc).__name__}: {exc}")
        record_rows(ids, reply, time.perf_counter() - t0, trace_id)
        return reply[0].tobytes(), reply[1]

    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return
            kind = msg[0]
            if kind == "stop":
                return
            req_id = msg[1]
            try:
                if kind == "q":
                    payload: Any = handle_query(*msg[2:])
                elif kind == "ping":
                    publish_lag()
                    payload = {
                        "pid": os.getpid(),
                        "worker_id": worker_id,
                        "version": snap.version if snap is not None else 0,
                    }
                elif kind == "stats":
                    cache = router.cache_stats() if router is not None else None
                    payload = {
                        "pid": os.getpid(),
                        "worker_id": worker_id,
                        "version": snap.version if snap is not None else 0,
                        "snapshot_loads": len(load_seconds),
                        "load_seconds": list(load_seconds),
                        "cache": cache.to_dict() if cache is not None else None,
                    }
                else:
                    payload = RuntimeError(f"unknown message kind: {kind!r}")
            except Exception as exc:  # noqa: BLE001 — keep the worker alive
                payload = RuntimeError(f"{type(exc).__name__}: {exc}")
            try:
                conn.send(("r", req_id, payload))
            except (BrokenPipeError, OSError):
                return
    finally:
        # Every exit path — stop message, closed pipe, terminate-induced
        # EOF — flushes the span sink, persists the provenance ring, and
        # unmaps the plane, so short-lived workers never drop their final
        # spans or leave a torn seqlock.
        persist_ring()
        metrics.close()
        disable_tracing()


# ---------------------------------------------------------------------------
# Front end
# ---------------------------------------------------------------------------
def _decode(
    ids: list[str], replies: list[tuple[list[str], _SubReply]], latency_s: float,
) -> list[ServeResponse]:
    """One response per id of a batch from its sub-batches' replies.

    A repeated id has one row per copy, all alike, so each distinct id
    is decoded once.
    """
    by_id: dict[str, ServeResponse] = {}
    for sub, reply in replies:
        errors = reply[1]
        for i, (address_id, code, lng, lat, conf) in enumerate(
            zip(sub, *_columns(reply[0]))
        ):
            if address_id in by_id:
                continue
            status, source, cache = _OUTCOMES[code]
            by_id[address_id] = ServeResponse(
                address_id, status, None, None, latency_s, errors[i],
            ) if source is None else ServeResponse(
                address_id, status,
                QueryResult(Point(lng, lat), source, conf if conf == conf else None),
                cache, latency_s,
            )
    return [by_id[a] for a in ids]


def _counts(replies: list[tuple[list[str], _SubReply]]) -> dict[tuple, int]:
    """``(status, source, cache state) -> responses`` of a batch, counted
    from its replies' code columns (see :func:`account_response`)."""
    codes = [rows["code"] for _, (rows, _) in replies]
    n = np.bincount(np.concatenate(codes)).tolist() if codes else []
    return {_OUTCOMES[code]: k for code, k in enumerate(n) if k}


class WorkerDiedError(RuntimeError):
    """The worker's pipe broke while a request was outstanding."""


class _Reply:
    __slots__ = ("event", "payload")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.payload: Any = None


class WorkerHandle:
    """One worker process: pipe, send lock, reply-matching reader thread.

    Requests are pipelined: any front-end thread may send (serialized by
    a lock), and a single reader thread matches replies to waiters by
    request id — no per-request connection, no head-of-line blocking on
    slow batch-mates from other threads.
    """

    def __init__(self, ctx, directory: str, config: ServerConfig,
                 worker_id: int, obs_dir: str | None = None,
                 trace: bool = False) -> None:
        self.worker_id = worker_id
        parent, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main,
            args=(child, directory, config, worker_id, obs_dir, trace),
            name=f"serve-mp-worker-{worker_id}",
            daemon=True,
        )
        self.process.start()
        child.close()
        self._conn = parent
        self._send_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: dict[int, _Reply] = {}
        self._req_ids = itertools.count()
        self._dead = False
        self._reader = threading.Thread(
            target=self._read_loop, name=f"serve-mp-reader-{worker_id}",
            daemon=True,
        )
        self._reader.start()

    def _read_loop(self) -> None:
        try:
            while True:
                msg = self._conn.recv()
                if msg[0] != "r":
                    continue
                with self._pending_lock:
                    reply = self._pending.pop(msg[1], None)
                if reply is not None:
                    reply.payload = msg[2]
                    reply.event.set()
        except (EOFError, OSError):
            pass
        self._dead = True
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for reply in pending:
            reply.event.set()  # payload stays None: caller sees the death

    @property
    def alive(self) -> bool:
        return not self._dead and self.process.is_alive()

    def send(self, kind: str, *args: Any) -> _Reply:
        """Dispatch one message; raises :class:`WorkerDiedError` if dead."""
        if self._dead:
            raise WorkerDiedError(f"worker {self.worker_id} is dead")
        req_id = next(self._req_ids)
        reply = _Reply()
        with self._pending_lock:
            self._pending[req_id] = reply
        try:
            with self._send_lock:
                self._conn.send((kind, req_id, *args))
        except (BrokenPipeError, OSError) as exc:
            self._dead = True
            with self._pending_lock:
                self._pending.pop(req_id, None)
            raise WorkerDiedError(
                f"worker {self.worker_id} pipe broke: {exc}"
            ) from exc
        return reply

    def wait(self, reply: _Reply, timeout_s: float | None) -> Any:
        """The reply payload, or ``None`` on timeout / worker death."""
        if not reply.event.wait(timeout_s):
            return None
        return reply.payload

    def stop(self, timeout_s: float = 1.0) -> None:
        try:
            with self._send_lock:
                self._conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout_s)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout_s)
        self._conn.close()


class ProcessRouter:
    """Front end of the worker pool: routing, retries, health, refresh.

    Routing is two-level and stable: address → shard comes from the
    snapshot's persisted grouping (or ``_stable_hash(id) % n_shards`` for
    ids the snapshot doesn't know), shard → worker is ``shard %
    n_workers``.  Changing the worker count therefore never moves an
    address between *shards* — a resharded snapshot stays diffable — it
    only remaps whole shards onto the new pool.
    """

    def __init__(
        self,
        snapshot_dir: str,
        n_workers: int = 2,
        config: ServerConfig | None = None,
        heartbeat_interval_s: float = 0.5,
        start_method: str | None = None,
        obs_dir: str | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1: {n_workers}")
        self.config = config or ServerConfig()
        self.n_workers = n_workers
        self.publisher = SnapshotPublisher(snapshot_dir)
        #: The store :meth:`from_store` published; :meth:`apply_refresh`
        #: refreshes it.  None for a router over a bare directory.
        self.store: ShardedLocationStore | None = None
        self.heartbeat_interval_s = heartbeat_interval_s
        self.obs_dir = (
            os.fspath(obs_dir) if obs_dir
            else os.path.join(self.publisher.directory, _OBS_DIR)
        )
        os.makedirs(self.obs_dir, exist_ok=True)
        #: Workers trace iff the router process is tracing at :meth:`start`.
        self._workers_trace = False
        self._ctx = get_context(start_method)
        self._workers: list[WorkerHandle | None] = [None] * n_workers
        self._workers_lock = threading.Lock()
        self._routing: ColumnarSnapshot | None = None
        self._routing_lock = threading.Lock()
        self._started = False
        self._stop_heartbeat = threading.Event()
        self._heartbeat: threading.Thread | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self.restarts = 0
        self.heartbeat_misses = 0
        self.health = QueueDepthSeries()
        #: The router's own families, mirrored into ``metrics-router.shm``
        #: (the plane attaches across router restarts).
        self.telemetry = TierMetrics(
            get_registry(), router_plane_specs(n_workers),
            os.path.join(self.obs_dir, "metrics-router.shm"),
            meta={"kind": "router", "n_workers": n_workers},
        )

    # -- lifecycle -------------------------------------------------------
    @classmethod
    def from_store(
        cls,
        store: ShardedLocationStore,
        snapshot_dir: str,
        n_workers: int = 2,
        config: ServerConfig | None = None,
        confidences: dict[str, float] | None = None,
        **kwargs: Any,
    ) -> "ProcessRouter":
        """Build a router, then publish the store's current generation.

        The router keeps ``store`` so :meth:`apply_refresh` can refresh it.
        """
        router = cls(snapshot_dir, n_workers=n_workers, config=config, **kwargs)
        router.publisher.publish(store, confidences)
        router.store = store
        return router

    def start(self) -> "ProcessRouter":
        if self._started:
            raise RuntimeError("router already started")
        if self.publisher.current_version() == 0:
            raise FileNotFoundError(
                f"no published snapshot in {self.publisher.directory!r}; "
                "publish one first (SnapshotPublisher.publish / from_store)"
            )
        self._started = True
        self.telemetry.open()
        self._workers_trace = tracing_enabled()
        self._ensure_routing()
        for i in range(self.n_workers):
            self._workers[i] = WorkerHandle(
                self._ctx, self.publisher.directory, self.config, i,
                obs_dir=self.obs_dir, trace=self._workers_trace,
            )
        self._heartbeat = threading.Thread(
            target=self._heartbeat_loop, name="serve-mp-heartbeat", daemon=True
        )
        self._heartbeat.start()
        return self

    def stop(self) -> None:
        """Stop the pool, unmap the router's plane and close the publisher
        (all idempotent), whether or not :meth:`start` ran or succeeded."""
        if not self._started:
            self.telemetry.close()
            self.publisher.close()
            return
        self._started = False
        self._stop_heartbeat.set()
        if self._heartbeat is not None:
            self._heartbeat.join(2.0)
            self._heartbeat = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        with self._workers_lock:
            workers, self._workers = self._workers, [None] * self.n_workers
        for worker in workers:
            if worker is not None:
                worker.stop()
        self.telemetry.close()
        self.publisher.close()

    def __enter__(self) -> "ProcessRouter":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- refresh ---------------------------------------------------------
    def apply_refresh(self, locations: dict[str, Point]) -> int:
        """Merge a refresh batch into :attr:`store` durably; returns the
        new version.

        The same call as :meth:`QueryServer.apply_refresh`, run as
        :meth:`SnapshotPublisher.refresh`: log, swap, publish, flip.
        Workers pick the new snapshot up on their next request.  Merge
        only: the update log replays as ``update``.
        """
        if self.store is None:
            raise RuntimeError(
                f"router over {self.publisher.directory!r} has no store to "
                "refresh; build it with ProcessRouter.from_store"
            )
        return self.publisher.refresh(self.store, locations).version

    # -- routing ---------------------------------------------------------
    def _ensure_routing(self) -> ColumnarSnapshot:
        version = self.publisher.current_version()
        routing = self._routing
        if routing is not None and routing.version == version:
            return routing
        with self._routing_lock:
            routing = self._routing
            if routing is not None and routing.version == version:
                return routing
            path = self.publisher.current_path()
            assert path is not None
            self._routing = load_snapshot(path)
            return self._routing

    def shard_for(self, address_id: str) -> int:
        """Stable shard of an id (snapshot grouping, hash fallback)."""
        routing = self._ensure_routing()
        shards = routing.shards_for_ids([address_id])
        if shards[0] >= 0:
            return int(shards[0])
        return _stable_hash(address_id) % routing.n_shards

    def worker_for_shard(self, shard: int) -> int:
        return shard % self.n_workers

    def _worker(self, index: int) -> WorkerHandle:
        with self._workers_lock:
            worker = self._workers[index]
            if worker is not None and worker.alive:
                return worker
            if not self._started:
                raise RuntimeError("router is not running (call start())")
            if worker is not None:
                self.restarts += 1
                self.telemetry.inc("serve_worker_restarts_total",
                                   worker=str(index))
                # A dead worker is exactly the moment post-hoc forensics
                # need a black box: snapshot the ring plus the router's
                # current metric state before the restart papers over it.
                try:
                    registry_doc = self.metrics().to_dict()
                except Exception:  # noqa: BLE001 — forensics stay best-effort
                    registry_doc = None
                get_recorder().trigger(
                    "worker_crash",
                    context={"worker": index, "restarts": self.restarts},
                    registry_doc=registry_doc,
                )
                threading.Thread(
                    target=worker.stop, name="serve-mp-reap", daemon=True
                ).start()
            worker = WorkerHandle(
                self._ctx, self.publisher.directory, self.config, index,
                obs_dir=self.obs_dir, trace=self._workers_trace,
            )
            self._workers[index] = worker
            return worker

    # -- query path ------------------------------------------------------
    def _set_depth(self, depth: int) -> None:
        self.telemetry.set("serve_queue_depth", depth)
        self.health.note_queue_depth(depth)

    def query_batch(
        self, address_ids: Sequence[str], timeout_s: float | None = None
    ) -> list[ServeResponse]:
        """Resolve a batch across the pool; one response per input id.

        Each id is hashed once; the hashes route it and travel with it,
        so each worker finds its sub-batch's rows in its own snapshot.
        A dead worker is restarted and its sub-batch retried once within
        the deadline; a sub-batch that outlives the deadline comes back
        ``TIMED_OUT``.  The caller gets every answer at once, so every
        response carries the batch's latency; the batch is accounted in
        one call from the replies' code columns, and each distinct id is
        decoded once.
        """
        if not self._started:
            raise RuntimeError("router is not running (call start())")
        timeout = (
            timeout_s if timeout_s is not None else self.config.default_timeout_s
        )
        t0 = time.monotonic()
        deadline_mono = t0 + timeout
        deadline_epoch = time.time() + timeout
        ids = list(address_ids)
        # Every route is head-sampled; the flag rides the traceparent to
        # the workers, and the tail-based collector honors it.
        with span("serve.route", n_ids=len(ids), sampled=True) as route_span:
            traceparent = (
                make_traceparent(route_span)
                if route_span is not None else None
            )
            groups = self._route(ids, hash_ids(ids))
            with self._inflight_lock:
                self._inflight += len(groups)
                depth = self._inflight
            self._set_depth(depth)
            try:
                sent = [(group, self._dispatch(group, deadline_epoch, traceparent))
                        for group in groups]
                replies = [(group[1], self._await_group(group, reply, deadline_mono,
                                                        deadline_epoch, traceparent))
                           for group, reply in sent]
                latency_s = time.monotonic() - t0
                responses = _decode(ids, replies, latency_s)
            finally:
                with self._inflight_lock:
                    self._inflight -= len(groups)
                    depth = self._inflight
                self._set_depth(depth)
        account_response(self.telemetry, latency_s, _counts(replies))
        return responses

    def _route(
        self, ids: list[str], hashes: np.ndarray
    ) -> list[tuple[int, list[str], bytes]]:
        """``(worker, ids, their hashes)`` for each worker with a share of
        the batch; one worker takes it all without a lookup."""
        if self.n_workers == 1:
            return [(0, ids, hashes.tobytes())] if ids else []
        routing = self._ensure_routing()
        shards = routing.shards_of(routing.rows_of(ids, hashes))
        for i in np.flatnonzero(shards < 0).tolist():
            shards[i] = _stable_hash(ids[i]) % routing.n_shards
        workers = shards % self.n_workers
        groups = []
        for index in np.flatnonzero(np.bincount(workers)).tolist():
            at = np.flatnonzero(workers == index)
            groups.append((index, [ids[i] for i in at.tolist()],
                           hashes[at].tobytes()))
        return groups

    def _dispatch(
        self, group: tuple[int, list[str], bytes], deadline_epoch: float,
        traceparent: str | None = None,
    ) -> Any:
        """Send a ``(worker, ids, hashes)`` sub-batch; a reply handle, or
        None if the worker is dead."""
        index, ids, hashes = group
        try:
            return self._worker(index).send("q", ids, hashes, deadline_epoch,
                                            traceparent)
        except WorkerDiedError:
            return None

    def _await_group(
        self,
        group: tuple[int, list[str], bytes],
        reply: Any,
        deadline_mono: float,
        deadline_epoch: float,
        traceparent: str | None = None,
    ) -> _SubReply:
        """Wait a sub-batch out, retrying once through a fresh worker."""
        index, ids, _ = group
        for attempt in range(2):
            if reply is not None:
                worker = self._workers[index]
                payload = (
                    worker.wait(reply, deadline_mono + _GRACE_S
                                - time.monotonic())
                    if worker is not None
                    else None
                )
                if payload is not None:
                    return np.frombuffer(payload[0], _REPLY_ROW), payload[1]
                if time.monotonic() >= deadline_mono:
                    return _failed_reply(len(ids), ServeStatus.TIMED_OUT,
                                         "deadline exceeded while waiting")
            if attempt == 0:
                reply = self._dispatch(group, deadline_epoch, traceparent)
        return _failed_reply(len(ids), ServeStatus.ERROR,
                             f"worker {index} died and retry failed")

    def query(
        self, address_id: str, timeout_s: float | None = None
    ) -> ServeResponse:
        """Resolve one id: a one-id :meth:`query_batch`."""
        return self.query_batch([address_id], timeout_s)[0]

    def submit(
        self, address_id: str, timeout_s: float | None = None
    ) -> Future:
        """Async submit for open-loop load generation: a ``Future`` of the
        :meth:`query` response."""
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=max(8, self.config.queue_capacity),
                thread_name_prefix="serve-mp-submit",
            )
        return self._executor.submit(self.query, address_id, timeout_s)

    # -- heartbeat -------------------------------------------------------
    def _note_heartbeat_miss(self, index: int) -> None:
        self.heartbeat_misses += 1
        self.telemetry.inc("serve_worker_heartbeat_misses_total",
                           worker=str(index))

    def _heartbeat_loop(self) -> None:
        while not self._stop_heartbeat.wait(self.heartbeat_interval_s):
            for index in range(self.n_workers):
                if self._stop_heartbeat.is_set():
                    return
                try:
                    worker = self._worker(index)  # restarts dead workers
                    reply = worker.send("ping")
                    if worker.wait(reply, self.heartbeat_interval_s) is None:
                        self._note_heartbeat_miss(index)
                except (WorkerDiedError, RuntimeError):
                    self._note_heartbeat_miss(index)
                    continue  # next tick restarts it

    # -- fleet observability ---------------------------------------------
    def metrics(self, base: MetricsRegistry | None = None) -> MetricsRegistry:
        """Fleet-wide registry view merged from the shared-memory planes.

        Scrapes every ``metrics-*.shm`` plane under :attr:`obs_dir` — the
        router's own and one per worker — summing counters and histogram
        buckets and max-merging gauges.  The scrape path is zero-IPC:
        it only maps the plane files, never touches a worker pipe, so a
        wedged or freshly-killed worker's last published values are still
        collected.  Works before :meth:`start` and after :meth:`stop`
        (plane files outlive their writers).
        """
        return merged_registry(self.obs_dir, base=base)

    def fleet_verdict(self, slos: Sequence[SLO]) -> HealthReport:
        """SLO verdict over the merged fleet metrics (not the router's
        registry alone — see :meth:`verdict` for that).

        Raises :class:`PlaneSchemaError` when :attr:`obs_dir` holds no
        plane files at all: a verdict computed over zero planes would
        vacuously pass every SLO, which is the opposite of what an
        operator pointing at the wrong directory needs to hear.
        """
        snapshots = scrape_planes(self.obs_dir)
        if not snapshots:
            raise PlaneSchemaError(
                f"no metrics planes (metrics-*.shm) found in "
                f"{self.obs_dir!r}; is the obs dir correct and has the "
                f"router been started?"
            )
        return evaluate_slos(merge_snapshots(snapshots).to_dict(),
                             list(slos), source="fleet")

    def trace_dump(
        self,
        out: str,
        p99_hint: float | None = None,
        include_router: bool = True,
    ) -> dict[str, Any]:
        """Merge router + per-worker span files into one sampled trace.

        Flushes the router's own sink first; workers flush per span, so
        their files are complete up to the last finished span even while
        the processes are alive.  Returns the collector's stats dict
        (see :func:`repro.obs.trace.merge_traces`).
        """
        flush_tracing()
        paths: list[str] = []
        if include_router:
            current = current_trace_path()
            if current is not None:
                paths.append(os.fspath(current))
        paths.extend(sorted(_glob.glob(
            os.path.join(self.obs_dir, "trace-worker-*.jsonl")
        )))
        return merge_traces(paths, out, p99_hint=p99_hint)

    # -- introspection ---------------------------------------------------
    def worker_stats(self, timeout_s: float = 1.0) -> list[dict[str, Any]]:
        out = []
        for index in range(self.n_workers):
            try:
                worker = self._worker(index)
                payload = worker.wait(worker.send("stats"), timeout_s)
            except (WorkerDiedError, RuntimeError):
                payload = None
            if isinstance(payload, dict):
                out.append(payload)
        return out

    def stats(self) -> dict[str, Any]:
        """Point-in-time view shaped like :meth:`QueryServer.stats`."""
        requests = self.telemetry.family("serve_requests_total")
        counts = {
            status.value: requests.value(status=status.value)
            for status in ServeStatus
        }
        workers = self.worker_stats()
        load_seconds = [
            s for w in workers for s in w.get("load_seconds", [])
        ]

        return {
            "requests_by_status": counts,
            "queue_depth": self._inflight,
            "queue_capacity": self.config.queue_capacity,
            "n_workers": self.n_workers,
            "worker_restarts": self.restarts,
            "heartbeat_misses": self.heartbeat_misses,
            "obs_dir": self.obs_dir,
            "store_version": self.publisher.current_version(),
            "snapshot_load_ms": {
                "count": len(load_seconds),
                "p50": percentile(load_seconds, 50.0) * 1e3,
                "p95": percentile(load_seconds, 95.0) * 1e3,
                "max": max(load_seconds, default=0.0) * 1e3,
            },
            "workers": workers,
        }

    def verdict(self, slos: list[SLO]) -> HealthReport:
        """SLO verdict over the router's own live registry (see
        :meth:`fleet_verdict` for the merged fleet planes)."""
        return evaluate_slos(self.telemetry.registry.to_dict(), slos,
                             source="live")


__all__ = [
    "ProcessRouter",
    "SnapshotPublisher",
    "VersionCounter",
    "WorkerDiedError",
    "WorkerHandle",
    "append_log_record",
    "read_log_records",
    "router_plane_specs",
    "worker_plane_specs",
]
