"""repro.serve — the concurrent online query-serving subsystem.

Turns the offline pipeline's address→location table into a servable
system (the online half of the paper's Figure 14 deployment):

* :class:`ShardedLocationStore` — the in-process store: one immutable
  :class:`StoreSnapshot` (address table, building vote, version) per
  generation, refreshed by a one-reference swap so readers never take a
  lock.  Its :class:`ShardStrategy` (address-id hash or geohash prefix)
  is the key that groups columnar snapshot rows and routes ids to worker
  processes.
* :class:`QueryServer` — thread-pool workers behind a *bounded* admission
  queue (explicit ``REJECTED`` backpressure), per-request deadlines, and
  full :mod:`repro.obs` instrumentation.
* :class:`TTLLRUCache` / :class:`QueryRouter` — the one serving core
  under both backends: a recency cache, then the lookup on a cold miss —
  ``resolve`` per request over the store on the thread tier, ``rows_of``
  per sub-batch over the columnar snapshot in a worker process.
* :class:`LoadGenerator` — seeded closed-loop and open-loop (Poisson)
  workloads producing p50/p95/p99 + throughput + rejection reports
  (``repro serve-bench``).
* :class:`ColumnarSnapshot` / :class:`SnapshotPublisher` /
  :class:`ProcessRouter` — the multi-process backend: versioned columnar
  snapshot files loaded zero-copy via ``np.memmap``, an append-only
  update log with crash recovery (:meth:`ShardedLocationStore.restore`),
  and a shard-routed worker-process pool with heartbeat + restart
  (``repro serve-bench --backend process``).  The router hashes each id
  once and sends the hashes; a worker finds its rows by hash and replies
  in columns, and the router decodes each distinct id once.  Both
  servers take a refresh as ``apply_refresh(locations) -> version``.
"""

from repro.serve.cache import CacheStats, TTLLRUCache
from repro.serve.columnar import (
    ColumnarSnapshot,
    SnapshotCorruptError,
    SnapshotInfo,
    load_snapshot,
    write_snapshot,
)
from repro.serve.mp import (
    ProcessRouter,
    SnapshotPublisher,
    VersionCounter,
    WorkerDiedError,
    router_plane_specs,
    worker_plane_specs,
)
from repro.serve.loadgen import (
    LoadGenerator,
    LoadReport,
    ScheduledRequest,
    build_report,
    closed_sequences,
    poisson_schedule,
)
from repro.serve.router import QueryRouter
from repro.serve.server import (
    PendingQuery,
    QueryServer,
    ServeResponse,
    ServeStatus,
    ServerConfig,
)
from repro.serve.shard import (
    GeohashShardStrategy,
    HashShardStrategy,
    ShardedLocationStore,
    ShardStrategy,
    StoreSnapshot,
)

__all__ = [
    "CacheStats",
    "TTLLRUCache",
    "ColumnarSnapshot",
    "SnapshotCorruptError",
    "SnapshotInfo",
    "load_snapshot",
    "write_snapshot",
    "ProcessRouter",
    "SnapshotPublisher",
    "VersionCounter",
    "WorkerDiedError",
    "router_plane_specs",
    "worker_plane_specs",
    "LoadGenerator",
    "LoadReport",
    "ScheduledRequest",
    "build_report",
    "closed_sequences",
    "poisson_schedule",
    "QueryRouter",
    "PendingQuery",
    "QueryServer",
    "ServeResponse",
    "ServeStatus",
    "ServerConfig",
    "GeohashShardStrategy",
    "HashShardStrategy",
    "ShardedLocationStore",
    "ShardStrategy",
    "StoreSnapshot",
]
